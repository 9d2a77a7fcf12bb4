#ifndef TSAUG_AUGMENT_VAE_H_
#define TSAUG_AUGMENT_VAE_H_

#include <map>
#include <memory>
#include <string>

#include "augment/augmenter.h"
#include "nn/layers.h"

namespace tsaug::augment {

/// Hyperparameters of the variational autoencoder augmenter (the
/// taxonomy's neural-generative slot next to TimeGAN, cf. Kirchbuchner et
/// al. / DeVries & Taylor latent-space augmentation).
struct VaeConfig {
  int hidden_dim = 32;
  int latent_dim = 8;
  double beta = 0.5;  // weight of the KL term
  double learning_rate = 2e-3;
  int epochs = 200;
  int batch_size = 16;
  std::uint64_t seed = 0;
};

/// A dense VAE over flattened, per-feature standardised series.
///
/// Encoder: Linear-ReLU -> (mu, logvar); z = mu + exp(logvar/2) * eps;
/// Decoder: Linear-ReLU-Linear. Loss = MSE + beta * KL(q(z|x) || N(0,I)).
class Vae {
 public:
  explicit Vae(VaeConfig config);

  /// Trains on flattened instances (rows). Standardisation statistics are
  /// learned here and inverted at sampling time. Polls the cooperative
  /// stop token once per epoch, so a cancelled or over-deadline cell
  /// returns kCancelled / kDeadlineExceeded instead of training to the end.
  [[nodiscard]] core::Status TryFit(const std::vector<std::vector<double>>& instances);

  bool fitted() const { return decoder_out_ != nullptr; }

  /// Decodes `count` draws of z ~ N(0, I) back to data space.
  std::vector<std::vector<double>> Sample(int count, core::Rng& rng);

  /// Final training loss (reconstruction + beta*KL), for diagnostics.
  double final_loss() const { return final_loss_; }

 private:
  VaeConfig config_;
  int input_dim_ = 0;
  std::vector<double> feature_mean_;
  std::vector<double> feature_std_;
  std::unique_ptr<nn::Linear> encoder_hidden_;
  std::unique_ptr<nn::Linear> encoder_mu_;
  std::unique_ptr<nn::Linear> encoder_logvar_;
  std::unique_ptr<nn::Linear> decoder_hidden_;
  std::unique_ptr<nn::Linear> decoder_out_;
  double final_loss_ = 0.0;
};

/// Per-class VAE augmenter with the same lazy-fit caching as TimeGAN.
class VaeAugmenter : public Augmenter {
 public:
  explicit VaeAugmenter(VaeConfig config = {});

  std::string name() const override { return "vae"; }
  TaxonomyBranch branch() const override {
    return TaxonomyBranch::kGenerativeNeural;
  }
  core::StatusOr<std::vector<core::TimeSeries>> DoGenerate(
      const core::Dataset& train, int label, int count,
      core::Rng& rng) override;
  void Invalidate() override { models_.clear(); }

 private:
  VaeConfig config_;
  std::map<int, std::unique_ptr<Vae>> models_;
};

}  // namespace tsaug::augment

#endif  // TSAUG_AUGMENT_VAE_H_
