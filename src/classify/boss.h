#ifndef TSAUG_CLASSIFY_BOSS_H_
#define TSAUG_CLASSIFY_BOSS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "classify/classifier.h"

namespace tsaug::classify {

/// Symbolic Fourier Approximation (Schaefer): a sliding window is reduced
/// to the leading DFT coefficients and each coefficient is discretised by
/// equi-depth Multiple Coefficient Binning (MCB) learned on training
/// windows. Words are encoded as integers in base `alphabet_size`.
class SfaTransform {
 public:
  SfaTransform(int window_size, int word_length, int alphabet_size,
               bool mean_normalize = true);

  /// Learns the MCB bin edges from every window of the training signals.
  void Fit(const std::vector<std::vector<double>>& signals);

  bool fitted() const { return !bins_.empty(); }
  int word_length() const { return word_length_; }
  int window_size() const { return window_size_; }

  /// The SFA word of each window position of `signal`
  /// (signal.size() - window + 1 words).
  std::vector<std::uint32_t> Words(const std::vector<double>& signal) const;

  /// Fourier features of one window (exposed for tests): the first
  /// word_length real/imaginary coefficient values (skipping DC when
  /// mean-normalising).
  std::vector<double> WindowFeatures(const std::vector<double>& signal,
                                     int start) const;

 private:
  int window_size_;
  int word_length_;
  int alphabet_size_;
  bool mean_normalize_;
  // bins_[k] holds the (alphabet_size - 1) ascending edges of feature k.
  std::vector<std::vector<double>> bins_;
};

/// The BOSS classifier (Bag-of-SFA-Symbols, Schaefer 2015) — the
/// dictionary family of the classification literature the paper builds
/// on (COTE/HIVE-COTE ensemble dictionaries over exactly this transform).
/// Each series becomes a histogram of SFA words (with numerosity
/// reduction); prediction is 1-NN under the asymmetric BOSS distance.
/// Multivariate series use one SFA per channel with channel-tagged words.
class BossClassifier : public Classifier {
 public:
  explicit BossClassifier(int window_size = 16, int word_length = 4,
                          int alphabet_size = 4, bool z_normalize = true);

  std::string name() const override { return "BOSS"; }
  [[nodiscard]] core::Status TryFit(const core::Dataset& train) override;
  std::vector<int> Predict(const core::Dataset& test) override;

  /// Word histogram of one series (exposed for tests).
  std::map<std::uint64_t, int> Histogram(const core::TimeSeries& series) const;

 private:
  int window_size_;
  int word_length_;
  int alphabet_size_;
  bool z_normalize_;
  std::vector<SfaTransform> channel_transforms_;
  std::vector<std::map<std::uint64_t, int>> train_histograms_;
  std::vector<int> train_labels_;
  int train_length_ = 0;
};

}  // namespace tsaug::classify

#endif  // TSAUG_CLASSIFY_BOSS_H_
