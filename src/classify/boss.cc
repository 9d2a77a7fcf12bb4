#include "classify/boss.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/preprocess.h"
#include "fft/fft.h"

namespace tsaug::classify {

SfaTransform::SfaTransform(int window_size, int word_length,
                           int alphabet_size, bool mean_normalize)
    : window_size_(window_size), word_length_(word_length),
      alphabet_size_(alphabet_size), mean_normalize_(mean_normalize) {
  TSAUG_CHECK(window_size >= 4);
  TSAUG_CHECK(word_length >= 1 && word_length <= window_size);
  TSAUG_CHECK(alphabet_size >= 2 && alphabet_size <= 16);
}

std::vector<double> SfaTransform::WindowFeatures(
    const std::vector<double>& signal, int start) const {
  TSAUG_CHECK(start >= 0 &&
              start + window_size_ <= static_cast<int>(signal.size()));
  std::vector<double> window(signal.begin() + start,
                             signal.begin() + start + window_size_);
  if (mean_normalize_) {
    double mean = 0.0;
    for (double v : window) mean += v / static_cast<double>(window.size());
    for (double& v : window) v -= mean;
  }
  const std::vector<fft::Complex> spectrum = fft::RealFft(window);

  // Leading coefficients, real and imaginary interleaved. With mean
  // normalisation the DC bin is ~0, so start from bin 1.
  std::vector<double> features;
  features.reserve(static_cast<size_t>(word_length_));
  int bin = mean_normalize_ ? 1 : 0;
  while (static_cast<int>(features.size()) < word_length_ &&
         bin < static_cast<int>(spectrum.size())) {
    features.push_back(spectrum[static_cast<size_t>(bin)].real());
    if (static_cast<int>(features.size()) < word_length_) {
      features.push_back(spectrum[static_cast<size_t>(bin)].imag());
    }
    ++bin;
  }
  features.resize(static_cast<size_t>(word_length_), 0.0);
  return features;
}

void SfaTransform::Fit(const std::vector<std::vector<double>>& signals) {
  // Pool features per coefficient across every training window.
  std::vector<std::vector<double>> pooled(static_cast<size_t>(word_length_));
  for (const std::vector<double>& signal : signals) {
    const int positions = static_cast<int>(signal.size()) - window_size_ + 1;
    for (int start = 0; start < positions; ++start) {
      const std::vector<double> features = WindowFeatures(signal, start);
      for (int k = 0; k < word_length_; ++k) pooled[static_cast<size_t>(k)].push_back(features[static_cast<size_t>(k)]);
    }
  }
  TSAUG_CHECK_MSG(!pooled[0].empty(),
                  "no training windows (series shorter than window?)");

  // Equi-depth MCB bins.
  bins_.assign(static_cast<size_t>(word_length_), {});
  for (int k = 0; k < word_length_; ++k) {
    std::sort(pooled[static_cast<size_t>(k)].begin(), pooled[static_cast<size_t>(k)].end());
    for (int edge = 1; edge < alphabet_size_; ++edge) {
      const size_t idx =
          std::min(pooled[static_cast<size_t>(k)].size() - 1,
                   pooled[static_cast<size_t>(k)].size() * static_cast<size_t>(edge) / static_cast<size_t>(alphabet_size_));
      bins_[static_cast<size_t>(k)].push_back(pooled[static_cast<size_t>(k)][idx]);
    }
  }
}

std::vector<std::uint32_t> SfaTransform::Words(
    const std::vector<double>& signal) const {
  TSAUG_CHECK(fitted());
  const int positions = static_cast<int>(signal.size()) - window_size_ + 1;
  std::vector<std::uint32_t> words;
  if (positions <= 0) return words;
  words.reserve(static_cast<size_t>(positions));
  for (int start = 0; start < positions; ++start) {
    const std::vector<double> features = WindowFeatures(signal, start);
    std::uint32_t word = 0;
    for (int k = 0; k < word_length_; ++k) {
      int symbol = 0;
      for (double edge : bins_[static_cast<size_t>(k)]) {
        if (features[static_cast<size_t>(k)] > edge) ++symbol;
      }
      word = word * static_cast<std::uint32_t>(alphabet_size_) +
             static_cast<std::uint32_t>(symbol);
    }
    words.push_back(word);
  }
  return words;
}

BossClassifier::BossClassifier(int window_size, int word_length,
                               int alphabet_size, bool z_normalize)
    : window_size_(window_size), word_length_(word_length),
      alphabet_size_(alphabet_size), z_normalize_(z_normalize) {}

std::map<std::uint64_t, int> BossClassifier::Histogram(
    const core::TimeSeries& series) const {
  core::TimeSeries prepared = core::ImputeLinear(series);
  if (prepared.length() != train_length_) {
    prepared = core::ResampleToLength(prepared, train_length_);
  }
  if (z_normalize_) prepared = core::ZNormalize(prepared);

  std::map<std::uint64_t, int> histogram;
  for (int c = 0; c < prepared.num_channels(); ++c) {
    const auto channel = prepared.channel(c);
    const std::vector<std::uint32_t> words = channel_transforms_[static_cast<size_t>(c)].Words(
        std::vector<double>(channel.begin(), channel.end()));
    // Numerosity reduction: consecutive duplicate words count once.
    std::uint32_t previous = std::numeric_limits<std::uint32_t>::max();
    for (std::uint32_t word : words) {
      if (word == previous) continue;
      previous = word;
      // Tag with the channel so per-channel vocabularies stay disjoint.
      const std::uint64_t key =
          (static_cast<std::uint64_t>(c) << 32) | word;
      ++histogram[key];
    }
  }
  return histogram;
}

core::Status BossClassifier::TryFit(const core::Dataset& train) {
  TSAUG_CHECK(!train.empty());
  train_length_ = train.max_length();
  const int channels = train.num_channels();
  const int window = std::min(window_size_, std::max(4, train_length_ / 2));

  // One SFA per channel, fitted on that channel of every training series.
  channel_transforms_.clear();
  for (int c = 0; c < channels; ++c) {
    std::vector<std::vector<double>> signals;
    signals.reserve(static_cast<size_t>(train.size()));
    for (int i = 0; i < train.size(); ++i) {
      core::TimeSeries prepared = core::ImputeLinear(train.series(i));
      if (prepared.length() != train_length_) {
        prepared = core::ResampleToLength(prepared, train_length_);
      }
      if (z_normalize_) prepared = core::ZNormalize(prepared);
      const auto channel = prepared.channel(c);
      signals.emplace_back(channel.begin(), channel.end());
    }
    SfaTransform transform(window, word_length_, alphabet_size_);
    transform.Fit(signals);
    channel_transforms_.push_back(std::move(transform));
  }

  train_histograms_.clear();
  train_labels_ = train.labels();
  for (int i = 0; i < train.size(); ++i) {
    train_histograms_.push_back(Histogram(train.series(i)));
  }
  return core::OkStatus();
}

std::vector<int> BossClassifier::Predict(const core::Dataset& test) {
  TSAUG_CHECK(!train_histograms_.empty());
  std::vector<int> predictions(static_cast<size_t>(test.size()));
  for (int i = 0; i < test.size(); ++i) {
    const std::map<std::uint64_t, int> query = Histogram(test.series(i));
    double best = std::numeric_limits<double>::infinity();
    int best_label = train_labels_[0];
    for (size_t j = 0; j < train_histograms_.size(); ++j) {
      // BOSS distance: squared differences over the *query's* words only.
      double distance = 0.0;
      for (const auto& [word, count] : query) {
        const auto it = train_histograms_[j].find(word);
        const int train_count =
            it != train_histograms_[j].end() ? it->second : 0;
        const double diff = count - train_count;
        distance += diff * diff;
      }
      if (distance < best) {
        best = distance;
        best_label = train_labels_[j];
      }
    }
    predictions[static_cast<size_t>(i)] = best_label;
  }
  return predictions;
}

}  // namespace tsaug::classify
