#include "classify/boss.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "data/synthetic.h"

namespace tsaug::classify {
namespace {

std::vector<double> Tone(int n, double freq, double phase = 0.0) {
  std::vector<double> x(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) x[static_cast<size_t>(t)] = std::sin(freq * t + phase);
  return x;
}

TEST(SfaTransform, WordCountMatchesPositions) {
  SfaTransform sfa(8, 4, 4);
  const std::vector<double> signal = Tone(40, 0.5);
  sfa.Fit({signal});
  EXPECT_EQ(sfa.Words(signal).size(), 40u - 8 + 1);
}

TEST(SfaTransform, WordsWithinAlphabetRange) {
  SfaTransform sfa(8, 4, 4);
  const std::vector<double> signal = Tone(60, 0.8);
  sfa.Fit({signal});
  const std::uint32_t max_word = 4 * 4 * 4 * 4;  // alphabet^word_length
  for (std::uint32_t word : sfa.Words(signal)) EXPECT_LT(word, max_word);
}

TEST(SfaTransform, MeanNormalizationIgnoresOffset) {
  SfaTransform sfa(8, 4, 4);
  std::vector<double> base = Tone(40, 0.5);
  sfa.Fit({base});
  std::vector<double> shifted = base;
  for (double& v : shifted) v += 100.0;
  // The window-mean subtraction cancels the offset; features agree up to
  // floating-point roundoff (words could still flip at exact bin edges,
  // so compare the features themselves).
  for (int start = 0; start <= 40 - 8; ++start) {
    const auto a = sfa.WindowFeatures(base, start);
    const auto b = sfa.WindowFeatures(shifted, start);
    for (size_t k = 0; k < a.size(); ++k) EXPECT_NEAR(a[k], b[k], 1e-9);
  }
}

TEST(SfaTransform, DifferentFrequenciesGetDifferentVocabularies) {
  const std::vector<double> slow = Tone(80, 0.2);
  const std::vector<double> fast = Tone(80, 1.6);
  SfaTransform sfa(16, 4, 4);
  sfa.Fit({slow, fast});
  const auto slow_words = sfa.Words(slow);
  const auto fast_words = sfa.Words(fast);
  std::set<std::uint32_t> slow_set(slow_words.begin(), slow_words.end());
  std::set<std::uint32_t> fast_set(fast_words.begin(), fast_words.end());
  std::vector<std::uint32_t> common;
  std::set_intersection(slow_set.begin(), slow_set.end(), fast_set.begin(),
                        fast_set.end(), std::back_inserter(common));
  // Vocabularies overlap far less than they agree internally.
  EXPECT_LT(common.size(), std::min(slow_set.size(), fast_set.size()));
}

TEST(SfaTransform, EquiDepthBinsBalanceSymbols) {
  // With many windows, each symbol of the first coefficient should get a
  // roughly equal share (equi-depth binning).
  core::Rng rng(1);
  std::vector<double> noise(600);
  for (double& v : noise) v = rng.Normal();
  SfaTransform sfa(8, 1, 4);
  sfa.Fit({noise});
  const auto words = sfa.Words(noise);
  std::vector<int> counts(4, 0);
  for (std::uint32_t w : words) ++counts[w];
  for (int c : counts) {
    EXPECT_GT(c, static_cast<int>(words.size()) / 8);
  }
}

TEST(BossClassifier, HistogramUsesNumerosityReduction) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {4, 4};
  spec.test_counts = {1, 1};
  spec.num_channels = 1;
  spec.length = 32;
  spec.seed = 2;
  const core::Dataset train = data::MakeSynthetic(spec).train;
  BossClassifier boss(8, 4, 4);
  TSAUG_CHECK_OK(boss.TryFit(train));
  const auto histogram = boss.Histogram(train.series(0));
  int total = 0;
  for (const auto& [word, count] : histogram) total += count;
  // Numerosity reduction: strictly fewer counted words than positions.
  EXPECT_LE(total, 32 - 8 + 1);
  EXPECT_GT(total, 0);
}

TEST(BossClassifier, LearnsSeparableClasses) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {14, 14};
  spec.test_counts = {8, 8};
  spec.num_channels = 2;
  spec.length = 48;
  spec.class_separation = 1.5;
  spec.seed = 3;
  const data::TrainTest data = data::MakeSynthetic(spec);
  BossClassifier boss(12, 4, 4);
  TSAUG_CHECK_OK(boss.TryFit(data.train));
  EXPECT_GE(boss.Score(data.test), 0.7);
}

TEST(BossClassifier, MulticlassRuns) {
  data::SyntheticSpec spec;
  spec.num_classes = 3;
  spec.train_counts = {8, 8, 8};
  spec.test_counts = {3, 3, 3};
  spec.num_channels = 2;
  spec.length = 32;
  spec.seed = 4;
  const data::TrainTest data = data::MakeSynthetic(spec);
  BossClassifier boss;
  TSAUG_CHECK_OK(boss.TryFit(data.train));
  const std::vector<int> predictions = boss.Predict(data.test);
  EXPECT_EQ(predictions.size(), 9u);
  for (int p : predictions) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 3);
  }
}

TEST(BossClassifier, ShortSeriesClampWindow) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {4, 4};
  spec.test_counts = {2, 2};
  spec.num_channels = 1;
  spec.length = 8;  // PenDigits-scale
  spec.seed = 5;
  const data::TrainTest data = data::MakeSynthetic(spec);
  BossClassifier boss(16, 4, 4);  // window larger than the series
  TSAUG_CHECK_OK(boss.TryFit(data.train));
  EXPECT_EQ(boss.Predict(data.test).size(), 4u);
}

}  // namespace
}  // namespace tsaug::classify
