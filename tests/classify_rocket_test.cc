#include "classify/rocket.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/synthetic.h"

namespace tsaug::classify {
namespace {

data::TrainTest TwoClassData(std::uint64_t seed = 3, double separation = 1.0) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {20, 20};
  spec.test_counts = {10, 10};
  spec.num_channels = 3;
  spec.length = 48;
  spec.class_separation = separation;
  spec.seed = seed;
  return data::MakeSynthetic(spec);
}

TEST(RocketTransform, KernelGeometryWithinSpec) {
  RocketTransform transform(200, 42);
  transform.Fit(/*num_channels=*/4, /*series_length=*/64);
  ASSERT_EQ(transform.kernels().size(), 200u);
  for (const RocketKernel& k : transform.kernels()) {
    EXPECT_TRUE(k.length == 7 || k.length == 9 || k.length == 11);
    EXPECT_GE(k.dilation, 1);
    EXPECT_LE((k.length - 1) * k.dilation, 2 * 63);
    EXPECT_GE(k.bias, -1.0);
    EXPECT_LE(k.bias, 1.0);
    EXPECT_GE(k.channels.size(), 1u);
    EXPECT_LE(static_cast<int>(k.channels.size()), 4);
    // Weights are mean-centred per kernel.
    double mean = 0.0;
    for (double w : k.weights) mean += w;
    EXPECT_NEAR(mean / static_cast<double>(k.weights.size()), 0.0, 1e-12);
  }
}

TEST(RocketTransform, FeaturesShapeAndPpvRange) {
  RocketTransform transform(50, 1);
  transform.Fit(2, 32);
  nn::Tensor x({5, 2, 32});
  core::Rng rng(2);
  for (double& v : x.data()) v = rng.Normal();
  const linalg::Matrix features = transform.Transform(x);
  EXPECT_EQ(features.rows(), 5);
  EXPECT_EQ(features.cols(), 100);
  for (int i = 0; i < features.rows(); ++i) {
    for (int k = 0; k < 50; ++k) {
      EXPECT_GE(features(i, 2 * k), 0.0);   // PPV
      EXPECT_LE(features(i, 2 * k), 1.0);
    }
  }
}

TEST(RocketTransform, DeterministicInSeed) {
  RocketTransform a(30, 9);
  RocketTransform b(30, 9);
  a.Fit(3, 40);
  b.Fit(3, 40);
  nn::Tensor x({2, 3, 40});
  core::Rng rng(3);
  for (double& v : x.data()) v = rng.Normal();
  EXPECT_EQ(a.Transform(x), b.Transform(x));
}

TEST(RocketTransform, ShortSeriesStillWork) {
  // PenDigits has length 8 < kernel length 11: kernels must adapt.
  RocketTransform transform(40, 5);
  transform.Fit(2, 8);
  nn::Tensor x({3, 2, 8});
  core::Rng rng(4);
  for (double& v : x.data()) v = rng.Normal();
  const linalg::Matrix features = transform.Transform(x);
  for (double v : features.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(RocketClassifier, LearnsSeparableClasses) {
  const data::TrainTest data = TwoClassData();
  RocketClassifier clf(/*num_kernels=*/300, /*seed=*/7);
  TSAUG_CHECK_OK(clf.TryFit(data.train));
  EXPECT_GE(clf.Score(data.test), 0.85);
}

TEST(RocketClassifier, MulticlassImbalanced) {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.train_counts = {24, 12, 6, 4};
  spec.test_counts = {8, 6, 4, 4};
  spec.num_channels = 2;
  spec.length = 40;
  spec.seed = 11;
  const data::TrainTest data = data::MakeSynthetic(spec);
  RocketClassifier clf(300, 3);
  TSAUG_CHECK_OK(clf.TryFit(data.train));
  EXPECT_GE(clf.Score(data.test), 0.6);
}

TEST(RocketClassifier, HandlesVariableLengthAndMissing) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {10, 10};
  spec.test_counts = {5, 5};
  spec.num_channels = 2;
  spec.length = 30;
  spec.missing_prop = 0.2;
  spec.seed = 13;
  const data::TrainTest data = data::MakeSynthetic(spec);
  RocketClassifier clf(150, 1);
  TSAUG_CHECK_OK(clf.TryFit(data.train));
  const std::vector<int> predictions = clf.Predict(data.test);
  EXPECT_EQ(predictions.size(), 10u);
  for (int p : predictions) EXPECT_TRUE(p == 0 || p == 1);
}

TEST(RocketClassifier, MoreKernelsHelpOnHardData) {
  const data::TrainTest data = TwoClassData(21, /*separation=*/0.35);
  RocketClassifier small(20, 5);
  RocketClassifier large(500, 5);
  TSAUG_CHECK_OK(small.TryFit(data.train));
  TSAUG_CHECK_OK(large.TryFit(data.train));
  // Not strictly monotone in general, but on this task the 25x kernel
  // count should not do worse.
  EXPECT_GE(large.Score(data.test) + 0.1, small.Score(data.test));
}

}  // namespace
}  // namespace tsaug::classify
