#include "linalg/ridge.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "classify/classifier.h"
#include "classify/rocket.h"
#include "core/faultpoint.h"
#include "core/rng.h"
#include "core/trace.h"
#include "data/synthetic.h"

namespace tsaug::linalg {
namespace {

TEST(RidgeRegression, RecoversLinearMapAtSmallAlpha) {
  core::Rng rng(1);
  Matrix x(60, 3);
  for (double& v : x.data()) v = rng.Normal();
  // y = 2*x0 - x1 + 0.5*x2 + 3.
  Matrix y(60, 1);
  for (int i = 0; i < 60; ++i) {
    y(i, 0) = 2.0 * x(i, 0) - x(i, 1) + 0.5 * x(i, 2) + 3.0;
  }
  RidgeRegression model;
  TSAUG_CHECK_OK(model.TryFit(x, y, 1e-8));
  EXPECT_NEAR(model.weights()(0, 0), 2.0, 1e-4);
  EXPECT_NEAR(model.weights()(1, 0), -1.0, 1e-4);
  EXPECT_NEAR(model.weights()(2, 0), 0.5, 1e-4);
  EXPECT_NEAR(model.intercept()[0], 3.0, 1e-4);
}

TEST(RidgeRegression, PrimalAndDualAgree) {
  core::Rng rng(2);
  Matrix x_tall(40, 5);
  for (double& v : x_tall.data()) v = rng.Normal();
  Matrix y(40, 2);
  for (double& v : y.data()) v = rng.Normal();

  RidgeRegression primal;
  // 5 features <= 40 samples -> primal.
  TSAUG_CHECK_OK(primal.TryFit(x_tall, y, 0.7));

  // Same problem fed through the dual path by transposing the role: build a
  // wide matrix from the same data by fitting on fewer samples than
  // features is not the same problem, so instead verify the dual algebra
  // directly: fit a wide system and check the normal equations hold.
  Matrix x_wide(6, 30);
  for (double& v : x_wide.data()) v = rng.Normal();
  Matrix y_wide(6, 1);
  for (double& v : y_wide.data()) v = rng.Normal();
  RidgeRegression dual;
  const double alpha = 0.3;
  TSAUG_CHECK_OK(dual.TryFit(x_wide, y_wide, alpha));
  // Optimality of centred ridge: Xc^T (Yc - Xc W) = alpha W.
  Matrix xc = x_wide;
  xc.CenterColumns(x_wide.ColMeans());
  Matrix yc = y_wide;
  yc.CenterColumns(y_wide.ColMeans());
  Matrix residual = Sub(yc, MatMul(xc, dual.weights()));
  Matrix lhs = MatMulTransposeA(xc, residual);
  EXPECT_LT(MaxAbsDiff(lhs, Scale(dual.weights(), alpha)), 1e-8);
}

TEST(RidgeRegression, LargerAlphaShrinksWeights) {
  core::Rng rng(3);
  Matrix x(30, 4);
  for (double& v : x.data()) v = rng.Normal();
  Matrix y(30, 1);
  for (int i = 0; i < 30; ++i) y(i, 0) = x(i, 0) + rng.Normal(0, 0.1);
  RidgeRegression small;
  TSAUG_CHECK_OK(small.TryFit(x, y, 1e-6));
  RidgeRegression large;
  TSAUG_CHECK_OK(large.TryFit(x, y, 1e3));
  double small_norm = 0.0;
  double large_norm = 0.0;
  for (double v : small.weights().data()) small_norm += v * v;
  for (double v : large.weights().data()) large_norm += v * v;
  EXPECT_LT(large_norm, small_norm);
}

TEST(EncodeLabels, PlusMinusOne) {
  Matrix y = EncodeLabels({0, 2, 1}, 3);
  EXPECT_DOUBLE_EQ(y(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(y(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(y(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(y(2, 1), 1.0);
}

Matrix GaussianBlobs(const std::vector<int>& labels, double separation,
                     core::Rng& rng) {
  Matrix x(static_cast<int>(labels.size()), 2);
  for (int i = 0; i < x.rows(); ++i) {
    x(i, 0) = labels[static_cast<size_t>(i)] * separation + rng.Normal(0, 0.4);
    x(i, 1) = (labels[static_cast<size_t>(i)] % 2 == 0 ? 1 : -1) * separation / 2 + rng.Normal(0, 0.4);
  }
  return x;
}

TEST(RidgeClassifierCV, SeparatesGaussianBlobs) {
  core::Rng rng(4);
  std::vector<int> labels;
  for (int i = 0; i < 90; ++i) labels.push_back(i % 3);
  Matrix x = GaussianBlobs(labels, 4.0, rng);

  RidgeClassifierCV clf;
  TSAUG_CHECK_OK(clf.TryFit(x, labels, 3));
  EXPECT_GT(clf.Score(x, labels), 0.95);

  std::vector<int> test_labels;
  for (int i = 0; i < 30; ++i) test_labels.push_back(i % 3);
  Matrix x_test = GaussianBlobs(test_labels, 4.0, rng);
  EXPECT_GT(clf.Score(x_test, test_labels), 0.9);
}

TEST(RidgeClassifierCV, SelectsAlphaFromGrid) {
  core::Rng rng(5);
  std::vector<int> labels;
  for (int i = 0; i < 40; ++i) labels.push_back(i % 2);
  Matrix x = GaussianBlobs(labels, 2.0, rng);
  RidgeClassifierCV clf({0.01, 1.0, 100.0});
  TSAUG_CHECK_OK(clf.TryFit(x, labels, 2));
  EXPECT_TRUE(clf.best_alpha() == 0.01 || clf.best_alpha() == 1.0 ||
              clf.best_alpha() == 100.0);
}

TEST(RidgeClassifierCV, LoocvPrefersRegularizationUnderNoise) {
  // Pure-noise features with few samples and many dims: LOOCV should pick a
  // large alpha rather than the smallest.
  core::Rng rng(6);
  Matrix x(12, 40);
  for (double& v : x.data()) v = rng.Normal();
  std::vector<int> labels;
  for (int i = 0; i < 12; ++i) labels.push_back(i % 2);
  RidgeClassifierCV clf({1e-6, 1e3});
  TSAUG_CHECK_OK(clf.TryFit(x, labels, 2));
  EXPECT_DOUBLE_EQ(clf.best_alpha(), 1e3);
}

TEST(RidgeClassifierCV, DecisionFunctionShape) {
  core::Rng rng(7);
  std::vector<int> labels = {0, 1, 2, 0, 1, 2, 0, 1, 2};
  Matrix x = GaussianBlobs(labels, 3.0, rng);
  RidgeClassifierCV clf;
  TSAUG_CHECK_OK(clf.TryFit(x, labels, 3));
  Matrix scores = clf.DecisionFunction(x);
  EXPECT_EQ(scores.rows(), 9);
  EXPECT_EQ(scores.cols(), 3);
}

TEST(RidgeClassifierCV, WideFeatureMatrix) {
  // More features than samples (the ROCKET regime) must work via the dual.
  core::Rng rng(8);
  Matrix x(20, 200);
  std::vector<int> labels;
  for (int i = 0; i < 20; ++i) {
    labels.push_back(i % 2);
    for (int j = 0; j < 200; ++j) {
      x(i, j) = rng.Normal() + (i % 2) * 0.8;
    }
  }
  RidgeClassifierCV clf;
  TSAUG_CHECK_OK(clf.TryFit(x, labels, 2));
  EXPECT_GT(clf.Score(x, labels), 0.9);
}

// ROCKET features of a seeded synthetic problem: n training rows spread
// over `num_classes`, optionally with the first `duplicates` rows added a
// second time (identical Gram rows widen the null space beyond the
// intercept direction).
struct RocketFeatures {
  Matrix x;
  std::vector<int> labels;
  int num_classes = 0;
};

RocketFeatures MakeRocketFeatures(int n, int num_classes, int num_kernels,
                                  int duplicates, std::uint64_t seed) {
  data::SyntheticSpec spec;
  spec.num_classes = num_classes;
  spec.num_channels = 2;
  spec.length = 32;
  spec.seed = seed;
  // Vary the difficulty so the selected alphas spread over the grid.
  spec.noise_level = 0.02 + 0.4 * static_cast<double>(seed % 5);
  spec.class_separation = 0.2 + 0.8 * static_cast<double>(seed % 4);
  spec.instance_variability = 0.02 + 0.1 * static_cast<double>(seed % 3);
  const int unique = n - duplicates;
  for (int c = 0; c < num_classes; ++c) {
    spec.train_counts.push_back(unique / num_classes +
                                (c < unique % num_classes ? 1 : 0));
    spec.test_counts.push_back(1);
  }
  core::Dataset train = data::MakeSynthetic(spec).train;
  for (int i = 0; i < duplicates; ++i) train.Add(train.series(i), train.label(i));
  classify::RocketTransform transform(num_kernels, seed);
  transform.Fit(train.num_channels(), train.max_length());
  RocketFeatures out;
  out.x = transform.Transform(
      classify::DatasetToTensor(train, train.max_length(), true));
  out.labels = train.labels();
  out.num_classes = train.num_classes();
  return out;
}

int AlphaIndex(const RidgeClassifierCV& clf) {
  for (int i = 0; i < 10; ++i) {
    if (clf.best_alpha() == std::pow(10.0, -3.0 + 6.0 * i / 9.0)) return i;
  }
  return -1;
}

// The default 10-point grid's selected index on ROCKET-feature fixtures in
// the regime the paper grid runs (more features than rows). The indices
// were recorded with the cyclic Jacobi eigensolver that the tridiagonal QL
// one replaced: a solver change may move the LOO errors in their last
// bits, but must not flip any argmin.
TEST(RidgeClassifierCV, AlphaSelectionIsPinned) {
  struct Fixture {
    int n;
    int num_classes;
    int num_kernels;
    int duplicates;
    std::uint64_t seed;
  };
  const std::vector<Fixture> fixtures = {
      {28, 2, 100, 0, 1},    {40, 3, 100, 0, 2},    {56, 4, 150, 0, 3},
      {64, 5, 150, 0, 4},    {80, 6, 200, 0, 5},    {96, 2, 200, 0, 6},
      {112, 3, 200, 0, 7},   {128, 4, 250, 0, 8},   {140, 5, 250, 0, 9},
      {160, 6, 250, 0, 10},  {176, 2, 300, 0, 11},  {192, 3, 300, 0, 12},
      {208, 4, 300, 0, 13},  {224, 5, 300, 0, 14},  {240, 6, 300, 0, 15},
      {256, 2, 300, 0, 16},  {272, 3, 300, 0, 17},  {288, 4, 300, 0, 18},
      {320, 6, 300, 0, 19},  {96, 3, 200, 12, 20},
  };
  std::vector<int> indices;
  for (const Fixture& f : fixtures) {
    const RocketFeatures data = MakeRocketFeatures(
        f.n, f.num_classes, f.num_kernels, f.duplicates, f.seed);
    ASSERT_EQ(data.x.rows(), f.n);
    RidgeClassifierCV clf;
    TSAUG_CHECK_OK(clf.TryFit(data.x, data.labels, data.num_classes));
    EXPECT_FALSE(clf.loocv_fell_back());
    indices.push_back(AlphaIndex(clf));
  }
  const std::vector<int> pinned = {0, 8, 7, 9, 6, 7, 8, 9, 8, 6,
                                   7, 8, 8, 8, 4, 7, 8, 8, 8, 0};
  EXPECT_EQ(indices, pinned);
}

TEST(RidgeClassifierCV, NonFiniteFeaturesFallBackToMidGridAlpha) {
  core::trace::Reset();
  core::trace::Enable();
  core::Rng rng(9);
  std::vector<int> labels;
  for (int i = 0; i < 12; ++i) labels.push_back(i % 2);
  Matrix x = GaussianBlobs(labels, 3.0, rng);
  x(3, 1) = std::numeric_limits<double>::quiet_NaN();
  // The final solve cannot factorise a non-finite Gram either, so the fit
  // reports kSingular; alpha selection has already fallen back.
  RidgeClassifierCV clf;
  EXPECT_EQ(clf.TryFit(x, labels, 2).code(), core::StatusCode::kSingular);
  EXPECT_TRUE(clf.loocv_fell_back());
  EXPECT_DOUBLE_EQ(clf.best_alpha(), std::pow(10.0, -3.0 + 6.0 * 5 / 9.0));
  EXPECT_EQ(core::trace::CounterValue("ridge.loocv_fallback"), 1);

  x(3, 1) = std::numeric_limits<double>::infinity();
  EXPECT_EQ(clf.TryFit(x, labels, 2).code(), core::StatusCode::kSingular);
  EXPECT_TRUE(clf.loocv_fell_back());
  EXPECT_EQ(core::trace::CounterValue("ridge.loocv_fallback"), 2);
  core::trace::Disable();
  core::trace::Reset();
}

TEST(RidgeClassifierCV, InjectedLoocvFaultFallsBackToMidGridAlpha) {
  core::trace::Reset();
  core::trace::Enable();
  core::Rng rng(10);
  std::vector<int> labels;
  for (int i = 0; i < 30; ++i) labels.push_back(i % 3);
  const Matrix x = GaussianBlobs(labels, 4.0, rng);
  core::fault::SetSpec("ridge.loocv:1+");
  RidgeClassifierCV clf;
  const core::Status status = clf.TryFit(x, labels, 3);
  core::fault::Clear();
  TSAUG_CHECK_OK(status);
  EXPECT_TRUE(clf.loocv_fell_back());
  EXPECT_DOUBLE_EQ(clf.best_alpha(), std::pow(10.0, -3.0 + 6.0 * 5 / 9.0));
  EXPECT_EQ(core::trace::CounterValue("ridge.loocv_fallback"), 1);
  EXPECT_GT(clf.Score(x, labels), 0.9);
  core::trace::Disable();
  core::trace::Reset();
}

}  // namespace
}  // namespace tsaug::linalg
