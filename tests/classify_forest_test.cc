#include "classify/random_forest.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"

namespace tsaug::classify {
namespace {

// A linearly separable 2-D problem.
void MakeBlobs(int n, linalg::Matrix* x, std::vector<int>* y,
               std::uint64_t seed, double separation = 3.0) {
  core::Rng rng(seed);
  *x = linalg::Matrix(n, 2);
  y->resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int label = i % 2;
    (*x)(i, 0) = label * separation + rng.Normal(0, 0.5);
    (*x)(i, 1) = rng.Normal(0, 0.5);
    (*y)[static_cast<size_t>(i)] = label;
  }
}

TEST(DecisionTree, FitsSeparableBlobs) {
  linalg::Matrix x;
  std::vector<int> y;
  MakeBlobs(60, &x, &y, 1);
  DecisionTree tree;
  core::Rng rng(2);
  tree.Fit(x, y, 2, {.max_depth = 6, .min_samples_leaf = 1,
                     .features_per_split = 2},
           rng);
  int correct = 0;
  for (int i = 0; i < x.rows(); ++i) {
    correct += tree.Predict(x.row_data(i)) == y[static_cast<size_t>(i)] ? 1 : 0;
  }
  EXPECT_GE(correct, 58);
}

TEST(DecisionTree, PureNodeIsLeaf) {
  linalg::Matrix x(4, 1);
  x(0, 0) = 1;
  x(1, 0) = 2;
  x(2, 0) = 3;
  x(3, 0) = 4;
  const std::vector<int> y = {0, 0, 0, 0};
  DecisionTree tree;
  core::Rng rng(3);
  tree.Fit(x, y, 2, {}, rng);
  EXPECT_EQ(tree.node_count(), 1);  // already pure
  EXPECT_EQ(tree.Predict(x.row_data(0)), 0);
}

TEST(DecisionTree, DepthLimitRespected) {
  // Alternating labels along one axis need depth >> 1; a depth-1 stump
  // must still return valid distributions.
  linalg::Matrix x(16, 1);
  std::vector<int> y(16);
  for (int i = 0; i < 16; ++i) {
    x(i, 0) = i;
    y[static_cast<size_t>(i)] = i % 2;
  }
  DecisionTree tree;
  core::Rng rng(4);
  tree.Fit(x, y, 2, {.max_depth = 1, .min_samples_leaf = 1,
                     .features_per_split = 1},
           rng);
  EXPECT_LE(tree.node_count(), 3);  // root + at most two leaves
  const auto& distribution = tree.PredictDistribution(x.row_data(0));
  EXPECT_NEAR(distribution[0] + distribution[1], 1.0, 1e-12);
}

TEST(RandomForest, BeatsSingleStumpOnXor) {
  // XOR-ish pattern: single shallow trees fail, a forest of deeper trees
  // succeeds.
  core::Rng rng(5);
  linalg::Matrix x(120, 2);
  std::vector<int> y(120);
  for (int i = 0; i < 120; ++i) {
    const int a = i % 2;
    const int b = (i / 2) % 2;
    x(i, 0) = a * 2.0 + rng.Normal(0, 0.3);
    x(i, 1) = b * 2.0 + rng.Normal(0, 0.3);
    y[static_cast<size_t>(i)] = a ^ b;
  }
  RandomForest::Config config;
  config.num_trees = 30;
  config.tree.max_depth = 6;
  config.tree.features_per_split = 2;
  RandomForest forest(config, 6);
  forest.Fit(x, y, 2);
  EXPECT_GE(forest.Score(x, y), 0.9);
}

TEST(RandomForest, DeterministicInSeed) {
  linalg::Matrix x;
  std::vector<int> y;
  MakeBlobs(40, &x, &y, 7);
  RandomForest a({}, 9);
  RandomForest b({}, 9);
  a.Fit(x, y, 2);
  b.Fit(x, y, 2);
  EXPECT_EQ(a.Predict(x), b.Predict(x));
}

TEST(IntervalForestClassifier, LearnsSeparableSeries) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {16, 16};
  spec.test_counts = {8, 8};
  spec.num_channels = 2;
  spec.length = 40;
  spec.class_separation = 1.4;
  spec.seed = 8;
  const data::TrainTest data = data::MakeSynthetic(spec);
  RandomForest::Config forest;
  forest.num_trees = 40;
  IntervalForestClassifier clf(16, forest, 9);
  TSAUG_CHECK_OK(clf.TryFit(data.train));
  EXPECT_GE(clf.Score(data.test), 0.75);
  EXPECT_EQ(clf.num_features(), 16 * 2 * 3);
}

TEST(IntervalForestClassifier, MulticlassImbalancedRuns) {
  data::SyntheticSpec spec;
  spec.num_classes = 3;
  spec.train_counts = {12, 6, 4};
  spec.test_counts = {4, 3, 3};
  spec.num_channels = 1;
  spec.length = 24;
  spec.seed = 10;
  const data::TrainTest data = data::MakeSynthetic(spec);
  IntervalForestClassifier clf(12, {}, 11);
  TSAUG_CHECK_OK(clf.TryFit(data.train));
  const std::vector<int> predictions = clf.Predict(data.test);
  EXPECT_EQ(predictions.size(), 10u);
  for (int p : predictions) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 3);
  }
}

}  // namespace
}  // namespace tsaug::classify
