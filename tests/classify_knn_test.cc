#include "classify/nearest_neighbor.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"

namespace tsaug::classify {
namespace {

data::TrainTest SmallData(std::uint64_t seed = 1) {
  data::SyntheticSpec spec;
  spec.num_classes = 3;
  spec.train_counts = {8, 8, 8};
  spec.test_counts = {4, 4, 4};
  spec.num_channels = 2;
  spec.length = 24;
  spec.class_separation = 1.5;
  spec.seed = seed;
  return data::MakeSynthetic(spec);
}

TEST(KnnClassifier, NamesReflectConfig) {
  EXPECT_EQ(KnnClassifier(1, NnDistance::kDtw).name(), "1-NN-DTW");
  EXPECT_EQ(KnnClassifier(3, NnDistance::kEuclidean).name(), "3-NN-Euclidean");
}

TEST(KnnClassifier, OneNnDtwClassifiesSeparableData) {
  const data::TrainTest data = SmallData();
  KnnClassifier clf(1, NnDistance::kDtw, /*dtw_window=*/4);
  TSAUG_CHECK_OK(clf.TryFit(data.train));
  EXPECT_GE(clf.Score(data.test), 0.75);
}

TEST(KnnClassifier, EuclideanVariantWorks) {
  const data::TrainTest data = SmallData(2);
  KnnClassifier clf(1, NnDistance::kEuclidean);
  TSAUG_CHECK_OK(clf.TryFit(data.train));
  EXPECT_GE(clf.Score(data.test), 0.7);
}

TEST(KnnClassifier, TrainingInstancePredictsItself) {
  const data::TrainTest data = SmallData(3);
  KnnClassifier clf(1, NnDistance::kEuclidean);
  TSAUG_CHECK_OK(clf.TryFit(data.train));
  EXPECT_DOUBLE_EQ(clf.Score(data.train), 1.0);
}

TEST(KnnClassifier, KThreeMajorityVote) {
  const data::TrainTest data = SmallData(4);
  KnnClassifier clf(3, NnDistance::kEuclidean);
  TSAUG_CHECK_OK(clf.TryFit(data.train));
  const std::vector<int> predictions = clf.Predict(data.test);
  EXPECT_EQ(predictions.size(), 12u);
  for (int p : predictions) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 3);
  }
}

TEST(Accuracy, CountsMatches) {
  EXPECT_DOUBLE_EQ(Accuracy({1, 2, 3}, {1, 2, 0}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(Accuracy({}, {}), 0.0);
}

}  // namespace
}  // namespace tsaug::classify
