// End-to-end determinism of the parallelised hot paths: every public
// result must be bitwise identical for 1, 2 and 8 threads, because
// ParallelFor call sites only partition independent output slices and
// all RNG draws stay in serial setup phases.

#include <vector>

#include <gtest/gtest.h>

#include "augment/noise.h"
#include "augment/oversample.h"
#include "classify/minirocket.h"
#include "classify/nearest_neighbor.h"
#include "classify/rocket.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/trace.h"
#include "eval/experiment.h"
#include "linalg/distance.h"
#include "linalg/knn.h"
#include "linalg/matrix.h"

namespace tsaug {
namespace {

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(core::GetNumThreads()) {}
  ~ThreadCountGuard() { core::SetNumThreads(saved_); }

 private:
  int saved_;
};

const std::vector<int> kThreadCounts = {1, 2, 8};

data::TrainTest SmallData(std::uint64_t seed = 1) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {14, 6};
  spec.test_counts = {6, 6};
  spec.num_channels = 2;
  spec.length = 24;
  spec.class_separation = 1.2;
  spec.seed = seed;
  return data::MakeSynthetic(spec);
}

TEST(ParallelDeterminism, MatMulFamilyBitwiseIdentical) {
  ThreadCountGuard guard;
  core::Rng rng(7);
  linalg::Matrix a(37, 53), b(53, 29);
  for (double& v : a.data()) v = rng.Normal();
  for (double& v : b.data()) v = rng.Normal();
  linalg::Matrix at = a.Transposed();
  linalg::Matrix bt = b.Transposed();
  std::vector<double> x(53);
  for (double& v : x) v = rng.Normal();

  core::SetNumThreads(1);
  const linalg::Matrix ab = linalg::MatMul(a, b);
  const linalg::Matrix ata = linalg::MatMulTransposeA(at, b);
  const linalg::Matrix abt = linalg::MatMulTransposeB(a, bt);
  const std::vector<double> ax = linalg::MatVec(a, x);
  for (int threads : kThreadCounts) {
    core::SetNumThreads(threads);
    EXPECT_EQ(ab, linalg::MatMul(a, b)) << threads << " threads";
    EXPECT_EQ(ata, linalg::MatMulTransposeA(at, b)) << threads << " threads";
    EXPECT_EQ(abt, linalg::MatMulTransposeB(a, bt)) << threads << " threads";
    EXPECT_EQ(ax, linalg::MatVec(a, x)) << threads << " threads";
  }
}

TEST(ParallelDeterminism, RocketTransformAndPredictIdentical) {
  ThreadCountGuard guard;
  const data::TrainTest data = SmallData(3);

  core::SetNumThreads(1);
  classify::RocketTransform reference_transform(150, 11);
  reference_transform.Fit(2, 24);
  const nn::Tensor x = classify::DatasetToTensor(data.test, 24, true);
  const linalg::Matrix reference_features = reference_transform.Transform(x);

  classify::RocketClassifier reference(150, 11);
  TSAUG_CHECK_OK(reference.TryFit(data.train));
  const std::vector<int> reference_predictions = reference.Predict(data.test);

  for (int threads : kThreadCounts) {
    core::SetNumThreads(threads);
    classify::RocketTransform transform(150, 11);
    transform.Fit(2, 24);
    EXPECT_EQ(reference_features, transform.Transform(x))
        << threads << " threads";

    classify::RocketClassifier clf(150, 11);
    TSAUG_CHECK_OK(clf.TryFit(data.train));
    EXPECT_EQ(reference_predictions, clf.Predict(data.test))
        << threads << " threads";
  }
}

TEST(ParallelDeterminism, MiniRocketPredictIdentical) {
  ThreadCountGuard guard;
  const data::TrainTest data = SmallData(5);

  core::SetNumThreads(1);
  classify::MiniRocketClassifier reference(84, 2);
  TSAUG_CHECK_OK(reference.TryFit(data.train));
  const std::vector<int> reference_predictions = reference.Predict(data.test);

  for (int threads : kThreadCounts) {
    core::SetNumThreads(threads);
    classify::MiniRocketClassifier clf(84, 2);
    TSAUG_CHECK_OK(clf.TryFit(data.train));
    EXPECT_EQ(reference_predictions, clf.Predict(data.test))
        << threads << " threads";
  }
}

TEST(ParallelDeterminism, PairwiseDistancesIdentical) {
  ThreadCountGuard guard;
  const data::TrainTest data = SmallData(9);
  std::vector<core::TimeSeries> series;
  std::vector<std::vector<double>> points;
  for (int i = 0; i < data.train.size(); ++i) {
    series.push_back(data.train.series(i));
    points.push_back(data.train.series(i).values());
  }

  core::SetNumThreads(1);
  const std::vector<double> dtw_ref =
      linalg::PairwiseDtwDistances(series, /*window=*/5);
  const std::vector<double> euclid_ref = linalg::PairwiseDistances(points);
  const std::vector<int> snn_ref =
      linalg::SharedNearestNeighborSimilarity(points, 4);

  for (int threads : kThreadCounts) {
    core::SetNumThreads(threads);
    EXPECT_EQ(dtw_ref, linalg::PairwiseDtwDistances(series, 5))
        << threads << " threads";
    EXPECT_EQ(euclid_ref, linalg::PairwiseDistances(points))
        << threads << " threads";
    EXPECT_EQ(snn_ref, linalg::SharedNearestNeighborSimilarity(points, 4))
        << threads << " threads";
  }
}

TEST(ParallelDeterminism, DtwKnnPredictionsIdentical) {
  ThreadCountGuard guard;
  const data::TrainTest data = SmallData(13);

  core::SetNumThreads(1);
  classify::KnnClassifier reference(3, classify::NnDistance::kDtw,
                                    /*dtw_window=*/4);
  TSAUG_CHECK_OK(reference.TryFit(data.train));
  const std::vector<int> reference_predictions = reference.Predict(data.test);

  for (int threads : kThreadCounts) {
    core::SetNumThreads(threads);
    classify::KnnClassifier clf(3, classify::NnDistance::kDtw, 4);
    TSAUG_CHECK_OK(clf.TryFit(data.train));
    EXPECT_EQ(reference_predictions, clf.Predict(data.test))
        << threads << " threads";
  }
}

TEST(ParallelDeterminism, ExperimentGridIdentical) {
  ThreadCountGuard guard;
  const data::TrainTest data = SmallData(2);
  eval::ExperimentConfig config;
  config.model = eval::ModelKind::kRocket;
  config.runs = 2;
  config.rocket_kernels = 80;
  config.seed = 5;

  auto run_grid = [&] {
    // Fresh augmenters per call: they cache per-train-set state.
    std::vector<std::shared_ptr<augment::Augmenter>> techniques = {
        std::make_shared<augment::NoiseInjection>(1.0),
        std::make_shared<augment::Smote>(),
    };
    return eval::TryRunDatasetGrid("toy", data, techniques, config).value();
  };

  core::SetNumThreads(1);
  const eval::DatasetRow reference = run_grid();
  for (int threads : kThreadCounts) {
    core::SetNumThreads(threads);
    const eval::DatasetRow row = run_grid();
    EXPECT_EQ(reference.baseline_accuracy, row.baseline_accuracy)
        << threads << " threads";
    ASSERT_EQ(reference.cells.size(), row.cells.size());
    for (size_t i = 0; i < reference.cells.size(); ++i) {
      EXPECT_EQ(reference.cells[i].accuracy, row.cells[i].accuracy)
          << "cell " << reference.cells[i].technique << ", " << threads
          << " threads";
    }
  }
}

TEST(ParallelDeterminism, TracingEnabledGridIdentical) {
  // Tracing only reads the steady clock — never the RNG — so enabling it
  // must leave every grid cell bitwise identical at any thread count.
  // (CI also runs this whole binary under TSAUG_TRACE=1.)
  ThreadCountGuard thread_guard;
  const bool trace_was_enabled = core::trace::Enabled();
  const data::TrainTest data = SmallData(2);
  eval::ExperimentConfig config;
  config.model = eval::ModelKind::kRocket;
  config.runs = 2;
  config.rocket_kernels = 80;
  config.seed = 5;

  auto run_grid = [&] {
    // Fresh augmenters per call: they cache per-train-set state.
    std::vector<std::shared_ptr<augment::Augmenter>> techniques = {
        std::make_shared<augment::NoiseInjection>(1.0),
        std::make_shared<augment::Smote>(),
    };
    return eval::TryRunDatasetGrid("toy", data, techniques, config).value();
  };

  // Reference row computed with tracing off.
  core::trace::Disable();
  core::SetNumThreads(1);
  const eval::DatasetRow reference = run_grid();

  core::trace::Enable();
  for (int threads : kThreadCounts) {
    core::SetNumThreads(threads);
    const eval::DatasetRow row = run_grid();
    EXPECT_EQ(reference.baseline_accuracy, row.baseline_accuracy)
        << threads << " threads, tracing on";
    ASSERT_EQ(reference.cells.size(), row.cells.size());
    for (size_t i = 0; i < reference.cells.size(); ++i) {
      EXPECT_EQ(reference.cells[i].accuracy, row.cells[i].accuracy)
          << "cell " << reference.cells[i].technique << ", " << threads
          << " threads, tracing on";
    }
  }

  // The traced runs actually recorded something.
  EXPECT_GT(core::trace::CounterValue("eval.cells"), 0);

  if (!trace_was_enabled) core::trace::Disable();
}

}  // namespace
}  // namespace tsaug
