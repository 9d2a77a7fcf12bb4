#ifndef TSAUG_CLASSIFY_RANDOM_FOREST_H_
#define TSAUG_CLASSIFY_RANDOM_FOREST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "classify/classifier.h"
#include "core/rng.h"
#include "linalg/matrix.h"

namespace tsaug::classify {

/// A CART decision tree with Gini impurity and per-split random feature
/// subsets — the building block of the interval-forest classifier (and of
/// the forest-based families, TSF/TS-CHIEF, the paper's related work
/// discusses).
class DecisionTree {
 public:
  struct Config {
    int max_depth = 10;
    int min_samples_leaf = 1;
    /// Features examined per split; 0 means floor(sqrt(d)).
    int features_per_split = 0;
  };

  void Fit(const linalg::Matrix& x, const std::vector<int>& labels,
           int num_classes, const Config& config, core::Rng& rng);

  bool fitted() const { return !nodes_.empty(); }

  /// Class distribution at the leaf reached by `row` (size num_classes).
  const std::vector<double>& PredictDistribution(const double* row) const;
  int Predict(const double* row) const;

  int node_count() const { return static_cast<int>(nodes_.size()); }

 private:
  struct Node {
    int feature = -1;  // -1 marks a leaf
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    std::vector<double> distribution;
  };

  int Build(const linalg::Matrix& x, const std::vector<int>& labels,
            std::vector<int>& indices, int begin, int end, int depth,
            const Config& config, core::Rng& rng);

  std::vector<Node> nodes_;
  int num_classes_ = 0;
};

/// Bootstrap-aggregated decision trees with averaged leaf distributions.
class RandomForest {
 public:
  struct Config {
    int num_trees = 100;
    bool bootstrap = true;
    DecisionTree::Config tree;
  };

  RandomForest();  // default configuration, seed 0
  explicit RandomForest(Config config, std::uint64_t seed = 0);

  void Fit(const linalg::Matrix& x, const std::vector<int>& labels,
           int num_classes);
  bool fitted() const { return !trees_.empty(); }

  std::vector<int> Predict(const linalg::Matrix& x) const;
  double Score(const linalg::Matrix& x, const std::vector<int>& labels) const;

 private:
  Config config_;
  std::uint64_t seed_;
  std::vector<DecisionTree> trees_;
  int num_classes_ = 0;
};

/// A time-series-forest-style classifier (Deng et al. / the "interval"
/// family of the bake-off): random intervals are summarised by mean,
/// standard deviation and slope per channel, and a random forest is
/// trained on the resulting feature matrix.
class IntervalForestClassifier : public Classifier {
 public:
  explicit IntervalForestClassifier(int num_intervals = 32,
                                    RandomForest::Config forest = {},
                                    std::uint64_t seed = 0,
                                    bool z_normalize = true);

  std::string name() const override { return "IntervalForest"; }
  [[nodiscard]] core::Status TryFit(const core::Dataset& train) override;
  std::vector<int> Predict(const core::Dataset& test) override;

  int num_features() const;

 private:
  struct Interval {
    int start = 0;
    int length = 0;
  };

  linalg::Matrix ExtractFeatures(const core::Dataset& data) const;

  int num_intervals_;
  RandomForest forest_;
  std::uint64_t seed_;
  bool z_normalize_;
  std::vector<Interval> intervals_;
  int train_length_ = 0;
  int channels_ = 0;
};

}  // namespace tsaug::classify

#endif  // TSAUG_CLASSIFY_RANDOM_FOREST_H_
