#include "classify/random_forest.h"

#include <algorithm>
#include <cmath>

#include "core/preprocess.h"

namespace tsaug::classify {
namespace {

double Gini(const std::vector<int>& counts, int total) {
  if (total == 0) return 0.0;
  double impurity = 1.0;
  for (int c : counts) {
    const double p = static_cast<double>(c) / total;
    impurity -= p * p;
  }
  return impurity;
}

}  // namespace

void DecisionTree::Fit(const linalg::Matrix& x, const std::vector<int>& labels,
                       int num_classes, const Config& config, core::Rng& rng) {
  TSAUG_CHECK(x.rows() == static_cast<int>(labels.size()));
  TSAUG_CHECK(x.rows() >= 1 && num_classes >= 2);
  num_classes_ = num_classes;
  nodes_.clear();
  std::vector<int> indices(static_cast<size_t>(x.rows()));
  for (int i = 0; i < x.rows(); ++i) indices[static_cast<size_t>(i)] = i;
  Build(x, labels, indices, 0, x.rows(), 0, config, rng);
}

int DecisionTree::Build(const linalg::Matrix& x, const std::vector<int>& labels,
                        std::vector<int>& indices, int begin, int end,
                        int depth, const Config& config, core::Rng& rng) {
  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();

  std::vector<int> counts(static_cast<size_t>(num_classes_), 0);
  for (int i = begin; i < end; ++i) ++counts[static_cast<size_t>(labels[static_cast<size_t>(indices[static_cast<size_t>(i)])])];
  const int total = end - begin;
  {
    Node& node = nodes_[static_cast<size_t>(node_index)];
    node.distribution.assign(static_cast<size_t>(num_classes_), 0.0);
    for (int k = 0; k < num_classes_; ++k) {
      node.distribution[static_cast<size_t>(k)] = static_cast<double>(counts[static_cast<size_t>(k)]) / total;
    }
  }

  const double impurity = Gini(counts, total);
  if (depth >= config.max_depth || impurity <= 0.0 ||
      total < 2 * config.min_samples_leaf) {
    return node_index;  // leaf
  }

  const int d = x.cols();
  const int features_to_try =
      config.features_per_split > 0
          ? std::min(config.features_per_split, d)
          : std::max(1, static_cast<int>(std::sqrt(static_cast<double>(d))));
  const std::vector<int> candidate_features =
      rng.SampleWithoutReplacement(d, features_to_try);

  double best_gain = 1e-12;
  int best_feature = -1;
  double best_threshold = 0.0;
  std::vector<double> values(static_cast<size_t>(total));
  for (int feature : candidate_features) {
    for (int i = 0; i < total; ++i) values[static_cast<size_t>(i)] = x(indices[static_cast<size_t>(begin + i)], feature);
    std::vector<int> order(static_cast<size_t>(total));
    for (int i = 0; i < total; ++i) order[static_cast<size_t>(i)] = i;
    std::sort(order.begin(), order.end(),
              [&](int a, int b) { return values[static_cast<size_t>(a)] < values[static_cast<size_t>(b)]; });

    std::vector<int> left_counts(static_cast<size_t>(num_classes_), 0);
    std::vector<int> right_counts = counts;
    for (int split = 1; split < total; ++split) {
      const int moved = labels[static_cast<size_t>(indices[static_cast<size_t>(begin + order[static_cast<size_t>(split - 1)])])];
      ++left_counts[static_cast<size_t>(moved)];
      --right_counts[static_cast<size_t>(moved)];
      if (values[static_cast<size_t>(order[static_cast<size_t>(split)])] == values[static_cast<size_t>(order[static_cast<size_t>(split - 1)])]) continue;
      if (split < config.min_samples_leaf ||
          total - split < config.min_samples_leaf) {
        continue;
      }
      const double gain =
          impurity -
          (static_cast<double>(split) / total) * Gini(left_counts, split) -
          (static_cast<double>(total - split) / total) *
              Gini(right_counts, total - split);
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = feature;
        best_threshold =
            0.5 * (values[static_cast<size_t>(order[static_cast<size_t>(split)])] + values[static_cast<size_t>(order[static_cast<size_t>(split - 1)])]);
      }
    }
  }
  if (best_feature < 0) return node_index;  // no useful split

  // Partition [begin, end) in place.
  const auto middle = std::partition(
      indices.begin() + begin, indices.begin() + end,
      [&](int i) { return x(i, best_feature) <= best_threshold; });
  const int split_point = static_cast<int>(middle - indices.begin());
  if (split_point == begin || split_point == end) return node_index;

  const int left =
      Build(x, labels, indices, begin, split_point, depth + 1, config, rng);
  const int right =
      Build(x, labels, indices, split_point, end, depth + 1, config, rng);
  Node& node = nodes_[static_cast<size_t>(node_index)];  // re-fetch: vector may have grown
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.left = left;
  node.right = right;
  return node_index;
}

const std::vector<double>& DecisionTree::PredictDistribution(
    const double* row) const {
  TSAUG_CHECK(fitted());
  int current = 0;
  while (nodes_[static_cast<size_t>(current)].feature >= 0) {
    current = row[nodes_[static_cast<size_t>(current)].feature] <= nodes_[static_cast<size_t>(current)].threshold
                  ? nodes_[static_cast<size_t>(current)].left
                  : nodes_[static_cast<size_t>(current)].right;
  }
  return nodes_[static_cast<size_t>(current)].distribution;
}

int DecisionTree::Predict(const double* row) const {
  const std::vector<double>& distribution = PredictDistribution(row);
  return static_cast<int>(
      std::max_element(distribution.begin(), distribution.end()) -
      distribution.begin());
}

RandomForest::RandomForest() : RandomForest(Config(), 0) {}

RandomForest::RandomForest(Config config, std::uint64_t seed)
    : config_(std::move(config)), seed_(seed) {
  TSAUG_CHECK(config_.num_trees >= 1);
}

void RandomForest::Fit(const linalg::Matrix& x, const std::vector<int>& labels,
                       int num_classes) {
  TSAUG_CHECK(x.rows() == static_cast<int>(labels.size()));
  num_classes_ = num_classes;
  trees_.assign(static_cast<size_t>(config_.num_trees), DecisionTree());
  core::Rng rng(seed_ ^ 0xf02e57ull);
  for (DecisionTree& tree : trees_) {
    if (config_.bootstrap) {
      linalg::Matrix sample_x(x.rows(), x.cols());
      std::vector<int> sample_y(static_cast<size_t>(x.rows()));
      for (int i = 0; i < x.rows(); ++i) {
        const int pick = rng.Index(x.rows());
        sample_x.SetRow(i, x.Row(pick));
        sample_y[static_cast<size_t>(i)] = labels[static_cast<size_t>(pick)];
      }
      tree.Fit(sample_x, sample_y, num_classes, config_.tree, rng);
    } else {
      tree.Fit(x, labels, num_classes, config_.tree, rng);
    }
  }
}

std::vector<int> RandomForest::Predict(const linalg::Matrix& x) const {
  TSAUG_CHECK(fitted());
  std::vector<int> predictions(static_cast<size_t>(x.rows()));
  for (int i = 0; i < x.rows(); ++i) {
    std::vector<double> votes(static_cast<size_t>(num_classes_), 0.0);
    for (const DecisionTree& tree : trees_) {
      const std::vector<double>& distribution =
          tree.PredictDistribution(x.row_data(i));
      for (int k = 0; k < num_classes_; ++k) votes[static_cast<size_t>(k)] += distribution[static_cast<size_t>(k)];
    }
    predictions[static_cast<size_t>(i)] = static_cast<int>(
        std::max_element(votes.begin(), votes.end()) - votes.begin());
  }
  return predictions;
}

double RandomForest::Score(const linalg::Matrix& x,
                           const std::vector<int>& labels) const {
  return Accuracy(Predict(x), labels);
}

IntervalForestClassifier::IntervalForestClassifier(int num_intervals,
                                                   RandomForest::Config forest,
                                                   std::uint64_t seed,
                                                   bool z_normalize)
    : num_intervals_(num_intervals), forest_(forest, seed), seed_(seed),
      z_normalize_(z_normalize) {
  TSAUG_CHECK(num_intervals >= 1);
}

int IntervalForestClassifier::num_features() const {
  return static_cast<int>(intervals_.size()) * channels_ * 3;
}

linalg::Matrix IntervalForestClassifier::ExtractFeatures(
    const core::Dataset& data) const {
  const nn::Tensor x = DatasetToTensor(data, train_length_, z_normalize_);
  linalg::Matrix features(data.size(), num_features());
  for (int i = 0; i < data.size(); ++i) {
    int column = 0;
    for (const Interval& interval : intervals_) {
      for (int c = 0; c < channels_; ++c) {
        // Mean, stddev and least-squares slope over the interval.
        double mean = 0.0;
        for (int t = 0; t < interval.length; ++t) {
          mean += x.at(i, c, interval.start + t);
        }
        mean /= interval.length;
        double var = 0.0;
        double slope_num = 0.0;
        double slope_den = 0.0;
        const double t_mean = (interval.length - 1) / 2.0;
        for (int t = 0; t < interval.length; ++t) {
          const double v = x.at(i, c, interval.start + t);
          var += (v - mean) * (v - mean);
          slope_num += (t - t_mean) * (v - mean);
          slope_den += (t - t_mean) * (t - t_mean);
        }
        features(i, column++) = mean;
        features(i, column++) = std::sqrt(var / interval.length);
        features(i, column++) = slope_den > 0.0 ? slope_num / slope_den : 0.0;
      }
    }
  }
  return features;
}

core::Status IntervalForestClassifier::TryFit(const core::Dataset& train) {
  TSAUG_CHECK(!train.empty());
  train_length_ = train.max_length();
  channels_ = train.num_channels();

  // Random intervals of length >= 3 (TSF's minimum).
  core::Rng rng(seed_ ^ 0x1f7e3ull);
  intervals_.clear();
  for (int k = 0; k < num_intervals_; ++k) {
    Interval interval;
    interval.length = rng.Int(std::min(3, train_length_),
                              std::max(3, train_length_ / 2));
    interval.length = std::min(interval.length, train_length_);
    interval.start = rng.Index(train_length_ - interval.length + 1);
    intervals_.push_back(interval);
  }

  forest_.Fit(ExtractFeatures(train), train.labels(), train.num_classes());
  return core::OkStatus();
}

std::vector<int> IntervalForestClassifier::Predict(const core::Dataset& test) {
  TSAUG_CHECK(forest_.fitted());
  return forest_.Predict(ExtractFeatures(test));
}

}  // namespace tsaug::classify
