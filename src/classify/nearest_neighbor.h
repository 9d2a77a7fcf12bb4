#ifndef TSAUG_CLASSIFY_NEAREST_NEIGHBOR_H_
#define TSAUG_CLASSIFY_NEAREST_NEIGHBOR_H_

#include <string>
#include <vector>

#include "classify/classifier.h"

namespace tsaug::classify {

/// Distance used by the nearest-neighbour classifier.
enum class NnDistance {
  kEuclidean,
  kDtw,  // dependent multivariate DTW with optional Sakoe-Chiba band
};

/// k-nearest-neighbour time-series classifier, the classic "bake-off"
/// baseline (1-NN DTW). Not part of the paper's tables but useful as a
/// sanity baseline and heavily used in the examples.
class KnnClassifier : public Classifier {
 public:
  explicit KnnClassifier(int k = 1, NnDistance distance = NnDistance::kDtw,
                         int dtw_window = -1, bool z_normalize = true);

  std::string name() const override;
  [[nodiscard]] core::Status TryFit(const core::Dataset& train) override;
  std::vector<int> Predict(const core::Dataset& test) override;

 private:
  int k_;
  NnDistance distance_;
  int dtw_window_;
  bool z_normalize_;
  core::Dataset train_;
};

}  // namespace tsaug::classify

#endif  // TSAUG_CLASSIFY_NEAREST_NEIGHBOR_H_
