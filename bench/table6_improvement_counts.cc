// Reproduces Table VI: count of improvement occurrences over the baseline
// per technique family (SMOTE / TimeGAN / noise) for both models. Derived
// from the same grids as Tables IV and V.
//
// Paper reference: SMOTE 8/8, TimeGAN 7/4, Noise 7/8 (ROCKET/InceptionTime).
#include <cstdio>
#include <iostream>

#include "eval/report.h"

int main() {
  const auto settings = tsaug::eval::TryReadBenchSettings().value();
  std::cerr << "Running the ROCKET grid...\n";
  const tsaug::core::StatusOr<tsaug::eval::StudyResult> rocket =
      tsaug::eval::TryRunStudy(settings, tsaug::eval::ModelKind::kRocket);
  if (!rocket.ok()) {
    std::fprintf(stderr, "table6_improvement_counts: %s\n",
                 rocket.status().ToString().c_str());
    return 1;
  }
  std::cerr << "Running the InceptionTime grid...\n";
  const tsaug::core::StatusOr<tsaug::eval::StudyResult> inception =
      tsaug::eval::TryRunStudy(settings,
                               tsaug::eval::ModelKind::kInceptionTime);
  if (!inception.ok()) {
    std::fprintf(stderr, "table6_improvement_counts: %s\n",
                 inception.status().ToString().c_str());
    return 1;
  }

  std::cout << "\nTABLE VI: Count of improvement occurrences over baseline\n";
  tsaug::eval::PrintImprovementCounts(*rocket, *inception, std::cout);
  std::cout << "\nPaper reference: SMOTE 8 / 8, TimeGAN 7 / 4, Noise 7 / 8\n";
  return 0;
}
