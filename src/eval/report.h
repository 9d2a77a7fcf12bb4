#ifndef TSAUG_EVAL_REPORT_H_
#define TSAUG_EVAL_REPORT_H_

#include <cstdlib>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/stats.h"
#include "core/status.h"
#include "data/uea_catalog.h"
#include "eval/experiment.h"
#include "eval/shard.h"

namespace tsaug::eval {

/// Prints Table III (dataset properties) in the paper's column order.
void PrintPropertiesTable(const std::vector<core::DatasetProperties>& rows,
                          std::ostream& out);

/// Prints a Table IV/V-style accuracy grid: one row per dataset with the
/// baseline, one column per technique (accuracies in %), the per-dataset
/// best-technique relative improvement, and the average improvement row.
void PrintAccuracyTable(const StudyResult& result, std::ostream& out);

/// Prints Table VI: improvement-occurrence counts per technique family for
/// the two models side by side.
void PrintImprovementCounts(const StudyResult& rocket,
                            const StudyResult& inception, std::ostream& out);

/// Environment-variable knobs shared by the table benches so `bench/*`
/// stays tractable on one core but can be dialed up to paper scale
/// (counts are at least 1; an empty variable counts as unset):
///   TSAUG_SCALE        tiny|small|paper   (default tiny)
///   TSAUG_RUNS         runs per cell      (default 2; paper 5)
///   TSAUG_KERNELS      ROCKET kernels     (default 500; paper 10000)
///   TSAUG_EPOCHS       InceptionTime max epochs (default 40; paper 200)
///   TSAUG_TIMEGAN_ITERS  per-phase cap < 2^30 (default 60; paper 2500)
///   TSAUG_SEED         unsigned 64-bit seed (default 42)
///   TSAUG_DATASETS     comma-separated subset of the suite's datasets
///                      (Table III names; scenario ids for the stress suite)
///   TSAUG_TECHNIQUES   comma-separated subset of the paper's technique
///                      names (noise_1.0, noise_3.0, noise_5.0, smote,
///                      timegan); empty/unset = all five
///   TSAUG_JOURNAL      cell journal path (default off; see eval/journal.h)
///   TSAUG_CELL_BUDGET  per-cell wall budget in [0, 1e9] s (default off)
/// These variables are the only way to shape a grid: the flags of
/// tools/grid_main choose the suite, model and process layout only.
struct BenchSettings {
  data::ScalePreset scale = data::ScalePreset::kTiny;
  int runs = 2;
  int rocket_kernels = 500;
  int inception_epochs = 40;
  int timegan_iterations = 60;
  std::vector<std::string> datasets;    // empty = the whole suite
  std::vector<std::string> techniques;  // empty = all 5 paper techniques
  std::uint64_t seed = 42;
  std::string journal_path;          // empty = journaling off
  double cell_budget_seconds = 0.0;  // 0 = no per-cell deadline
};

/// Reads the TSAUG_* variables through `lookup` (default: the process
/// environment). InvalidArgument naming the variable and value for an
/// unknown scale or a malformed or out-of-range number.
[[nodiscard]] core::StatusOr<BenchSettings> TryReadBenchSettings(
    const std::function<const char*(const char*)>& lookup = std::getenv);

/// The experiment configuration for a table bench under these settings.
ExperimentConfig MakeExperimentConfig(const BenchSettings& settings,
                                      ModelKind model);

/// The paper's five techniques sized to these settings, kept to
/// settings.techniques (in paper order) when that is not empty.
std::vector<std::shared_ptr<augment::Augmenter>> MakePaperTechniques(
    const BenchSettings& settings);

/// A dataset catalog a study can run over. The suite is the only thing
/// that differs between the paper grid and the stress grid: which names
/// exist, how a name becomes a dataset, and the dataset_suite tag folded
/// into the journal fingerprint.
struct StudySuite {
  std::string name;           // "paper" | "stress" (grid_main --suite)
  std::string dataset_suite;  // ExperimentConfig::dataset_suite
  bool rocket_only = false;   // the suite supports only ModelKind::kRocket
  /// Every dataset name, in catalog order.
  std::vector<std::string> (*catalog)() = nullptr;
  /// One-line description of a dataset; nullopt for a name the suite
  /// does not have.
  std::optional<std::string> (*describe)(const std::string& name) = nullptr;
  data::TrainTest (*load)(const std::string& name,
                          const BenchSettings& settings) = nullptr;
};

/// The suite called `name`, or nullptr.
const StudySuite* FindStudySuite(const std::string& name);

/// One study grid ready for RunShardedStudy.
struct StudyPlan {
  std::vector<std::string> names;
  DatasetLoader loader;
  ExperimentConfig config;
  std::vector<std::shared_ptr<augment::Augmenter>> techniques;
};

/// Plans the study of `suite` under `settings`: settings.datasets (the
/// whole catalog when empty), the suite's loader, the model config and the
/// paper techniques. InvalidArgument for an unknown suite, a dataset or
/// technique name the suite does not have, or a model it does not support.
[[nodiscard]] core::StatusOr<StudyPlan> TryPlanStudy(
    const BenchSettings& settings, ModelKind model,
    const std::string& suite = "paper");

/// Runs the paper suite's study grid for one model through
/// RunShardedStudy, printing a progress line per dataset to stderr. With
/// settings.journal_path set, one journal is shared across all datasets,
/// so an interrupted study resumes from wherever it was killed. A stop
/// request (core/cancel.h) ends the study after flushing the current
/// dataset's completed cells; the partial result is marked interrupted.
[[nodiscard]] core::StatusOr<StudyResult> TryRunStudy(
    const BenchSettings& settings, ModelKind model);

}  // namespace tsaug::eval

#endif  // TSAUG_EVAL_REPORT_H_
