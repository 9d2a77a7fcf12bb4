// The grid workloads: one full study through eval::RunShardedStudy per
// measured repetition (untraced), and a traced replay that re-executes the
// same study cell by cell through the layers' public functions, recording
// a span around each call. The replay must reproduce the untraced
// canonical report byte for byte, which proves both runs did the same work.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "augment/augmenter.h"
#include "classify/classifier.h"
#include "classify/inception_time.h"
#include "classify/rocket.h"
#include "common.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/validate.h"
#include "data/uea_catalog.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "eval/shard.h"
#include "linalg/ridge.h"
#include "spans.h"

namespace gridbench {
namespace {

using tsaug::augment::Augmenter;
using tsaug::core::Dataset;
using tsaug::core::Status;
using tsaug::eval::ExperimentConfig;
using tsaug::eval::ModelKind;

/// Sizes of one grid workload. Every workload runs one run per cell at the
/// tiny scale preset; see README.md for why each exists.
struct GridSpec {
  ModelKind model = ModelKind::kRocket;
  int inception_epochs = 40;
  int timegan_iterations = 60;
  std::vector<std::string> techniques;  // empty = all five paper techniques
};

const std::vector<std::string> kNoTimeGan = {"noise_1.0", "noise_3.0",
                                             "noise_5.0", "smote"};

bool LookupSpec(const std::string& workload, GridSpec* spec) {
  if (workload == "table4_paper") {
    spec->timegan_iterations = 5;
  } else if (workload == "inception_grid") {
    spec->model = ModelKind::kInceptionTime;
    spec->inception_epochs = 15;
    spec->techniques = kNoTimeGan;
  } else {
    return false;
  }
  return true;
}

tsaug::eval::BenchSettings SettingsFor(const GridSpec& spec,
                                       std::uint64_t seed) {
  tsaug::eval::BenchSettings settings;
  settings.scale = tsaug::data::ScalePreset::kTiny;
  settings.runs = 1;
  settings.inception_epochs = spec.inception_epochs;
  settings.timegan_iterations = spec.timegan_iterations;
  settings.techniques = spec.techniques;
  settings.seed = seed;
  return settings;
}

/// The driver's per-dataset repair seed (eval/experiment.cc): a pure
/// function of (config seed, dataset name).
std::uint64_t RepairSeed(std::uint64_t seed, const std::string& name) {
  for (char ch : name) {
    seed = seed * 1099511628211ull + static_cast<unsigned char>(ch);
  }
  return seed;
}

tsaug::core::ValidateOptions PreflightOptions() {
  tsaug::core::ValidateOptions options;
  options.min_length = 2;
  return options;
}

/// The generated inputs of one grid study.
struct GridInputs {
  std::vector<std::string> names;
  std::vector<tsaug::data::TrainTest> datasets;
  std::vector<std::shared_ptr<Augmenter>> techniques;
  ExperimentConfig config;
  /// Datasets the preflight had to repair or rejected (expected 0).
  int unhealthy = 0;
};

/// One set-up: generate every dataset, preflight it, build the paper
/// techniques and the config, and wake the thread pool. With `spans`, each
/// dataset's generation and preflight is recorded under `parent`.
GridInputs SetUp(const tsaug::eval::BenchSettings& settings, ModelKind model,
                 SpanRecorder* spans, std::uint64_t parent) {
  GridInputs in;
  in.names = settings.datasets;
  if (in.names.empty()) {
    for (const auto& info : tsaug::data::UeaImbalancedCatalog()) {
      in.names.push_back(info.name);
    }
  }
  for (const std::string& name : in.names) {
    std::uint64_t id = 0;
    if (spans != nullptr) id = spans->Begin("data.generate", parent, name);
    in.datasets.push_back(
        tsaug::data::MakeUeaLikeDataset(name, settings.scale, settings.seed));
    if (spans != nullptr) {
      spans->End(id);
      id = spans->Begin("core.preflight", parent, name);
    }
    const auto& data = in.datasets.back();
    const auto repaired = tsaug::core::TryRepairTrainTest(
        data.train, data.test, PreflightOptions(),
        RepairSeed(settings.seed, name));
    const bool healthy = repaired.ok() && !repaired->repaired;
    if (!healthy) ++in.unhealthy;
    if (spans != nullptr) spans->End(id, !healthy);
  }
  in.techniques = tsaug::eval::MakePaperTechniques(settings);
  in.config = tsaug::eval::MakeExperimentConfig(settings, model);
  // The first call spawns the pool; later set-ups only wake it.
  tsaug::core::ParallelFor(0, tsaug::core::GetNumThreads(), 1,
                           [](std::int64_t, std::int64_t) {});
  return in;
}

std::int64_t CellsPerStudy(const GridInputs& in) {
  return static_cast<std::int64_t>(in.names.size()) * in.config.runs *
         static_cast<std::int64_t>(in.techniques.size() + 1);
}

/// Failed (dataset, run, cell) operations in a study: failed runs, runs of
/// a NaN cell, and every cell of a dataset the study never reached.
std::int64_t FailedCells(const GridInputs& in,
                         const tsaug::eval::StudyResult& result) {
  const int runs = in.config.runs;
  std::int64_t failed = 0;
  auto count = [&](double accuracy, int failed_runs) {
    failed += std::isfinite(accuracy) ? failed_runs : runs;
  };
  for (const auto& row : result.rows) {
    count(row.baseline_accuracy, row.baseline_failed_runs);
    for (const auto& cell : row.cells) count(cell.accuracy, cell.failed_runs);
  }
  const std::int64_t missing =
      static_cast<std::int64_t>(in.names.size()) -
      static_cast<std::int64_t>(result.rows.size());
  failed += missing * runs * static_cast<std::int64_t>(in.techniques.size() + 1);
  return failed;
}

struct StudyRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Latency of each dataset row, in hand-over order.
  std::vector<double> row_s;
  std::string canonical;  // "" when the study or the report write failed
  std::int64_t failed_cells = 0;
};

std::string CanonicalBytes(const tsaug::eval::StudyResult& result,
                           const std::string& path) {
  if (!tsaug::eval::WriteCanonicalReport(result, path).ok()) return "";
  return ReadFile(path);
}

/// Row latencies from the loader's hand-over times: a thread that asks for
/// a dataset works on that row until it asks for its next dataset, and its
/// last row ends with the study. This holds for the serial driver and for
/// one that runs rows on pool threads.
std::vector<double> RowSeconds(
    std::vector<std::pair<std::thread::id, double>> handovers, double end) {
  std::stable_sort(handovers.begin(), handovers.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<double> rows;
  for (size_t i = 0; i < handovers.size(); ++i) {
    const bool last = i + 1 == handovers.size() ||
                      handovers[i + 1].first != handovers[i].first;
    rows.push_back((last ? end : handovers[i + 1].second) -
                   handovers[i].second);
  }
  return rows;
}

/// One full study through the grid driver the table benches use. The
/// loader hands over the pre-generated inputs and notes when; the driver
/// owns the loop over datasets.
StudyRun RunStudy(const GridInputs& in, const std::string& canonical_path) {
  std::mutex mutex;
  std::vector<std::pair<std::thread::id, double>> handovers;
  const tsaug::eval::DatasetLoader loader = [&](const std::string& name) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      handovers.emplace_back(std::this_thread::get_id(), NowSeconds());
    }
    for (size_t i = 0; i < in.names.size(); ++i) {
      if (in.names[i] == name) return in.datasets[i];
    }
    return tsaug::data::TrainTest{};
  };
  StudyRun run;
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  auto result = tsaug::eval::RunShardedStudy(in.names, loader, in.techniques,
                                             in.config);
  const double t1 = NowSeconds();
  run.wall_s = t1 - t0;
  run.cpu_s = ProcessCpuSeconds() - cpu0;
  run.row_s = RowSeconds(std::move(handovers), t1);
  if (!result.ok()) {
    std::fprintf(stderr, "gridbench: study failed: %s\n",
                 result.status().ToString().c_str());
    run.failed_cells = CellsPerStudy(in);
    return run;
  }
  run.failed_cells = FailedCells(in, *result);
  run.canonical = CanonicalBytes(*result, canonical_path);
  return run;
}

// ---------------------------------------------------------------------------
// Traced replay.

struct CellOutcome {
  double accuracy = 0.0;
  int retries = 0;
  int epochs = 0;
  Status status;
};

/// ROCKET composed from its public parts (DatasetToTensor, RocketTransform,
/// RidgeClassifierCV), so transform and ridge LOOCV get their own spans.
/// Mirrors classify::RocketClassifier::TryFit/Predict step for step.
CellOutcome RocketCell(const ExperimentConfig& config, const Dataset& train,
                       const Dataset& test, std::uint64_t seed,
                       SpanRecorder& spans, std::uint64_t parent,
                       const std::string& key) {
  CellOutcome out;
  tsaug::classify::RocketTransform transform(config.rocket_kernels, seed);
  tsaug::linalg::RidgeClassifierCV ridge;
  const int length = train.max_length();
  {
    ScopedSpan fit(spans, "classify.rocket.fit", parent, key);
    const auto x = tsaug::classify::DatasetToTensor(train, length, true);
    tsaug::linalg::Matrix features;
    {
      ScopedSpan span(spans, "rocket.transform", fit.id(), key);
      transform.Fit(train.num_channels(), length);
      features = transform.Transform(x);
    }
    ScopedSpan span(spans, "ridge.loocv", fit.id(), key);
    out.status = ridge.TryFit(features, train.labels(), train.num_classes());
    if (!out.status.ok()) {
      out.status.AddContext("rocket");
      span.MarkFailed();
      fit.MarkFailed();
      return out;
    }
  }
  ScopedSpan score(spans, "classify.rocket.score", parent, key);
  const auto x = tsaug::classify::DatasetToTensor(test, length, true);
  tsaug::linalg::Matrix features;
  {
    ScopedSpan span(spans, "rocket.transform", score.id(), key);
    features = transform.Transform(x);
  }
  out.accuracy =
      tsaug::classify::Accuracy(ridge.Predict(features), test.labels());
  out.retries = ridge.solve_retries() + (ridge.loocv_fell_back() ? 1 : 0);
  return out;
}

CellOutcome InceptionCell(const ExperimentConfig& config, const Dataset& train,
                          const Dataset& validation, const Dataset& test,
                          std::uint64_t seed, SpanRecorder& spans,
                          std::uint64_t parent, const std::string& key) {
  CellOutcome out;
  if (validation.empty()) {
    out.status = tsaug::core::DegenerateInputError(
        "train_and_score: empty validation split (InceptionTime requires "
        "one)");
    return out;
  }
  tsaug::classify::InceptionTimeClassifier model(config.inception, seed);
  {
    ScopedSpan fit(spans, "classify.inception.fit", parent, key);
    out.status = model.TryFitWithValidation(train, validation);
    if (!out.status.ok()) {
      fit.MarkFailed();
      return out;
    }
  }
  ScopedSpan score(spans, "classify.inception.score", parent, key);
  out.accuracy = model.Score(test);
  for (const auto& result : model.train_results()) {
    out.retries += result.divergence_retries;
    out.epochs += result.epochs_run;
  }
  return out;
}

/// Counters the replay accumulates besides its spans.
struct ReplayCounts {
  std::map<std::string, std::int64_t> samples;  // per technique
  std::int64_t epochs = 0;
  std::int64_t rocket_retries = 0;
  std::int64_t inception_retries = 0;
  std::int64_t cells = 0;
  std::int64_t cells_failed = 0;
};

/// Re-executes the driver's per-dataset grid (eval/experiment.cc,
/// RunGridAgainstJournal without journal, shards or budgets): preflight,
/// a serial augmentation phase, then a parallel training phase over the
/// cells, folded into a DatasetRow the same way.
tsaug::eval::StudyResult Replay(const GridInputs& in, SpanRecorder& spans,
                                std::uint64_t root, ReplayCounts& counts) {
  const ExperimentConfig& config = in.config;
  tsaug::eval::StudyResult study;
  study.model = config.model;
  const size_t num_cells = in.techniques.size() + 1;
  for (size_t d = 0; d < in.names.size(); ++d) {
    const std::string& name = in.names[d];
    const auto& data = in.datasets[d];
    ScopedSpan row_span(spans, "eval.row", root, name);
    tsaug::eval::DatasetRow row;
    row.dataset = name;
    for (const auto& technique : in.techniques) {
      row.cells.emplace_back(technique->name(), 0.0);
    }
    std::vector<double> score_sum(num_cells, 0.0);
    std::vector<int> ok_runs(num_cells, 0);

    Status preflight_fatal;
    const Dataset* train_set = &data.train;
    const Dataset* test_set = &data.test;
    tsaug::core::StatusOr<tsaug::core::RepairOutcome> preflight =
        tsaug::core::TryRepairTrainTest(data.train, data.test,
                                        PreflightOptions(),
                                        RepairSeed(config.seed, name));
    {
      ScopedSpan span(spans, "core.preflight", row_span.id(), name);
      if (!preflight.ok()) {
        preflight_fatal = preflight.status();
        preflight_fatal.AddContext("preflight(" + name + ")");
        span.MarkFailed();
      } else if (preflight->repaired) {
        train_set = &preflight->train;
        test_set = &preflight->test;
      }
    }

    for (int run = 0; run < config.runs; ++run) {
      const std::string run_key = name + "/run" + std::to_string(run);
      const std::uint64_t run_seed =
          config.seed + 7919ull * static_cast<unsigned long long>(run + 1);
      tsaug::core::Rng rng(run_seed);
      Dataset train_part = *train_set;
      Dataset validation;
      if (config.model == ModelKind::kInceptionTime && preflight_fatal.ok()) {
        auto split = train_set->StratifiedSplit(
            1.0 - config.inception.validation_fraction, rng);
        train_part = std::move(split.first);
        validation = std::move(split.second);
      }

      std::vector<Dataset> cell_train(num_cells, train_part);
      std::vector<Status> cell_status(num_cells, preflight_fatal);
      {
        ScopedSpan phase(spans, "eval.aug_phase", row_span.id(), run_key);
        for (size_t i = 0; i < in.techniques.size() && preflight_fatal.ok();
             ++i) {
          Augmenter& technique = *in.techniques[i];
          technique.Invalidate();
          const std::string key = run_key + "/cell" + std::to_string(i + 1);
          ScopedSpan span(spans, "augment." + technique.name(), phase.id(),
                          key);
          tsaug::core::Rng aug_rng(run_seed ^ (0xabcdull + i));
          auto augmented = tsaug::augment::TryBalanceWithAugmenter(
              train_part, technique, aug_rng);
          if (augmented.ok() &&
              augmented.value().size() == train_part.size()) {
            augmented = tsaug::augment::TryExpandWithAugmenter(
                train_part, technique, 0.5, aug_rng);
          }
          if (augmented.ok()) {
            counts.samples[technique.name()] +=
                augmented.value().size() - train_part.size();
            cell_train[i + 1] = std::move(augmented).value();
          } else {
            cell_status[i + 1] = augmented.status();
            span.MarkFailed();
          }
        }
      }

      std::vector<CellOutcome> outcomes(num_cells);
      {
        ScopedSpan phase(spans, "eval.train_phase", row_span.id(), run_key);
        const std::uint64_t phase_id = phase.id();
        // Each worker writes only its own cell's slot of `outcomes`; the
        // fold below runs in fixed cell order, as in the driver.
        tsaug::core::ParallelFor(
            0, static_cast<std::int64_t>(num_cells), 1,
            [&](std::int64_t lo, std::int64_t hi) {
              for (std::int64_t cell = lo; cell < hi; ++cell) {
                const size_t c = static_cast<size_t>(cell);
                if (!cell_status[c].ok()) continue;
                const std::string key = run_key + "/cell" + std::to_string(c);
                ScopedSpan span(spans, "eval.cell", phase_id, key);
                outcomes[c] =
                    config.model == ModelKind::kRocket
                        ? RocketCell(config, cell_train[c], *test_set,
                                     run_seed, spans, span.id(), key)
                        : InceptionCell(config, cell_train[c], validation,
                                        *test_set, run_seed, spans, span.id(),
                                        key);
                if (!outcomes[c].status.ok()) span.MarkFailed();
              }
            });
      }

      for (size_t c = 0; c < num_cells; ++c) {
        ++counts.cells;
        if (cell_status[c].ok()) cell_status[c] = outcomes[c].status;
        const bool ok = cell_status[c].ok();
        if (!ok) ++counts.cells_failed;
        counts.epochs += outcomes[c].epochs;
        (config.model == ModelKind::kRocket ? counts.rocket_retries
                                            : counts.inception_retries) +=
            outcomes[c].retries;
        if (c == 0) {
          if (ok) {
            score_sum[0] += outcomes[0].accuracy;
            ++ok_runs[0];
            row.baseline_retries += outcomes[0].retries;
          } else {
            ++row.baseline_failed_runs;
            row.baseline_error = cell_status[0];
          }
          continue;
        }
        auto& cell = row.cells[c - 1];
        if (ok) {
          score_sum[c] += outcomes[c].accuracy;
          ++ok_runs[c];
          cell.recovered_retries += outcomes[c].retries;
        } else {
          ++cell.failed_runs;
          cell.last_error = cell_status[c];
        }
      }
    }
    const double nan = std::nan("");
    row.baseline_accuracy = ok_runs[0] > 0 ? score_sum[0] / ok_runs[0] : nan;
    for (size_t i = 0; i + 1 < num_cells; ++i) {
      row.cells[i].accuracy =
          ok_runs[i + 1] > 0 ? score_sum[i + 1] / ok_runs[i + 1] : nan;
    }
    study.rows.push_back(std::move(row));
  }
  return study;
}

// ---------------------------------------------------------------------------
// Per-layer table.

/// The spans of `root`'s subtree (parents precede children).
std::vector<Span> SubtreeSpans(const std::vector<Span>& spans,
                               std::uint64_t root) {
  std::vector<char> inside(spans.size() + 1, 0);
  inside[root] = 1;
  std::vector<Span> kept;
  for (const Span& span : spans) {
    if (span.parent != 0 && inside[span.parent]) inside[span.id] = 1;
    if (inside[span.id]) kept.push_back(span);
  }
  return kept;
}

/// The grid's per-layer metrics from the replay's spans (the subtree of
/// `root`) and its counters.
void AddReplayLayers(const std::vector<Span>& all, std::uint64_t root,
                     const ReplayCounts& counts, RunResult& out) {
  const std::vector<Span> spans = SubtreeSpans(all, root);
  const std::map<std::string, LayerStats> layers = LayerTable(spans);
  auto stats = [&](const std::string& name) {
    const auto it = layers.find(name);
    return it != layers.end() ? it->second : LayerStats{};
  };
  for (const char* technique :
       {"noise_1.0", "noise_3.0", "noise_5.0", "smote", "timegan"}) {
    const std::string name = std::string("augment.") + technique;
    const LayerStats augment = stats(name);
    const auto samples = counts.samples.find(technique);
    out.Add(name + ".busy_s", augment.busy_s, "s");
    out.Add(name + ".calls", static_cast<double>(augment.calls), "count");
    out.Add(name + ".samples",
            samples != counts.samples.end()
                ? static_cast<double>(samples->second)
                : 0.0,
            "count");
    out.Add(name + ".failed", static_cast<double>(augment.failed), "count");
  }
  out.Add("classify.rocket.fit_s", stats("classify.rocket.fit").busy_s, "s");
  out.Add("classify.rocket.score_s", stats("classify.rocket.score").busy_s,
          "s");
  out.Add("classify.rocket.retries",
          static_cast<double>(counts.rocket_retries), "count");
  out.Add("rocket.transform_s", stats("rocket.transform").busy_s, "s");
  out.Add("ridge.loocv_s", stats("ridge.loocv").busy_s, "s");
  const double inception_fit = stats("classify.inception.fit").busy_s;
  const double epochs = static_cast<double>(counts.epochs);
  out.Add("classify.inception.fit_s", inception_fit, "s");
  out.Add("classify.inception.score_s",
          stats("classify.inception.score").busy_s, "s");
  out.Add("classify.inception.epochs", epochs, "count");
  out.Add("classify.inception.s_per_epoch",
          epochs > 0 ? inception_fit / epochs : 0.0, "s");
  out.Add("classify.inception.retries",
          static_cast<double>(counts.inception_retries), "count");
  out.Add("eval.aug_phase_s", stats("eval.aug_phase").busy_s, "s");
  out.Add("eval.train_phase_s", stats("eval.train_phase").busy_s, "s");

  // Row times, and the longest serial chain if every row ran at once:
  // preflight, the serial augmentation phases, and each run's slowest cell.
  std::vector<double> row_s;
  std::map<std::uint64_t, double> chain;          // row id -> chain seconds
  std::map<std::uint64_t, double> slowest;        // train phase -> max cell
  std::map<std::uint64_t, std::uint64_t> row_of;  // phase id -> row id
  for (const Span& span : spans) {
    const double seconds =
        static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    if (span.name == "eval.row") {
      row_s.push_back(seconds);
      chain[span.id] = 0.0;
    } else if (span.name == "core.preflight" ||
               span.name == "eval.aug_phase") {
      chain[span.parent] += seconds;
    } else if (span.name == "eval.train_phase") {
      row_of[span.id] = span.parent;
    } else if (span.name == "eval.cell") {
      slowest[span.parent] = std::max(slowest[span.parent], seconds);
    }
  }
  for (const auto& [phase, seconds] : slowest) chain[row_of[phase]] += seconds;
  double critical = 0.0;
  for (const auto& [row, seconds] : chain) critical = std::max(critical, seconds);
  double work = 0.0;
  for (const auto& [name, layer] : layers) work += layer.self_s;
  out.Add("eval.row_p50_s", Median(row_s), "s");
  out.Add("eval.row_max_s", Quantile(row_s, 1.0), "s");
  out.Add("eval.cells", static_cast<double>(counts.cells), "count");
  out.Add("eval.cells_failed", static_cast<double>(counts.cells_failed),
          "count");
  out.Add("grid.work_s", work, "s");
  out.Add("grid.critical_path_s", critical, "s");
}

std::string Describe(const GridInputs& in) {
  return std::to_string(in.names.size()) + " datasets x " +
         std::to_string(in.config.runs) + " run x " +
         std::to_string(in.techniques.size() + 1) + " cells";
}

}  // namespace

bool IsGridWorkload(const std::string& name) {
  GridSpec spec;
  return LookupSpec(name, &spec);
}

RunResult RunGridWorkload(const RunOptions& options) {
  GridSpec spec;
  LookupSpec(options.workload, &spec);
  const auto settings = SettingsFor(spec, options.seed);
  const std::string stem = options.out_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed);
  RunResult out;
  SpanRecorder spans;
  constexpr int kSetups = 50;

  // Set-up, repeated; the last one's inputs are measured.
  std::vector<double> setup_s;
  GridInputs in;
  const std::uint64_t setup_root =
      options.trace ? spans.Begin("setup", 0, options.workload) : 0;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = NowSeconds();
    in = SetUp(settings, spec.model, options.trace ? &spans : nullptr,
               setup_root);
    setup_s.push_back(NowSeconds() - t0);
  }
  if (options.trace) spans.End(setup_root);
  std::printf("inputs: %s, seed %llu, %d unhealthy dataset(s)\n",
              Describe(in).c_str(),
              static_cast<unsigned long long>(options.seed), in.unhealthy);
  if (in.unhealthy > 0) out.correct = false;

  // The first study warms the allocator, caches and pool; its report is
  // checked but its times are not used. Untraced runs then repeat studies
  // until --seconds (warm-up included) is used, at least one more. A
  // traced run brackets its replay with one untraced study on each side,
  // so the overhead ratio is not a warm-up effect.
  std::vector<StudyRun> studies;
  auto run_study = [&] {
    studies.push_back(RunStudy(in, stem + ".canon"));
    std::printf("study %zu: wall %.4f s, cpu %.4f s, failed cells %lld\n",
                studies.size(), studies.back().wall_s, studies.back().cpu_s,
                static_cast<long long>(studies.back().failed_cells));
  };
  const double start = NowSeconds();
  run_study();
  do {
    run_study();
  } while (!options.trace && NowSeconds() - start < options.seconds);
  ReplayCounts counts;
  tsaug::eval::StudyResult replayed;
  std::uint64_t root = 0;
  double replay_wall = 0.0;
  if (options.trace) {
    root = spans.Begin("eval.study", 0, options.workload);
    const double t0 = NowSeconds();
    replayed = Replay(in, spans, root, counts);
    replay_wall = NowSeconds() - t0;
    spans.End(root);
    run_study();
  }

  // Output checks: every study must produce the same canonical report, and
  // it must match the pinned digest when one exists for this seed.
  const std::int64_t cells = CellsPerStudy(in);
  const std::string digest = Digest(studies.front().canonical);
  for (const StudyRun& study : studies) {
    out.attempted += cells;
    const bool same = !study.canonical.empty() &&
                      study.canonical == studies.front().canonical;
    const bool pinned =
        options.expect_digest.empty() || options.expect_digest == digest;
    out.failed += same && pinned ? study.failed_cells : cells;
  }
  std::printf("canonical report digest %s (%s)\n", digest.c_str(),
              options.expect_digest.empty()
                  ? "no pinned digest for this seed"
                  : (options.expect_digest == digest ? "matches pinned"
                                                     : "MISMATCH"));

  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> row_s;
  for (size_t i = 1; i < studies.size(); ++i) {
    wall_s.push_back(studies[i].wall_s);
    cpu_s.push_back(studies[i].cpu_s);
    row_s.insert(row_s.end(), studies[i].row_s.begin(),
                 studies[i].row_s.end());
  }
  const double wall = Median(wall_s);

  if (!options.trace) {
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("wall_s", wall, "s");
    out.Add("cpu_s", Median(cpu_s), "s");
    out.Add("peak_rss_mb", PeakRssMb(), "MB");
    out.Add("p50_ms", 1000.0 * Median(row_s), "ms");
    out.Add("p90_ms", 1000.0 * Quantile(row_s, 0.9), "ms");
    std::printf("studies measured: %zu after 1 warm-up; p50_ms/p90_ms from "
                "%zu dataset rows\n",
                wall_s.size(), row_s.size());
    out.correct = out.correct && out.failed == 0;
    return out;
  }

  // The traced replay must reproduce the untraced report.
  const std::string replay_canonical =
      CanonicalBytes(replayed, stem + ".replay.canon");
  const bool reproduced = !replay_canonical.empty() &&
                          replay_canonical == studies.front().canonical;
  std::printf("traced replay: wall %.4f s, canonical report %s\n",
              replay_wall, reproduced ? "reproduced bit for bit" : "DIFFERS");
  out.attempted += cells;
  out.failed += reproduced ? counts.cells_failed : cells;

  const std::vector<Span> all = spans.Spans();
  // Set-up layers, per set-up.
  auto setup_layers = LayerTable(SubtreeSpans(all, setup_root));
  out.Add("data.generate_s", setup_layers["data.generate"].busy_s / kSetups,
          "s");
  out.Add("core.preflight_s", setup_layers["core.preflight"].busy_s / kSetups,
          "s");
  AddReplayLayers(all, root, counts, out);
  out.Add("grid.cores_busy", Median(cpu_s) / wall, "ratio");
  out.Add("trace_overhead_ratio", replay_wall / wall, "ratio");
  FillMissingPerLayer(out);

  const std::string span_path = stem + ".spans.jsonl";
  if (!spans.WriteJsonLines(span_path)) {
    std::fprintf(stderr, "gridbench: cannot write %s\n", span_path.c_str());
    out.correct = false;
  }
  PrintLayerTable(LayerTable(all));
  std::printf("spans: %zu written to %s\n", all.size(), span_path.c_str());
  out.correct = out.correct && out.failed == 0;
  return out;
}

}  // namespace gridbench
