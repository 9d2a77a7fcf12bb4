#include "eval/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>

#include "augment/pipeline.h"
#include "core/parse.h"
#include "data/scenarios.h"
#include "data/uea_catalog.h"

namespace tsaug::eval {
namespace {

std::string FormatDouble(double v, int precision = 2) {
  // Non-finite means "no successful run produced this number" (all-failed
  // cell, improvement over a failed baseline): print n/a, never "nan".
  if (!std::isfinite(v)) return "n/a";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, v);
  return buffer;
}

void PrintRule(const std::vector<size_t>& widths, std::ostream& out) {
  for (size_t w : widths) {
    out << "+";
    for (size_t i = 0; i < w + 2; ++i) out << "-";
  }
  out << "+\n";
}

void PrintRow(const std::vector<std::string>& cells,
              const std::vector<size_t>& widths, std::ostream& out) {
  for (size_t i = 0; i < cells.size(); ++i) {
    out << "| " << cells[i];
    for (size_t p = cells[i].size(); p < widths[i] + 1; ++p) out << " ";
  }
  out << "|\n";
}

void PrintTable(const std::vector<std::vector<std::string>>& rows,
                std::ostream& out) {
  TSAUG_CHECK(!rows.empty());
  std::vector<size_t> widths(rows[0].size(), 0);
  for (const auto& row : rows) {
    TSAUG_CHECK(row.size() == widths.size());
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  PrintRule(widths, out);
  PrintRow(rows[0], widths, out);
  PrintRule(widths, out);
  for (size_t r = 1; r < rows.size(); ++r) PrintRow(rows[r], widths, out);
  PrintRule(widths, out);
}

}  // namespace

void PrintPropertiesTable(const std::vector<core::DatasetProperties>& rows,
                          std::ostream& out) {
  std::vector<std::vector<std::string>> table;
  table.push_back({"Dataset", "n_classes", "Train_size", "Dim", "Length",
                   "Var_train", "Var_test", "Im_ratio", "d_train_test",
                   "prop_miss"});
  for (const core::DatasetProperties& p : rows) {
    table.push_back({p.name, std::to_string(p.n_classes),
                     std::to_string(p.train_size), std::to_string(p.dim),
                     std::to_string(p.length), FormatDouble(p.var_train),
                     FormatDouble(p.var_test), FormatDouble(p.im_ratio),
                     FormatDouble(p.d_train_test), FormatDouble(p.prop_miss)});
  }
  PrintTable(table, out);
}

void PrintAccuracyTable(const StudyResult& result, std::ostream& out) {
  TSAUG_CHECK(!result.rows.empty());
  const std::string model = ModelKindName(result.model);

  std::vector<std::vector<std::string>> table;
  std::vector<std::string> header = {"Dataset", model};
  for (const CellResult& cell : result.rows[0].cells) {
    header.push_back(model + "_" + cell.technique);
  }
  header.push_back("Improvement (%)");
  table.push_back(header);

  // Cells that deviated from a plain run are annotated rather than
  // hidden: "!N" marks N runs that failed after retries were exhausted
  // (failed runs are excluded from the mean; an all-failed cell shows
  // n/a), "~" marks a cell that recovered through internal retries, "^"
  // marks a cell with runs restored from the journal.
  bool any_failed = false;
  auto annotate = [&](double accuracy, int failed_runs, int retried,
                      int resumed) {
    std::string text = FormatDouble(100.0 * accuracy);
    if (resumed > 0) text += "^";
    if (retried > 0) text += "~";
    if (failed_runs > 0) {
      // Two appends, not "!" + to_string(...): GCC 12 -O2 mis-analyses the
      // char*-plus-rvalue-string overload and fires a bogus -Wrestrict,
      // which -Werror turns fatal on the strict CI leg.
      text += "!";
      text += std::to_string(failed_runs);
      any_failed = true;
    }
    return text;
  };

  for (const DatasetRow& row : result.rows) {
    std::vector<std::string> line = {
        row.dataset, annotate(row.baseline_accuracy, row.baseline_failed_runs,
                              row.baseline_retries,
                              row.baseline_resumed_runs)};
    for (const CellResult& cell : row.cells) {
      line.push_back(annotate(cell.accuracy, cell.failed_runs,
                              cell.recovered_retries, cell.resumed_runs));
    }
    line.push_back(FormatDouble(row.ImprovementPercent()));
    table.push_back(line);
  }
  std::vector<std::string> footer = {"Average Improvement", "-"};
  for (size_t i = 0; i < result.rows[0].cells.size(); ++i) footer.push_back("-");
  footer.push_back(FormatDouble(result.AverageImprovement()));
  table.push_back(footer);

  PrintTable(table, out);

  if (result.interrupted) {
    out << "INTERRUPTED: a stop request ended the study early; rows cover "
           "completed runs only.\n";
  }
  if (!result.journal_path.empty()) {
    out << "Journal: " << result.journal_path << " (" << result.resumed_cells
        << " cell(s) resumed)\n";
  }

  // One line per failed cell with its final Status, so a degraded sweep is
  // diagnosable from the report alone.
  if (any_failed) {
    out << "Failed cells (excluded from cell means and aggregates):\n";
    for (const DatasetRow& row : result.rows) {
      if (row.baseline_failed_runs > 0) {
        out << "  " << row.dataset << "/baseline: " << row.baseline_failed_runs
            << " run(s), last error: " << row.baseline_error.ToString()
            << "\n";
      }
      for (const CellResult& cell : row.cells) {
        if (cell.failed_runs > 0) {
          out << "  " << row.dataset << "/" << cell.technique << ": "
              << cell.failed_runs
              << " run(s), last error: " << cell.last_error.ToString() << "\n";
        }
      }
    }
  }
}

void PrintImprovementCounts(const StudyResult& rocket,
                            const StudyResult& inception, std::ostream& out) {
  const auto rocket_counts = rocket.ImprovementCounts();
  const auto inception_counts = inception.ImprovementCounts();
  std::vector<std::vector<std::string>> table;
  table.push_back({"Augmentation Technique", "ROCKET", "InceptionTime"});
  for (const std::string family : {"smote", "timegan", "noise"}) {
    const auto r = rocket_counts.find(family);
    const auto i = inception_counts.find(family);
    table.push_back({family,
                     r != rocket_counts.end() ? std::to_string(r->second) : "-",
                     i != inception_counts.end() ? std::to_string(i->second)
                                                 : "-"});
  }
  PrintTable(table, out);
}

core::StatusOr<BenchSettings> TryReadBenchSettings(
    const std::function<const char*(const char*)>& lookup) {
  const auto get = [&lookup](const char* name) -> std::string_view {
    const char* value = lookup(name);
    return value != nullptr ? value : "";
  };
  BenchSettings settings;
  const std::string_view scale = get("TSAUG_SCALE");
  if (scale == "paper") {
    settings.scale = data::ScalePreset::kPaper;
    settings.runs = 5;
    settings.rocket_kernels = 10000;
    settings.inception_epochs = 200;
    settings.timegan_iterations = 2500;
  } else if (scale == "small") {
    settings.scale = data::ScalePreset::kSmall;
    settings.rocket_kernels = 1000;
    settings.inception_epochs = 30;
    settings.timegan_iterations = 120;
  } else if (!scale.empty() && scale != "tiny") {
    return core::InvalidArgumentError(
        "TSAUG_SCALE expects tiny, small or paper, got '" +
        std::string(scale) + "'");
  }
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  const core::Flag knobs[] = {
      {"TSAUG_RUNS", &settings.runs, 1, kMaxInt},
      {"TSAUG_KERNELS", &settings.rocket_kernels, 1, kMaxInt},
      {"TSAUG_EPOCHS", &settings.inception_epochs, 1, kMaxInt},
      // MakePaperTechniques doubles the TimeGAN cap in int.
      {"TSAUG_TIMEGAN_ITERS", &settings.timegan_iterations, 1, kMaxInt / 2},
      {"TSAUG_SEED", &settings.seed},
      {"TSAUG_JOURNAL", &settings.journal_path},
      // The deadline is kept in int64 nanoseconds (core/cancel.h).
      {"TSAUG_CELL_BUDGET", &settings.cell_budget_seconds, 0, 1e9},
  };
  for (const core::Flag& knob : knobs) {
    if (!get(knob.name).empty()) {
      TSAUG_RETURN_IF_ERROR(core::ParseFlagValue(knob, get(knob.name)));
    }
  }
  settings.datasets = core::SplitList(get("TSAUG_DATASETS"));
  settings.techniques = core::SplitList(get("TSAUG_TECHNIQUES"));
  return settings;
}

ExperimentConfig MakeExperimentConfig(const BenchSettings& settings,
                                      ModelKind model) {
  ExperimentConfig config;
  config.model = model;
  config.runs = settings.runs;
  config.rocket_kernels = settings.rocket_kernels;
  config.seed = settings.seed;
  config.journal_path = settings.journal_path;
  config.cell_budget_seconds = settings.cell_budget_seconds;

  // InceptionTime sized to the scale preset: paper architecture at paper
  // scale, a shrunken-but-faithful variant otherwise.
  if (settings.scale != data::ScalePreset::kPaper) {
    config.inception.num_filters = 4;
    config.inception.depth = 3;
    config.inception.kernel_sizes = {4, 8, 16};
    config.inception.bottleneck_channels = 4;
    config.inception.ensemble_size = 1;
    config.inception.trainer.learning_rate = 2e-3;  // skip the LR finder
    config.inception.trainer.batch_size = 16;
    // Tiny validation sets make accuracy-based early stopping a coin
    // flip; at reduced scale let every run use the full epoch budget (the
    // best-model restore still applies).
    config.inception.trainer.early_stopping_patience =
        settings.inception_epochs;
  }
  config.inception.trainer.max_epochs = settings.inception_epochs;
  return config;
}

std::vector<std::shared_ptr<augment::Augmenter>> MakePaperTechniques(
    const BenchSettings& settings) {
  augment::TimeGanConfig timegan;
  timegan.embedding_iterations = settings.timegan_iterations;
  timegan.supervised_iterations = settings.timegan_iterations;
  timegan.joint_iterations = std::max(1, settings.timegan_iterations * 2 / 5);
  if (settings.scale == data::ScalePreset::kPaper) {
    timegan = augment::PaperScaleTimeGanConfig();
  } else if (settings.scale == data::ScalePreset::kTiny) {
    timegan.hidden_dim = 6;
    timegan.num_layers = 1;
    timegan.max_sequence_length = 16;
  }
  timegan.seed = settings.seed;
  std::vector<std::shared_ptr<augment::Augmenter>> all =
      augment::PaperTechniques(timegan);
  if (settings.techniques.empty()) return all;

  // TSAUG_TECHNIQUES filter, preserving the paper's technique order (the
  // order is part of the config fingerprint, so every process of a
  // sharded run must derive the same list from the same environment).
  std::erase_if(all, [&settings](const auto& technique) {
    return std::find(settings.techniques.begin(), settings.techniques.end(),
                     technique->name()) == settings.techniques.end();
  });
  return all;
}

namespace {

std::vector<std::string> PaperCatalog() {
  std::vector<std::string> names;
  for (const data::UeaDatasetInfo& info : data::UeaImbalancedCatalog()) {
    names.push_back(info.name);
  }
  return names;
}

std::optional<std::string> DescribePaperDataset(const std::string& name) {
  for (const data::UeaDatasetInfo& info : data::UeaImbalancedCatalog()) {
    if (info.name != name) continue;
    char line[128];
    std::snprintf(line, sizeof(line),
                  "classes=%d train=%d test=%d dim=%d length=%d",
                  info.n_classes, info.train_size, info.test_size, info.dim,
                  info.length);
    return std::string(line);
  }
  return std::nullopt;
}

data::TrainTest LoadPaperDataset(const std::string& name,
                                 const BenchSettings& settings) {
  return data::MakeUeaLikeDataset(name, settings.scale, settings.seed);
}

std::optional<std::string> DescribeScenario(const std::string& name) {
  const data::ScenarioInfo* info = data::FindScenario(name);
  if (info == nullptr) return std::nullopt;
  char line[256];
  std::snprintf(line, sizeof(line), "%-10s %s", info->family.c_str(),
                info->summary.c_str());
  return std::string(line);
}

data::TrainTest LoadScenario(const std::string& name,
                             const BenchSettings& settings) {
  // Suite names are validated against ScenarioIds before loading.
  return data::TryMakeScenarioDataset(name, settings.seed).value();
}

// The paper suite's tag is empty: ConfigFingerprint leaves an empty tag
// out, so paper journals carry no suite field.
const StudySuite kSuites[] = {
    {"paper", "", false, PaperCatalog, DescribePaperDataset,
     LoadPaperDataset},
    {"stress", "stress", true, data::ScenarioIds, DescribeScenario,
     LoadScenario},
};

}  // namespace

const StudySuite* FindStudySuite(const std::string& name) {
  for (const StudySuite& suite : kSuites) {
    if (suite.name == name) return &suite;
  }
  return nullptr;
}

core::StatusOr<StudyPlan> TryPlanStudy(const BenchSettings& settings,
                                       ModelKind model,
                                       const std::string& suite_name) {
  const StudySuite* suite = FindStudySuite(suite_name);
  if (suite == nullptr) {
    return core::InvalidArgumentError("unknown suite '" + suite_name +
                                      "' (expected paper or stress)");
  }
  if (suite->rocket_only && model != ModelKind::kRocket) {
    return core::InvalidArgumentError("suite " + suite->name +
                                      " runs only the rocket model");
  }
  StudyPlan plan;
  plan.names = settings.datasets.empty() ? suite->catalog() : settings.datasets;
  for (const std::string& name : plan.names) {
    if (!suite->describe(name).has_value()) {
      return core::InvalidArgumentError("unknown dataset '" + name +
                                        "' in suite " + suite->name);
    }
  }
  plan.loader = [load = suite->load, settings](const std::string& name) {
    return load(name, settings);
  };
  plan.config = MakeExperimentConfig(settings, model);
  plan.config.dataset_suite = suite->dataset_suite;
  plan.techniques = MakePaperTechniques(settings);
  for (const std::string& wanted : settings.techniques) {
    if (std::none_of(plan.techniques.begin(), plan.techniques.end(),
                     [&](const auto& t) { return t->name() == wanted; })) {
      return core::InvalidArgumentError(
          "unknown technique '" + wanted +
          "' in TSAUG_TECHNIQUES (expected noise_1.0, noise_3.0, noise_5.0, "
          "smote or timegan)");
    }
  }
  return plan;
}

core::StatusOr<StudyResult> TryRunStudy(const BenchSettings& settings,
                                        ModelKind model) {
  const core::StatusOr<StudyPlan> plan = TryPlanStudy(settings, model);
  if (!plan.ok()) return plan.status();
  const DatasetLoader loader = [&plan, model](const std::string& name) {
    std::fprintf(stderr, "[%s] running %s...\n", ModelKindName(model).c_str(),
                 name.c_str());
    return plan->loader(name);
  };
  return RunShardedStudy(plan->names, loader, plan->techniques, plan->config);
}

}  // namespace tsaug::eval
