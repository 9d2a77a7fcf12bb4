// The study grid driver (see DESIGN.md, "Durable runs"): runs one suite's
// grid as a single process, or partitions its cells across N worker
// processes by cell fingerprint, supervises the workers (crash/hang
// restarts with bounded backoff), merges the per-shard journals and
// replays them into a report byte-identical to a single-process run.
//
// Modes:
//   grid_main --shards N --journal-dir DIR --out PATH   supervisor
//   grid_main --shards 0 --out PATH                     golden (one process,
//                                                       no sharding)
//   grid_main --list                                    print the catalog
//   grid_main --worker --shard i/N --attempt K --journal PATH   (internal)
//
// Flags:
//   --suite NAME         paper|stress                          (paper)
//   --model NAME         rocket|inception; stress: rocket only (rocket)
//   --max-retries R      restarts per shard after its first attempt (2)
//   --backoff-ms B       initial restart backoff               (50)
//   --backoff-max-ms M   backoff cap                           (2000)
//   --hang-timeout-ms H  journal-heartbeat hang kill, 0 = off  (0)
//   --poll-ms P          supervisor poll interval              (20)
//   --trace-json PATH    enable tracing; write the report at exit
// Numeric values (--shards, --attempt too) are decimal integers in
// [0, 2147483647]. Any unknown, valueless or malformed flag exits 2.
//
// The suites (eval/report.h) are the paper's 13 UEA-like datasets and
// the stress-scenario catalog of data/scenarios.h. The grid itself
// (scale, runs, kernels, datasets, techniques, seed, journal, cell
// budget) is configured via the TSAUG_* environment (eval/report.h),
// which worker processes inherit; the supervisor forwards only --suite
// and --model. A dataset name the suite does not have is a usage error.
//
// Exit codes: 0 = run completed (shards that exhausted retries and
// scenarios that cannot train surface as failed cells in the report, they
// do not sink the run); 1 = supervisor/infrastructure error; 2 = usage or
// worker error; 3 = interrupted.
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cancel.h"
#include "core/parse.h"
#include "core/status.h"
#include "core/trace.h"
#include "eval/journal.h"
#include "eval/report.h"
#include "eval/shard.h"

namespace {

using tsaug::eval::ModelKind;
using tsaug::eval::StudyResult;

int Fail(int code, const std::string& message) {
  std::fprintf(stderr, "grid_main: %s\n", message.c_str());
  return code;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && wrote;
}

// Writes the canonical report and, when requested, the trace report.
int WriteOutputs(const tsaug::core::StatusOr<StudyResult>& study,
                 const std::string& out_path, const std::string& trace_json) {
  if (!study.ok()) return Fail(1, study.status().ToString());
  const tsaug::core::Status written =
      tsaug::eval::WriteCanonicalReport(*study, out_path);
  if (!written.ok()) return Fail(1, written.ToString());
  if (!trace_json.empty() &&
      !WriteFile(trace_json, tsaug::core::trace::ReportJson())) {
    return Fail(1, "cannot write " + trace_json);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool worker = false;
  bool list = false;
  int attempt = 1;
  int shards = -1;
  std::string worker_journal;
  std::string journal_dir;
  std::string out_path;
  std::string trace_json;
  std::string model_name = "rocket";
  std::string suite_name = "paper";
  std::string shard_spec;
  tsaug::eval::SupervisorOptions options;

  const tsaug::core::Status parsed = tsaug::core::ParseFlags(
      argc, argv,
      {{"--worker", &worker},         {"--list", &list},
       {"--journal", &worker_journal}, {"--journal-dir", &journal_dir},
       {"--out", &out_path},           {"--trace-json", &trace_json},
       {"--model", &model_name},       {"--suite", &suite_name},
       {"--shard", &shard_spec},
       {"--shards", &shards, 0},
       {"--attempt", &attempt, 0},
       {"--max-retries", &options.max_retries, 0},
       {"--backoff-ms", &options.backoff_initial_ms, 0},
       {"--backoff-max-ms", &options.backoff_max_ms, 0},
       {"--hang-timeout-ms", &options.hang_timeout_ms, 0},
       {"--poll-ms", &options.poll_interval_ms, 0}});
  if (!parsed.ok()) return Fail(2, parsed.ToString());

  ModelKind model = ModelKind::kRocket;
  if (model_name == "inception") {
    model = ModelKind::kInceptionTime;
  } else if (model_name != "rocket") {
    return Fail(2, "unknown --model " + model_name);
  }

  if (list) {
    const tsaug::eval::StudySuite* suite =
        tsaug::eval::FindStudySuite(suite_name);
    if (suite == nullptr) return Fail(2, "unknown --suite " + suite_name);
    for (const std::string& name : suite->catalog()) {
      std::printf("%-26s %s\n", name.c_str(),
                  suite->describe(name).value_or("").c_str());
    }
    return 0;
  }

  const tsaug::core::StatusOr<tsaug::eval::BenchSettings> settings =
      tsaug::eval::TryReadBenchSettings();
  if (!settings.ok()) return Fail(2, settings.status().ToString());
  tsaug::core::StatusOr<tsaug::eval::StudyPlan> planned =
      tsaug::eval::TryPlanStudy(*settings, model, suite_name);
  if (!planned.ok()) return Fail(2, planned.status().ToString());
  tsaug::eval::StudyPlan& plan = *planned;

  if (worker) {
    // "i/N"; without a slash both halves read the whole spec, so i == N.
    const std::string_view spec = shard_spec;
    const std::size_t slash = spec.find('/');
    const std::optional<int> shard_index =
        tsaug::core::ParseInt<int>(spec.substr(0, slash), 0);
    const std::optional<int> shard_count =
        tsaug::core::ParseInt<int>(spec.substr(slash + 1), 1);
    if (!shard_index || !shard_count || *shard_index >= *shard_count ||
        worker_journal.empty()) {
      return Fail(2, "--worker needs --shard i/N with i < N and --journal");
    }
    tsaug::core::InstallStopSignalHandlers();
    plan.config.journal_path = worker_journal;
    plan.config.shard_index = *shard_index;
    plan.config.shard_count = *shard_count;
    std::string domain = "shard/";
    domain += std::to_string(*shard_index);
    domain += "/attempt";
    domain += std::to_string(attempt);
    const tsaug::core::StatusOr<StudyResult> study =
        tsaug::eval::RunShardedStudy(plan.names, plan.loader, plan.techniques,
                                     plan.config, domain);
    if (!study.ok()) {
      return Fail(2, "worker " + shard_spec + ": " +
                         study.status().ToString());
    }
    return study->interrupted || tsaug::core::GlobalStopRequested() ? 3 : 0;
  }

  if (shards < 0 || out_path.empty()) {
    return Fail(2, "--shards N and --out PATH are required (or --list)");
  }
  if (!trace_json.empty()) tsaug::core::trace::Enable();
  tsaug::core::InstallStopSignalHandlers();

  if (shards == 0) {
    // Golden mode: the plain single-process study (journaled when
    // TSAUG_JOURNAL is set), dumped canonically so sharded runs can be
    // compared byte for byte.
    const tsaug::core::StatusOr<StudyResult> study =
        tsaug::eval::RunShardedStudy(plan.names, plan.loader, plan.techniques,
                                     plan.config);
    const int written = WriteOutputs(study, out_path, trace_json);
    if (written != 0) return written;
    return study->interrupted ? 3 : 0;
  }

  // Supervisor mode. Fork happens before any grid work, so no thread pool
  // exists in this process until the post-merge replay below.
  if (journal_dir.empty()) return Fail(2, "--shards N > 0 needs --journal-dir");
  options.worker_command = {argv[0], "--suite", suite_name, "--model",
                            model_name};
  options.journal_dir = journal_dir;
  options.shard_count = shards;

  const tsaug::core::StatusOr<tsaug::eval::SuperviseResult> supervised =
      tsaug::eval::SuperviseShards(options);
  if (!supervised.ok()) return Fail(1, supervised.status().ToString());
  for (const tsaug::eval::ShardOutcome& outcome : supervised->shards) {
    std::fprintf(stderr, "grid_main: shard %d %s after %d attempt(s)%s%s\n",
                 outcome.shard, outcome.succeeded ? "completed" : "FAILED",
                 outcome.attempts, outcome.succeeded ? "" : ": ",
                 outcome.succeeded ? ""
                                   : outcome.final_status.ToString().c_str());
  }
  if (supervised->interrupted) {
    std::fprintf(stderr, "grid_main: interrupted; skipping merge\n");
    if (!trace_json.empty()) {
      (void)WriteFile(trace_json, tsaug::core::trace::ReportJson());
    }
    return 3;
  }

  // Merge every shard journal — including a failed shard's partial one:
  // its completed cells are valid and spare the replay's failed-cell list.
  std::vector<std::string> inputs;
  for (const tsaug::eval::ShardOutcome& outcome : supervised->shards) {
    inputs.push_back(outcome.journal_path);
  }
  const std::string merged_path =
      (std::filesystem::path(journal_dir) / "merged.jsonl").string();
  const tsaug::core::StatusOr<tsaug::eval::JournalMergeStats> merged =
      tsaug::eval::MergeJournals(
          inputs, merged_path,
          tsaug::eval::ConfigFingerprint(plan.config, plan.techniques));
  if (!merged.ok()) return Fail(1, merged.status().ToString());
  std::fprintf(stderr,
               "grid_main: merged %d journal(s) (%d missing) into %s: "
               "%d cell(s), %d duplicate(s), %d dropped line(s)\n",
               merged->inputs, merged->missing_inputs, merged_path.c_str(),
               merged->cells, merged->duplicates, merged->dropped_lines);

  // Replay: a resume-only grid against the merged journal. Every cell the
  // shards completed is restored bit for bit (preflight-failed scenarios
  // are journaled like any other failure); cells a failed shard never
  // finished surface as failed (kUnavailable), never as accuracy 0.
  plan.config.journal_path = merged_path;
  plan.config.resume_only = true;
  const int written = WriteOutputs(
      tsaug::eval::RunShardedStudy(plan.names, plan.loader, plan.techniques,
                                   plan.config),
      out_path, trace_json);
  if (written != 0) return written;
  std::printf("grid_main: report written to %s (%s)\n", out_path.c_str(),
              supervised->all_succeeded ? "all shards completed"
                                        : "with failed shards");
  return 0;
}
