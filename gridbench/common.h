// Shared pieces of the paper-grid benchmark: run options, the result that
// becomes the final JSON line, process resource readings and small
// statistics helpers. See gridbench/README.md for the workloads and the
// metric definitions.
#ifndef GRIDBENCH_COMMON_H_
#define GRIDBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gridbench {

/// Command-line options of one benchmark run (main.cc parses them).
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  /// How long the measured phase of the run lasts.
  double seconds = 10.0;
  /// 0: untraced end-to-end run; 1: traced per-layer replay.
  bool trace = false;
  /// Directory for the span file and canonical reports.
  std::string out_dir;
  /// Pinned canonical-report digest for this (workload, seed); "" = none.
  std::string expect_digest;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything the final JSON line reports.
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Names of every per-layer metric, in output order. A traced run of any
/// workload reports all of them; layers a workload does not exercise read
/// 0 (no calls, no busy time).
const std::vector<std::pair<std::string, std::string>>& PerLayerMetricNames();

/// Appends every per-layer metric missing from `result` with value 0.
void FillMissingPerLayer(RunResult& result);

/// Steady-clock seconds since an arbitrary epoch.
double NowSeconds();

/// User + system CPU seconds consumed by this process (all threads).
double ProcessCpuSeconds();

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Nearest-rank quantile q in [0, 1] of `values` (0 when empty).
double Quantile(std::vector<double> values, double q);

/// FNV-1a 64-bit digest of `bytes` as 16 lowercase hex digits.
std::string Digest(const std::string& bytes);

/// Reads a whole file; "" when it cannot be read.
std::string ReadFile(const std::string& path);

/// The host block: CPU model, nproc, compiler and flags, resolved kernel
/// backend and pool thread count, as one JSON object.
std::string HostBlockJson();

/// Grid workloads (grid.cc): table4_paper, inception_grid.
bool IsGridWorkload(const std::string& name);
RunResult RunGridWorkload(const RunOptions& options);

/// The open-loop serve workload (serve.cc): serve_open.
RunResult RunServeWorkload(const RunOptions& options);

}  // namespace gridbench

#endif  // GRIDBENCH_COMMON_H_
