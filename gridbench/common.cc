#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/kernels/kernels.h"
#include "core/parallel.h"

#ifndef GRIDBENCH_COMPILER
#define GRIDBENCH_COMPILER "unknown"
#endif
#ifndef GRIDBENCH_FLAGS
#define GRIDBENCH_FLAGS "unknown"
#endif

namespace gridbench {

const std::vector<std::pair<std::string, std::string>>& PerLayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> out = {
        {"data.generate_s", "s"}, {"core.preflight_s", "s"}};
    for (const char* technique :
         {"noise_1.0", "noise_3.0", "noise_5.0", "smote", "timegan"}) {
      const std::string prefix = std::string("augment.") + technique;
      out.push_back({prefix + ".busy_s", "s"});
      out.push_back({prefix + ".calls", "count"});
      out.push_back({prefix + ".samples", "count"});
      out.push_back({prefix + ".failed", "count"});
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"classify.rocket.fit_s", "s"},
        {"classify.rocket.score_s", "s"},
        {"classify.rocket.retries", "count"},
        {"rocket.transform_s", "s"},
        {"ridge.loocv_s", "s"},
        {"classify.inception.fit_s", "s"},
        {"classify.inception.score_s", "s"},
        {"classify.inception.epochs", "count"},
        {"classify.inception.s_per_epoch", "s"},
        {"classify.inception.retries", "count"},
        {"eval.aug_phase_s", "s"},
        {"eval.train_phase_s", "s"},
        {"eval.row_p50_s", "s"},
        {"eval.row_max_s", "s"},
        {"eval.cells", "count"},
        {"eval.cells_failed", "count"},
        {"grid.work_s", "s"},
        {"grid.critical_path_s", "s"},
        {"grid.cores_busy", "ratio"},
        {"frame.encode_us", "us"},
        {"frame.decode_us", "us"},
        {"service.augment_batch_ms", "ms"},
        {"service.score_batch_ms", "ms"},
        {"serve.occupancy_mean", "requests"},
        {"serve.rejected", "count"},
        {"serve.expired", "count"},
        {"serve.queue_residual_ms", "ms"},
        {"serve.gen_lag_ms", "ms"},
        {"serve.max_rps", "1/s"},
        {"trace_overhead_ratio", "ratio"},
    };
    out.insert(out.end(), rest.begin(), rest.end());
    return out;
  }();
  return names;
}

void FillMissingPerLayer(RunResult& result) {
  std::set<std::string> present;
  for (const Metric& metric : result.metrics) present.insert(metric.name);
  for (const auto& [name, unit] : PerLayerMetricNames()) {
    if (present.count(name) == 0) result.Add(name, 0.0, unit);
  }
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) *
                                static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::string Digest(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (char ch : bytes) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

namespace {

// CPU brand string from CPUID, so the host block needs no file reads.
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

}  // namespace

std::string HostBlockJson() {
  namespace kernels = tsaug::core::kernels;
  const char* requested = std::getenv("TSAUG_BACKEND");
  const char* threads_env = std::getenv("TSAUG_NUM_THREADS");
  std::ostringstream out;
  out << "{\"cpu_model\": \"" << JsonEscape(CpuModel()) << "\""
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"compiler\": \"" << JsonEscape(GRIDBENCH_COMPILER) << "\""
      << ", \"flags\": \"" << JsonEscape(GRIDBENCH_FLAGS) << "\""
      << ", \"backend\": \""
      << kernels::BackendName(kernels::ActiveBackend()) << "\""
      << ", \"backend_env\": \""
      << JsonEscape(requested != nullptr ? requested : "") << "\""
      << ", \"threads\": " << tsaug::core::GetNumThreads()
      << ", \"threads_env\": \""
      << JsonEscape(threads_env != nullptr ? threads_env : "") << "\"}";
  return out.str();
}

}  // namespace gridbench
