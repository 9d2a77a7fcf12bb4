// gridbench_main: runs one benchmark workload in this process and prints
// its metrics, ending with one JSON result line. gridbench/run.py builds
// this binary and is the documented entry point.
//
//   gridbench_main --workload NAME --seed N --seconds S --trace 0|1
//                  --out-dir DIR [--expect-digest HEX]
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "core/trace.h"

namespace {

int Usage(const char* problem) {
  std::fprintf(stderr,
               "gridbench_main: %s\nusage: gridbench_main --workload "
               "{table4_paper|inception_grid|serve_open} --seed N "
               "--seconds S --trace 0|1 --out-dir DIR [--expect-digest HEX]\n",
               problem);
  return 2;
}

bool ParseUint(const char* text, unsigned long long* out) {
  if (text == nullptr || *text == '\0' || *text == '-') return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text, &end, 10);
  return errno == 0 && *end == '\0';
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  gridbench::RunOptions options;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    unsigned long long number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &number)) return Usage("--seed needs an integer");
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &number) || number < 1 || number > 3600) {
        return Usage("--seconds needs an integer in [1, 3600]");
      }
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace needs 0 or 1");
      }
      options.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--expect-digest") {
      options.expect_digest = value;
    } else {
      return Usage(("unknown argument " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      options.out_dir.empty()) {
    return Usage("--workload, --seed, --seconds, --trace and --out-dir are "
                 "required");
  }
  const bool grid = gridbench::IsGridWorkload(options.workload);
  if (!grid && options.workload != "serve_open") {
    return Usage(("unknown workload " + options.workload).c_str());
  }

  // End-to-end numbers are measured with the library's tracing off,
  // whatever TSAUG_TRACE says; the serve pass switches it on itself.
  tsaug::core::trace::Disable();
  const std::string host = gridbench::HostBlockJson();
  std::printf("host %s\nhost_fingerprint %s\n", host.c_str(),
              gridbench::Digest(host).c_str());
  const gridbench::RunResult result = grid
                                          ? gridbench::RunGridWorkload(options)
                                          : gridbench::RunServeWorkload(options);

  std::string metrics;
  for (const gridbench::Metric& metric : result.metrics) {
    std::printf("metric %-34s %.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + metric.name + "\": {\"value\": " +
               JsonNumber(metric.value) + ", \"unit\": \"" + metric.unit +
               "\"}";
  }
  std::printf("fail_ratio %.6f (%lld failed of %lld attempted)\n",
              result.attempted > 0 ? static_cast<double>(result.failed) /
                                         static_cast<double>(result.attempted)
                                   : 1.0,
              static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), metrics.c_str());
  return 0;
}
