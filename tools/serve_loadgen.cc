// Deterministic load-test client for serve_main: opens N connections,
// issues the standard loadgen workload (serve/loadgen.h) and prints a
// latency/error summary. Exit status: 0 on zero errors, 1 otherwise —
// the CI serve smoke gates on it.
//
// Flags ([accepted range], (default)):
//   --host H          server host                        (127.0.0.1)
//   --port N          [1, 65535] server port             (required)
//   --connections N   [1, 128] client connections, a thread each (8)
//   --requests N      [0, 2^20] requests per connection  (25); RunLoad
//                     also caps connections x requests at 2^20
//   --timeout-ms N    [0, 2^31-1] per-request deadline, 0 = none (0)
//   --seed N          [0, 2^64-1] workload base seed     (1)
// Any unknown, valueless, malformed or out-of-range flag exits 2.
#include <cstdio>
#include <string>

#include "core/parse.h"
#include "core/status.h"
#include "serve/loadgen.h"
#include "serve/server.h"

int main(int argc, char** argv) {
  tsaug::serve::LoadConfig config;
  int timeout_ms = 0;
  const tsaug::core::Status parsed = tsaug::core::ParseFlags(
      argc, argv,
      {{"--host", &config.host},
       {"--port", &config.port, 1, 65535},
       {"--connections", &config.connections, 1,
        tsaug::serve::kDefaultMaxConnections},
       {"--requests", &config.requests_per_connection, 0,
        static_cast<int>(tsaug::serve::kMaxLoadRequests)},
       {"--timeout-ms", &timeout_ms, 0},
       {"--seed", &config.base_seed}});
  if (!parsed.ok()) {
    std::fprintf(stderr, "serve_loadgen: %s\n", parsed.ToString().c_str());
    return 2;
  }
  if (config.port == 0) {
    std::fprintf(stderr, "serve_loadgen: --port is required\n");
    return 2;
  }
  config.timeout_millis = static_cast<std::uint32_t>(timeout_ms);

  tsaug::core::StatusOr<tsaug::serve::LoadReport> ran =
      tsaug::serve::RunLoad(config);
  if (!ran.ok()) {
    std::fprintf(stderr, "serve_loadgen: %s\n", ran.status().ToString().c_str());
    return 1;
  }
  const tsaug::serve::LoadReport& report = *ran;
  std::printf(
      "serve_loadgen: requests=%lld errors=%lld "
      "p50_us=%.1f p95_us=%.1f p99_us=%.1f\n",
      static_cast<long long>(report.requests),
      static_cast<long long>(report.errors),
      static_cast<double>(report.PercentileNanos(0.50)) * 1e-3,
      static_cast<double>(report.PercentileNanos(0.95)) * 1e-3,
      static_cast<double>(report.PercentileNanos(0.99)) * 1e-3);
  return report.errors == 0 ? 0 : 1;
}
