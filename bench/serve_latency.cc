// In-process serving latency bench: starts a serve::Server on an
// ephemeral loopback port, drives the deterministic loadgen workload
// against it, and writes BENCH_serve.json — request/error counts,
// round-trip latency percentiles and the batch occupancy histogram read
// from the serve.* trace counters after the drain.
//
// tools/bench_check.py --serve gates the output structurally (non-empty,
// zero errors, occupancy recorded): latency magnitudes are host-dependent,
// so unlike BENCH_kernels.json there is no committed ns baseline.
//
// Flags: --json PATH (default BENCH_serve.json), --connections N in
// [1, 128] (32), --requests N per connection in [0, 2^20] (25; RunLoad
// caps connections x requests at 2^20), --max-batch N (16),
// --linger-ms X in [0, 60000] (2). Every argument is a flag followed by
// its value: anything else exits 2 before anything runs.
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "core/parse.h"
#include "core/status.h"
#include "core/trace.h"
#include "serve/loadgen.h"
#include "serve/server.h"

namespace {

using tsaug::core::trace::CounterValue;

// Only the batch sizes that were cut are visited, so the cost is bounded
// by the recorded counters, not by --max-batch.
std::string OccupancyHistogramJson() {
  const std::string prefix = "serve.batch_size.";
  std::map<int, std::int64_t> cuts;  // batch size -> cuts, numeric order
  for (const auto& [name, count] : tsaug::core::trace::Counters()) {
    if (name.compare(0, prefix.size(), prefix) != 0 || count == 0) continue;
    const std::optional<int> size = tsaug::core::ParseInt<int>(
        std::string_view(name).substr(prefix.size()));
    if (size) cuts[*size] = count;
  }
  std::string json = "{";
  bool first = true;
  for (const auto& [size, count] : cuts) {
    if (!first) json += ", ";
    first = false;
    // Sequential appends: GCC 12 -O2 fires a bogus -Wrestrict on the
    // char*-plus-rvalue-string overload, fatal under the strict CI leg.
    json += "\"";
    json += std::to_string(size);
    json += "\": ";
    json += std::to_string(count);
  }
  return json + "}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_serve.json";
  tsaug::serve::ServerConfig server_config;
  server_config.service = tsaug::serve::DefaultServiceConfig();
  tsaug::serve::LoadConfig load_config;
  load_config.connections = 32;
  load_config.requests_per_connection = 25;
  double linger_ms =
      static_cast<double>(server_config.batching.max_linger_nanos) / 1e6;
  const tsaug::core::Status parsed = tsaug::core::ParseFlags(
      argc, argv,
      {{"--json", &json_path},
       {"--connections", &load_config.connections, 1,
        tsaug::serve::kDefaultMaxConnections},
       {"--requests", &load_config.requests_per_connection, 0,
        static_cast<int>(tsaug::serve::kMaxLoadRequests)},
       {"--max-batch", &server_config.batching.max_batch, 1},
       {"--linger-ms", &linger_ms, 0, 60000}});
  if (!parsed.ok()) {
    std::fprintf(stderr, "serve_latency: %s\n", parsed.ToString().c_str());
    return 2;
  }
  server_config.batching.max_linger_nanos =
      static_cast<std::int64_t>(linger_ms * 1e6);

  tsaug::core::trace::Enable();  // the occupancy counters feed the report
  tsaug::serve::Server server(server_config);
  const tsaug::core::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "serve_latency: %s\n", started.ToString().c_str());
    return 1;
  }
  load_config.port = server.port();
  tsaug::core::StatusOr<tsaug::serve::LoadReport> ran =
      tsaug::serve::RunLoad(load_config);
  server.Shutdown();  // drain completes before the counter snapshot below
  if (!ran.ok()) {
    std::fprintf(stderr, "serve_latency: %s\n",
                 ran.status().ToString().c_str());
    return 1;
  }
  const tsaug::serve::LoadReport& report = *ran;

  const std::int64_t batches = CounterValue("serve.batches");
  const std::int64_t batched = CounterValue("serve.batched_requests");
  const double occupancy =
      batches > 0
          ? static_cast<double>(batched) / static_cast<double>(batches)
          : 0.0;
  std::int64_t total_ns = 0;
  for (const std::int64_t ns : report.latencies_ns) total_ns += ns;
  const double mean_ns =
      report.latencies_ns.empty()
          ? 0.0
          : static_cast<double>(total_ns) /
                static_cast<double>(report.latencies_ns.size());

  std::string json = "{\n";
  json += "  \"serve_bench_version\": 1,\n";
  json += "  \"config\": {\"connections\": " +
          std::to_string(load_config.connections) +
          ", \"requests_per_connection\": " +
          std::to_string(load_config.requests_per_connection) +
          ", \"max_batch\": " +
          std::to_string(server_config.batching.max_batch) +
          ", \"max_linger_nanos\": " +
          std::to_string(server_config.batching.max_linger_nanos) + "},\n";
  json += "  \"requests\": " + std::to_string(report.requests) + ",\n";
  json += "  \"errors\": " + std::to_string(report.errors) + ",\n";
  char latency[256];
  std::snprintf(latency, sizeof(latency),
                "  \"latency_ns\": {\"p50\": %lld, \"p95\": %lld, "
                "\"p99\": %lld, \"mean\": %.1f},\n",
                static_cast<long long>(report.PercentileNanos(0.50)),
                static_cast<long long>(report.PercentileNanos(0.95)),
                static_cast<long long>(report.PercentileNanos(0.99)),
                mean_ns);
  json += latency;
  json += "  \"batches\": " + std::to_string(batches) + ",\n";
  json += "  \"batched_requests\": " + std::to_string(batched) + ",\n";
  char occ[64];
  std::snprintf(occ, sizeof(occ), "  \"mean_occupancy\": %.3f,\n", occupancy);
  json += occ;
  json += "  \"occupancy_histogram\": " +
          OccupancyHistogramJson() + "\n";
  json += "}\n";

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr ||
      std::fwrite(json.data(), 1, json.size(), f) != json.size() ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "serve_latency: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  std::printf("serve_latency: requests=%lld errors=%lld occupancy=%.2f\n",
              static_cast<long long>(report.requests),
              static_cast<long long>(report.errors), occupancy);
  return report.errors == 0 ? 0 : 1;
}
