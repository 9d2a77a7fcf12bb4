// The serving binary: registers the default corpus + taxonomy + ROCKET
// model (serve::DefaultServiceConfig) and serves augment/score requests
// over the length-prefixed TCP protocol until SIGTERM/SIGINT, then drains
// (answers everything admitted) and exports trace counters.
//
// Flags ([accepted range], (default)):
//   --port N            [0, 65535] listen port, 0 = ephemeral    (0)
//   --port-file PATH    write the bound port as text (child-process handshake)
//   --trace-json PATH   enable tracing; write the JSON report after drain
//   --max-batch N       [1, 2^31-1] cut a batch at N requests    (16)
//   --linger-ms X       [0, 60000] max batch linger in ms        (2)
//   --max-queue-depth N [1, 2^31-1] admission control bound      (1024)
//   --max-connections N [1, 2^31-1] concurrent connection bound  (128)
//   --idle-timeout-ms N [0, 2^31-1] close idle connections, 0 = off (0)
// Any unknown, valueless, malformed or out-of-range flag exits 2.
#include <cstdio>
#include <string>

#include "core/cancel.h"
#include "core/parse.h"
#include "core/status.h"
#include "core/trace.h"
#include "serve/server.h"

namespace {

using tsaug::serve::Server;
using tsaug::serve::ServerConfig;

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && wrote;
}

}  // namespace

int main(int argc, char** argv) {
  ServerConfig config;
  config.service = tsaug::serve::DefaultServiceConfig();
  std::string port_file;
  std::string trace_json;
  double linger_ms =
      static_cast<double>(config.batching.max_linger_nanos) / 1e6;
  const tsaug::core::Status parsed = tsaug::core::ParseFlags(
      argc, argv,
      {{"--port", &config.port, 0, 65535},
       {"--port-file", &port_file},
       {"--trace-json", &trace_json},
       {"--max-batch", &config.batching.max_batch, 1},
       {"--linger-ms", &linger_ms, 0, 60000},
       {"--max-queue-depth", &config.batching.max_queue_depth, 1},
       {"--max-connections", &config.max_connections, 1},
       {"--idle-timeout-ms", &config.idle_timeout_ms, 0}});
  if (!parsed.ok()) {
    std::fprintf(stderr, "serve_main: %s\n", parsed.ToString().c_str());
    return 2;
  }
  config.batching.max_linger_nanos = static_cast<std::int64_t>(linger_ms * 1e6);
  if (!trace_json.empty()) tsaug::core::trace::Enable();

  tsaug::core::InstallStopSignalHandlers();
  Server server(config);
  const tsaug::core::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "serve_main: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("serve_main: listening on %d\n", server.port());
  std::fflush(stdout);
  if (!port_file.empty() &&
      !WriteFile(port_file, std::to_string(server.port()) + "\n")) {
    std::fprintf(stderr, "serve_main: cannot write %s\n", port_file.c_str());
    server.Shutdown();
    return 1;
  }

  server.Wait();  // returns only after the drain completed

  // Export ordering (see Server::Shutdown): every worker is joined before
  // this point, so the counter snapshot is complete.
  if (!trace_json.empty() &&
      !WriteFile(trace_json, tsaug::core::trace::ReportJson())) {
    std::fprintf(stderr, "serve_main: cannot write %s\n", trace_json.c_str());
    return 1;
  }
  std::printf("serve_main: drained\n");
  return 0;
}
