#ifndef TSAUG_SERVE_LOADGEN_H_
#define TSAUG_SERVE_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "serve/frame.h"

namespace tsaug::serve {

/// Blocking single-connection client: frames requests onto a TCP socket
/// and decodes the responses. Used by the loadgen below, the latency
/// bench and the e2e suite; not thread-safe (one Client per thread).
class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] core::Status Connect(const std::string& host, int port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  [[nodiscard]] core::StatusOr<AugmentResponse> Augment(
      const AugmentRequest& request);
  [[nodiscard]] core::StatusOr<ScoreResponse> Score(
      const ScoreRequest& request);

  /// Sends one encoded frame and blocks for the next response frame.
  [[nodiscard]] core::StatusOr<Message> RoundTrip(const std::string& frame);

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes received beyond the last decoded frame
};

/// A deterministic load shape against a serve::Server. Request `g` (the
/// global index, 0-based across all connections) is a pure function of
/// (g, base_seed): every 4th request scores a synthetic series, the rest
/// cycle stateless augmenters. Two runs with the same total request count
/// therefore issue the identical request multiset regardless of how many
/// connections carry it — the seam the e2e batching-equivalence test uses.
struct LoadConfig {
  std::string host = "127.0.0.1";
  int port = 0;
  int connections = 8;
  int requests_per_connection = 25;
  /// Per-request deadline; 0 = none.
  std::uint32_t timeout_millis = 0;
  std::uint64_t base_seed = 1;
  /// Series per augment request.
  int augment_count = 2;
  /// Geometry of score payloads; must match the server's registered
  /// dataset (DefaultServiceConfig for the stock binaries).
  int num_channels = 2;
  int series_length = 32;
};

/// The request with global index `g` under `config` (see LoadConfig).
Message BuildRequest(const LoadConfig& config, std::uint64_t global_index);

struct LoadReport {
  std::int64_t requests = 0;  // round trips completed at the frame level
  /// Transport failures plus responses carrying a non-OK Status.
  std::int64_t errors = 0;
  /// Per-request round-trip latency, nanoseconds, sorted ascending.
  std::vector<std::int64_t> latencies_ns;
  /// Canonical re-encoded response frame per global request index (empty
  /// string where transport failed) — bitwise comparable across runs.
  std::vector<std::string> response_frames;

  /// q in [0,1]; 0 when no latencies were recorded.
  std::int64_t PercentileNanos(double q) const;
};

/// Cap on connections x requests_per_connection for one RunLoad: the
/// report preallocates one response frame per request.
inline constexpr std::int64_t kMaxLoadRequests = std::int64_t{1} << 20;

/// Runs the load shape: `connections` client threads, each issuing its
/// stripe of requests back-to-back on one connection. Returns
/// kInvalidArgument, before any thread starts, for more connections than
/// kDefaultMaxConnections or more requests in total than kMaxLoadRequests;
/// kUnavailable when no connection could be established at all.
[[nodiscard]] core::StatusOr<LoadReport> RunLoad(const LoadConfig& config);

}  // namespace tsaug::serve

#endif  // TSAUG_SERVE_LOADGEN_H_
