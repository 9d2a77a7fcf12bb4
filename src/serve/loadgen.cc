#include "serve/loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <variant>

#include "core/rng.h"
#include "core/trace.h"
#include "serve/server.h"

namespace tsaug::serve {
namespace {

/// Stateless techniques only: none of these fit per-class state on first
/// use, so a response depends solely on its own request — the property
/// the batching-equivalence e2e test asserts bitwise.
const char* const kWorkloadTechniques[] = {"scaling", "masking", "permutation",
                                           "time_warp", "window_warp"};
constexpr std::uint64_t kNumWorkloadTechniques =
    sizeof(kWorkloadTechniques) / sizeof(kWorkloadTechniques[0]);

bool SendAll(int fd, const std::string& bytes) {
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + offset, bytes.size() - offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    offset += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Client::~Client() { Close(); }

core::Status Client::Connect(const std::string& host, int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return core::UnavailableError(std::string("client: socket: ") +
                                  std::strerror(errno));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return core::UnavailableError("client: bad host \"" + host + "\"");
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string detail = std::strerror(errno);
    Close();
    return core::UnavailableError("client: connect: " + detail);
  }
  return core::OkStatus();
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

core::StatusOr<Message> Client::RoundTrip(const std::string& frame) {
  if (fd_ < 0) return core::UnavailableError("client: not connected");
  if (!SendAll(fd_, frame)) {
    return core::UnavailableError("client: send failed");
  }
  std::vector<char> chunk(1 << 16);
  for (;;) {
    Message message;
    std::size_t consumed = 0;
    TSAUG_RETURN_IF_ERROR(DecodeFrame(buffer_, &message, &consumed));
    if (consumed > 0) {
      buffer_.erase(0, consumed);
      return message;
    }
    const ssize_t n = ::recv(fd_, chunk.data(), chunk.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return core::UnavailableError(std::string("client: recv: ") +
                                    std::strerror(errno));
    }
    if (n == 0) {
      return core::UnavailableError("client: connection closed by server");
    }
    buffer_.append(chunk.data(), static_cast<std::size_t>(n));
  }
}

core::StatusOr<AugmentResponse> Client::Augment(const AugmentRequest& request) {
  core::StatusOr<Message> reply = RoundTrip(EncodeFrame(request));
  if (!reply.ok()) return reply.status();
  if (reply->type != MessageType::kAugmentResponse) {
    return core::InvalidArgumentError("client: expected an augment response");
  }
  return std::get<AugmentResponse>(std::move(reply->payload));
}

core::StatusOr<ScoreResponse> Client::Score(const ScoreRequest& request) {
  core::StatusOr<Message> reply = RoundTrip(EncodeFrame(request));
  if (!reply.ok()) return reply.status();
  if (reply->type != MessageType::kScoreResponse) {
    return core::InvalidArgumentError("client: expected a score response");
  }
  return std::get<ScoreResponse>(std::move(reply->payload));
}

Message BuildRequest(const LoadConfig& config, std::uint64_t global_index) {
  Message message;
  if (global_index % 4 == 3) {
    ScoreRequest request;
    request.request_id = global_index;
    request.timeout_millis = config.timeout_millis;
    request.series =
        core::TimeSeries(config.num_channels, config.series_length);
    // The payload depends only on (base_seed, global_index): a synthetic
    // two-regime series so predictions are non-trivial.
    core::Rng rng(config.base_seed * 1000003 + global_index);
    const double phase = rng.Uniform(0.0, 6.28318530717958647692);
    for (int c = 0; c < config.num_channels; ++c) {
      for (int t = 0; t < config.series_length; ++t) {
        const double x =
            std::sin(phase + 0.2 * static_cast<double>(t + c)) +
            rng.Normal(0.0, 0.1);
        request.series.at(c, t) = x;
      }
    }
    message.type = MessageType::kScoreRequest;
    message.payload = std::move(request);
  } else {
    AugmentRequest request;
    request.request_id = global_index;
    request.seed = config.base_seed * 7919 + global_index;
    request.timeout_millis = config.timeout_millis;
    request.technique = kWorkloadTechniques[global_index %
                                            kNumWorkloadTechniques];
    request.label = static_cast<int>(global_index % 2);
    request.count = config.augment_count;
    message.type = MessageType::kAugmentRequest;
    message.payload = std::move(request);
  }
  return message;
}

std::int64_t LoadReport::PercentileNanos(double q) const {
  if (latencies_ns.empty()) return 0;
  const double clamped = std::min(1.0, std::max(0.0, q));
  const std::size_t rank = static_cast<std::size_t>(
      std::llround(clamped * static_cast<double>(latencies_ns.size() - 1)));
  return latencies_ns[rank];
}

core::StatusOr<LoadReport> RunLoad(const LoadConfig& config) {
  const int connections = std::max(1, config.connections);
  const int per_connection = std::max(0, config.requests_per_connection);
  if (connections > kDefaultMaxConnections) {
    return core::InvalidArgumentError(
        "loadgen: " + std::to_string(connections) +
        " connections exceed the cap of " +
        std::to_string(kDefaultMaxConnections));
  }
  const std::size_t total =
      static_cast<std::size_t>(connections) *
      static_cast<std::size_t>(per_connection);
  if (total > static_cast<std::size_t>(kMaxLoadRequests)) {
    return core::InvalidArgumentError(
        "loadgen: " + std::to_string(total) +
        " requests in total exceed the cap of " +
        std::to_string(kMaxLoadRequests));
  }

  struct Slice {
    std::int64_t requests = 0;
    std::int64_t errors = 0;
    std::vector<std::int64_t> latencies_ns;
    bool connected = false;
  };
  std::vector<Slice> slices(static_cast<std::size_t>(connections));
  LoadReport report;
  report.response_frames.resize(total);

  // Each thread owns its slice and its stripe of response_frames —
  // disjoint writes, so no locking and no ordering sensitivity.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Slice& slice = slices[static_cast<std::size_t>(c)];
      Client client;
      if (!client.Connect(config.host, config.port).ok()) return;
      slice.connected = true;
      for (int r = 0; r < per_connection; ++r) {
        const std::uint64_t g =
            static_cast<std::uint64_t>(c) *
                static_cast<std::uint64_t>(per_connection) +
            static_cast<std::uint64_t>(r);
        const Message request = BuildRequest(config, g);
        const std::string frame =
            request.type == MessageType::kAugmentRequest
                ? EncodeFrame(std::get<AugmentRequest>(request.payload))
                : EncodeFrame(std::get<ScoreRequest>(request.payload));
        const std::int64_t start_ns = core::trace::NowNanos();
        core::StatusOr<Message> reply = client.RoundTrip(frame);
        const std::int64_t elapsed_ns = core::trace::NowNanos() - start_ns;
        if (!reply.ok()) {
          ++slice.errors;
          continue;  // connection may be gone; later sends fail fast
        }
        ++slice.requests;
        slice.latencies_ns.push_back(elapsed_ns);
        const core::Status& status =
            reply->type == MessageType::kAugmentResponse
                ? std::get<AugmentResponse>(reply->payload).status
                : std::get<ScoreResponse>(reply->payload).status;
        if (!status.ok()) ++slice.errors;
        report.response_frames[g] =
            reply->type == MessageType::kAugmentResponse
                ? EncodeFrame(std::get<AugmentResponse>(reply->payload))
                : EncodeFrame(std::get<ScoreResponse>(reply->payload));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  bool any_connected = false;
  for (const Slice& slice : slices) {
    any_connected = any_connected || slice.connected;
    report.requests += slice.requests;
    report.errors += slice.errors;
    report.latencies_ns.insert(report.latencies_ns.end(),
                               slice.latencies_ns.begin(),
                               slice.latencies_ns.end());
  }
  if (!any_connected && total > 0) {
    return core::UnavailableError("loadgen: no connection could be opened");
  }
  std::sort(report.latencies_ns.begin(), report.latencies_ns.end());
  return report;
}

}  // namespace tsaug::serve
