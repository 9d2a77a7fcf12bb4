#ifndef TSAUG_SERVE_SERVER_H_
#define TSAUG_SERVE_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "core/thread_annotations.h"
#include "serve/batching.h"
#include "serve/service.h"

namespace tsaug::serve {

/// Default max_connections; also bounds loadgen's per-connection threads.
inline constexpr int kDefaultMaxConnections = 128;

struct ServerConfig {
  /// Loopback only by default: this is an experiment-harness service, not
  /// an internet-facing one.
  std::string host = "127.0.0.1";
  /// 0 = pick an ephemeral port; read the bound one back via port().
  int port = 0;
  /// Accepted connections beyond this are closed immediately (admission
  /// control at the socket layer, before any frame is read).
  int max_connections = kDefaultMaxConnections;
  /// A connection idle (no bytes received, no request in flight) for this
  /// long is closed, so a stalled client cannot pin a handler slot under
  /// max_connections forever. 0 disables the timeout. A request being
  /// processed never counts as idle: the clock only runs between frames.
  int idle_timeout_ms = 0;
  BatchingPolicy batching;
  ServiceConfig service;
};

/// Batching augment/score server over plain TCP.
///
/// Threading model (see DESIGN.md, "Serving"):
///   - one accept thread polls the listen socket and spawns one handler
///     thread per connection (bounded by max_connections);
///   - handler threads decode frames, Submit each request to the
///     BatchingQueue with its deadline StopToken, block until the
///     dispatcher completes the request, and write the response frame;
///   - ONE dispatch thread drains the queue batch-by-batch and runs each
///     batch through Service::Execute*Batch — the cross-request batching
///     seam. Being single means Service needs no internal locking and
///     batch composition is a pure function of arrival order and policy.
///
/// Shutdown()/SIGTERM drain ordering (load-bearing, tested by the e2e
/// suite): stop accepting -> close the queue (rejects new submits with
/// kUnavailable, flushes admitted ones) -> dispatcher drains and exits ->
/// handler threads write their final responses and exit -> join all.
/// Only after Wait() returns does the caller export trace counters, so
/// the exported occupancy/queue numbers are complete and no thread is
/// still appending.
///
/// Fault points: "serve.accept" drops a freshly accepted connection;
/// "serve.dispatch" fails a whole batch with kInjectedFault responses
/// (the requests are answered, not lost).
class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the accept + dispatch threads. Returns
  /// kUnavailable when the socket cannot be bound.
  [[nodiscard]] core::Status Start();

  /// The bound TCP port (valid after Start()).
  int port() const { return port_; }

  /// True once Shutdown() began (or a global stop was observed).
  bool draining() const;

  /// Graceful drain, idempotent: stops accepting, completes every
  /// admitted request, answers everything in flight, joins all threads.
  void Shutdown();

  /// Blocks until a global stop (SIGTERM/SIGINT) or Shutdown() from
  /// another thread, then completes the drain. Serving mains call
  /// InstallStopSignalHandlers() then Wait().
  void Wait();

  const Service& service() const { return *service_; }

 private:
  struct Job;

  void AcceptLoop();
  void DispatchLoop();
  void HandleConnection(int fd);
  /// Decodes+submits one message; returns false to close the connection.
  bool ProcessRequest(int fd, Message message);
  void CompleteJob(const std::shared_ptr<Job>& job, std::string response);

  const ServerConfig config_;
  std::unique_ptr<Service> service_;
  std::unique_ptr<BatchingQueue> queue_;

  int listen_fd_ = -1;
  int port_ = 0;

  mutable core::Mutex mu_;
  core::CondVar cv_;
  bool draining_ TSAUG_GUARDED_BY(mu_) = false;
  int open_connections_ TSAUG_GUARDED_BY(mu_) = 0;
  std::vector<std::thread> handlers_ TSAUG_GUARDED_BY(mu_);
  /// started_ flips before the threads are spawned so a racing Shutdown()
  /// never concludes "nothing to join" while Start() is mid-spawn; the
  /// joiner then waits for spawned_ before touching the thread objects.
  bool started_ TSAUG_GUARDED_BY(mu_) = false;
  bool spawned_ TSAUG_GUARDED_BY(mu_) = false;
  /// First Shutdown() caller performs the joins; later callers wait for
  /// joined_ (two threads joining the same std::thread is undefined).
  bool join_started_ TSAUG_GUARDED_BY(mu_) = false;
  bool joined_ TSAUG_GUARDED_BY(mu_) = false;

  std::thread accept_thread_;
  std::thread dispatch_thread_;
};

}  // namespace tsaug::serve

#endif  // TSAUG_SERVE_SERVER_H_
