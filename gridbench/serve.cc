// The serve_open workload: open-loop traffic against an in-process
// serve::Server with its default batching policy. Requests are
// serve::BuildRequest's mix, sent on a seeded Poisson schedule over at
// most four connections (never more than nproc); each is timed from the
// moment it was due, so a stalled connection charges its wait to the
// requests queued behind it.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common.h"
#include "core/rng.h"
#include "core/trace.h"
#include "serve/frame.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "serve/service.h"
#include "spans.h"

namespace gridbench {
namespace {

using tsaug::serve::Message;
using tsaug::serve::MessageType;

/// Offered rate of the fixed-rate step that gives p50_ms/p90_ms, in
/// requests per second. It sits below the batching knee.
constexpr double kFixedRate = 500.0;
/// Shares of --seconds spent on the fixed-rate step, on each ladder rung
/// and on bursts (at least three, after one warm-up burst).
constexpr double kFixedShare = 0.5;
constexpr double kRungShare = 0.05;
constexpr double kBurstShare = 0.35;
/// The rate ladder (requests per second); it spans the knee, where the
/// connections can no longer absorb the arrivals.
constexpr double kLadder[] = {500,  1000, 1250, 1500, 1600, 1700,
                               1800, 1900, 2000, 2200, 2400};
/// A ladder rung meets the limit when its p90 stays within this, 2.5
/// times the default 2 ms linger. The tail percentile is p90, not p99: on
/// a shared 4-vCPU host, p99 moved 0.2-0.7 of its median from run to run
/// on host stalls alone, while p90 keeps at least 10 samples beyond it on
/// every rung and moved under 0.06.
constexpr double kLimitP90Ms = 5.0;
/// Requests per window of the fixed-rate step: one second of arrivals.
constexpr int kWindow = static_cast<int>(kFixedRate);
/// Requests of one burst (all due at once) timed for wall_s and cpu_s.
constexpr int kBurst = 1200;
constexpr int kSetups = 100;

int Connections() {
  const unsigned int nproc = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min(4u, nproc));
}

std::string EncodeMessage(const Message& message) {
  switch (message.type) {
    case MessageType::kAugmentRequest:
      return tsaug::serve::EncodeFrame(
          std::get<tsaug::serve::AugmentRequest>(message.payload));
    case MessageType::kScoreRequest:
      return tsaug::serve::EncodeFrame(
          std::get<tsaug::serve::ScoreRequest>(message.payload));
    case MessageType::kAugmentResponse:
      return tsaug::serve::EncodeFrame(
          std::get<tsaug::serve::AugmentResponse>(message.payload));
    case MessageType::kScoreResponse:
      return tsaug::serve::EncodeFrame(
          std::get<tsaug::serve::ScoreResponse>(message.payload));
  }
  return "";
}

bool ResponseOk(const Message& message) {
  if (message.type == MessageType::kAugmentResponse) {
    return std::get<tsaug::serve::AugmentResponse>(message.payload).status.ok();
  }
  if (message.type == MessageType::kScoreResponse) {
    return std::get<tsaug::serve::ScoreResponse>(message.payload).status.ok();
  }
  return false;
}

/// Expected response frame per request index, computed one request at a
/// time on a private Service: responses must not depend on batching.
std::vector<std::string> ReferenceFrames(const std::vector<Message>& requests) {
  tsaug::serve::Service service(tsaug::serve::DefaultServiceConfig());
  std::vector<std::string> frames;
  frames.reserve(requests.size());
  for (const Message& request : requests) {
    if (request.type == MessageType::kAugmentRequest) {
      const auto& body = std::get<tsaug::serve::AugmentRequest>(request.payload);
      frames.push_back(
          tsaug::serve::EncodeFrame(service.ExecuteAugmentBatch({&body})[0]));
    } else {
      const auto& body = std::get<tsaug::serve::ScoreRequest>(request.payload);
      frames.push_back(
          tsaug::serve::EncodeFrame(service.ExecuteScoreBatch({&body})[0]));
    }
  }
  return frames;
}

/// Arrival offsets (seconds from the step start) of `n` requests at
/// `rate`: a Poisson process drawn from the seed, or all zero for a burst.
std::vector<double> Schedule(std::uint64_t seed, double rate, int n) {
  std::vector<double> due(static_cast<size_t>(n), 0.0);
  if (rate <= 0.0) return due;
  tsaug::core::Rng rng(seed);
  double t = 0.0;
  for (double& offset : due) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    offset = t;
  }
  return due;
}

struct StepResult {
  std::int64_t sent = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;
  std::vector<double> latency_ms;  // per request, from its due time
  std::vector<double> lag_ms;      // send time minus due time
  double wall_s = 0.0;             // first due time to last reply
  double cpu_s = 0.0;
  bool backlog = false;
};

/// Shared by the step's traffic and the traced per-layer spans.
struct Traffic {
  int port = 0;
  const std::vector<Message>* requests = nullptr;
  const std::vector<std::string>* frames = nullptr;    // pre-encoded
  const std::vector<std::string>* expected = nullptr;  // reference replies
  SpanRecorder* spans = nullptr;  // non-null in the traced pass
};

/// Runs one open-loop step: request g (0 <= g < due.size()) is due at
/// due[g]; every connection thread takes the next request in due order,
/// waits until it is due, sends it and blocks for the reply.
StepResult RunStep(const Traffic& traffic, const std::vector<double>& due) {
  const int n = static_cast<int>(due.size());
  const int connections = Connections();
  std::vector<std::unique_ptr<tsaug::serve::Client>> clients;
  StepResult step;
  for (int c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<tsaug::serve::Client>());
    if (!clients.back()->Connect("127.0.0.1", traffic.port).ok()) {
      step.sent = n;
      step.failed = n;
      return step;
    }
  }
  std::vector<double> latency(static_cast<size_t>(n), 0.0);
  std::vector<double> lag(static_cast<size_t>(n), 0.0);
  std::vector<Message> replies(static_cast<size_t>(n));
  std::vector<char> delivered(static_cast<size_t>(n), 0);
  std::atomic<int> next{0};
  const double cpu0 = ProcessCpuSeconds();
  const double start = NowSeconds() + 0.002;  // all threads ready
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    // Each thread writes only the slots of the indices it claimed.
    threads.emplace_back([&, c] {
      tsaug::serve::Client& client = *clients[static_cast<size_t>(c)];
      for (int g = next.fetch_add(1); g < n; g = next.fetch_add(1)) {
        const size_t i = static_cast<size_t>(g);
        const double due_at = start + due[i];
        const double wait = due_at - NowSeconds();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        const double sent_at = NowSeconds();
        std::uint64_t request_span = 0;
        const std::string key = std::to_string(g);
        if (traffic.spans != nullptr) {
          request_span = traffic.spans->Begin("serve.request", 0, key);
        }
        tsaug::core::StatusOr<Message> reply = [&] {
          if (traffic.spans == nullptr) {
            return client.RoundTrip((*traffic.frames)[i]);
          }
          std::string frame;
          {
            ScopedSpan span(*traffic.spans, "frame.encode", request_span, key);
            frame = EncodeMessage((*traffic.requests)[i]);
          }
          ScopedSpan span(*traffic.spans, "client.roundtrip", request_span,
                          key);
          return client.RoundTrip(frame);
        }();
        const double done_at = NowSeconds();
        latency[i] = 1000.0 * (done_at - due_at);
        lag[i] = 1000.0 * (sent_at - due_at);
        if (reply.ok()) {
          replies[i] = std::move(reply).value();
          delivered[i] = 1;
        }
        if (traffic.spans != nullptr) {
          if (delivered[i]) {
            // The client decodes inside RoundTrip; time the same decode
            // on the reply's bytes so the codec gets its own span.
            const std::string bytes = EncodeMessage(replies[i]);
            ScopedSpan span(*traffic.spans, "frame.decode", request_span, key);
            Message decoded;
            std::size_t consumed = 0;
            (void)tsaug::serve::DecodeFrame(bytes, &decoded, &consumed);
          }
          traffic.spans->End(request_span, !delivered[i]);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  step.wall_s = NowSeconds() - start;
  step.cpu_s = ProcessCpuSeconds() - cpu0;
  for (auto& client : clients) client->Close();

  // Output check: every reply must equal the reference reply, bitwise.
  for (int g = 0; g < n; ++g) {
    const size_t i = static_cast<size_t>(g);
    ++step.sent;
    const bool correct = delivered[i] && ResponseOk(replies[i]) &&
                         EncodeMessage(replies[i]) == (*traffic.expected)[i];
    correct ? ++step.ok : ++step.failed;
  }
  step.latency_ms = latency;
  step.lag_ms = lag;
  // Backlog: the generator fell more than 5 ms further behind between the
  // first and the last tenth of the step.
  const std::ptrdiff_t tail =
      std::max<std::ptrdiff_t>(1, static_cast<std::ptrdiff_t>(lag.size()) / 10);
  const std::vector<double> first(lag.begin(), lag.begin() + tail);
  const std::vector<double> last(lag.end() - tail, lag.end());
  step.backlog = Median(last) > Median(first) + 5.0;
  return step;
}

/// Median of a few set-ups: construct the server (its Service fits the
/// ROCKET model), Start() it and connect once. The last server is kept.
double SetUpServer(std::unique_ptr<tsaug::serve::Server>* kept, bool* ok) {
  std::vector<double> seconds;
  *ok = true;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = NowSeconds();
    tsaug::serve::ServerConfig config;
    config.service = tsaug::serve::DefaultServiceConfig();
    auto server = std::make_unique<tsaug::serve::Server>(config);
    bool started = server->Start().ok();
    tsaug::serve::Client probe;
    started = started && probe.Connect("127.0.0.1", server->port()).ok();
    seconds.push_back(NowSeconds() - t0);
    probe.Close();
    *ok = *ok && started;
    if (*kept != nullptr) (*kept)->Shutdown();
    *kept = std::move(server);
  }
  return Median(seconds);
}

/// Median over consecutive windows of `window` requests (in due order) of
/// each window's quantile q. A host stall inflates the tail of the windows
/// it hits, not the median window.
double WindowedQuantile(const std::vector<double>& latency_ms, int window,
                        double q) {
  std::vector<double> per_window;
  for (size_t i = 0; i + static_cast<size_t>(window) <= latency_ms.size();
       i += static_cast<size_t>(window)) {
    per_window.push_back(Quantile(
        std::vector<double>(latency_ms.begin() + static_cast<std::ptrdiff_t>(i),
                            latency_ms.begin() +
                                static_cast<std::ptrdiff_t>(i + window)),
        q));
  }
  return per_window.empty() ? Quantile(latency_ms, q) : Median(per_window);
}

void Tally(const StepResult& step, RunResult& out) {
  out.attempted += step.sent;
  out.failed += step.failed;
}

double Mean(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return values.empty() ? 0.0 : total / static_cast<double>(values.size());
}

/// The highest ladder rate that meets the p90 limit with no failure and
/// no backlog, interpolated toward the next rung by where the p90 crosses
/// the limit. The whole ladder always runs, so a miss below the highest
/// meeting rung (a transient host stall) does not lower it. When no rung
/// meets the limit, the lowest rate scaled down by how far its p90 missed.
double MaxRps(const std::vector<double>& rates, const std::vector<double>& p90,
              const std::vector<char>& meets) {
  size_t best = rates.size();
  for (size_t k = 0; k < rates.size(); ++k) {
    if (meets[k]) best = k;
  }
  if (best == rates.size()) {
    return rates[0] * std::min(1.0, kLimitP90Ms / std::max(p90[0], 1e-9));
  }
  if (best + 1 == rates.size()) return rates[best];
  const double span = p90[best + 1] - p90[best];
  const double frac =
      span > 0 ? std::clamp((kLimitP90Ms - p90[best]) / span, 0.0, 1.0) : 0.0;
  return rates[best] + frac * (rates[best + 1] - rates[best]);
}

}  // namespace

RunResult RunServeWorkload(const RunOptions& options) {
  RunResult out;
  const double budget = options.seconds;
  const int fixed_n = static_cast<int>(kFixedRate * kFixedShare * budget);
  int max_n = std::max(fixed_n, kBurst);
  for (double rate : kLadder) {
    max_n = std::max(max_n, static_cast<int>(rate * kRungShare * budget));
  }

  // Inputs: the request mix for every index any step uses, its encoded
  // frames, and the reference replies.
  tsaug::serve::LoadConfig mix;
  mix.base_seed = options.seed;
  std::vector<Message> requests;
  std::vector<std::string> frames;
  for (int g = 0; g < max_n; ++g) {
    requests.push_back(
        tsaug::serve::BuildRequest(mix, static_cast<std::uint64_t>(g)));
    frames.push_back(EncodeMessage(requests.back()));
  }
  const std::vector<std::string> expected = ReferenceFrames(requests);

  std::unique_ptr<tsaug::serve::Server> server;
  bool started = false;
  const double setup_s = SetUpServer(&server, &started);
  if (!started) {
    std::fprintf(stderr, "gridbench: server failed to start\n");
    out.correct = false;
    out.attempted = 1;
    out.failed = 1;
    return out;
  }
  Traffic traffic;
  traffic.port = server->port();
  traffic.requests = &requests;
  traffic.frames = &frames;
  traffic.expected = &expected;
  std::printf("serve_open: %d connections, seed %llu, p90 limit %.1f ms\n",
              Connections(), static_cast<unsigned long long>(options.seed),
              kLimitP90Ms);

  auto burst = [&](int index) {
    StepResult step = RunStep(
        traffic, Schedule(options.seed * 131 + 7 + static_cast<std::uint64_t>(index),
                          0.0, kBurst));
    Tally(step, out);
    return step;
  };
  auto report = [](const char* label, double rate, const StepResult& step) {
    std::printf("%s %6.0f rps: sent %lld ok %lld failed %lld, p50 %.3f ms, "
                "p90 %.3f ms, p99 %.3f ms, gen lag p99 %.3f ms, cpu %.3f s, "
                "backlog %s\n",
                label, rate, static_cast<long long>(step.sent),
                static_cast<long long>(step.ok),
                static_cast<long long>(step.failed),
                Quantile(step.latency_ms, 0.5), Quantile(step.latency_ms, 0.9),
                Quantile(step.latency_ms, 0.99), Quantile(step.lag_ms, 0.99),
                step.cpu_s, step.backlog ? "GROWING" : "no");
  };

  if (!options.trace) {
    // The warm-up burst fills the server's and the connections' buffers;
    // its replies are checked but its times are not used.
    burst(0);
    const StepResult fixed = RunStep(
        traffic, Schedule(options.seed * 131 + 1, kFixedRate, fixed_n));
    Tally(fixed, out);
    report("fixed ", kFixedRate, fixed);
    std::vector<double> burst_s;
    std::vector<double> burst_cpu_s;
    const double burst_start = NowSeconds();
    for (int i = 1; i <= 3 || NowSeconds() - burst_start < kBurstShare * budget;
         ++i) {
      const StepResult step = burst(i);
      burst_s.push_back(step.wall_s);
      burst_cpu_s.push_back(step.cpu_s);
    }
    server->Shutdown();

    out.Add("setup_s", setup_s, "s");
    out.Add("wall_s", Median(burst_s), "s");
    out.Add("cpu_s", Median(burst_cpu_s), "s");
    out.Add("peak_rss_mb", PeakRssMb(), "MB");
    out.Add("p50_ms", WindowedQuantile(fixed.latency_ms, kWindow, 0.5), "ms");
    out.Add("p90_ms", WindowedQuantile(fixed.latency_ms, kWindow, 0.9), "ms");
    std::printf("bursts measured: %zu x %d requests; p50/p90 from %lld "
                "requests at %.0f rps\n",
                burst_s.size(), kBurst, static_cast<long long>(fixed.sent),
                kFixedRate);
    out.correct = out.failed == 0;
    return out;
  }

  // Traced run. First the rate ladder, untraced: max_rps is the highest
  // rate that meets the p90 limit without a growing backlog. It is a
  // per-layer figure, not an end-to-end metric, because on a shared host
  // it moved by 0.1-0.3 of its median between runs.
  std::vector<double> rates;
  std::vector<double> p90;
  std::vector<char> meets;
  for (double rate : kLadder) {
    const StepResult step = RunStep(
        traffic, Schedule(options.seed * 131 + 2 + static_cast<std::uint64_t>(rate),
                          rate, static_cast<int>(rate * kRungShare * budget)));
    Tally(step, out);
    report("ladder", rate, step);
    rates.push_back(rate);
    p90.push_back(Quantile(step.latency_ms, 0.9));
    meets.push_back(step.failed == 0 && !step.backlog &&
                    p90.back() <= kLimitP90Ms);
  }

  // Then untraced and traced bursts alternate for the overhead ratio; the
  // fixed-rate step runs traced with the library's serve
  // counters on; then a private Service replays the step's requests in
  // batches of the observed occupancy to time the Service layer.
  SpanRecorder spans;
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  for (int i = 0; i < 2; ++i) {
    plain_s.push_back(burst(i).wall_s);
    traffic.spans = &spans;
    traced_s.push_back(burst(i).wall_s);
    traffic.spans = nullptr;
  }
  tsaug::core::trace::Reset();
  tsaug::core::trace::Enable();
  traffic.spans = &spans;
  const std::uint64_t first_fixed_span = spans.Spans().size() + 1;
  const StepResult fixed = RunStep(
      traffic, Schedule(options.seed * 131 + 1, kFixedRate, fixed_n));
  Tally(fixed, out);
  traffic.spans = nullptr;
  std::int64_t batches = 0;
  std::int64_t batched = 0;
  for (const auto& [name, value] : tsaug::core::trace::Counters()) {
    const std::string prefix = "serve.batch_size.";
    if (name.rfind(prefix, 0) == 0) {
      batches += value;
      batched += value * std::stoll(name.substr(prefix.size()));
    }
  }
  const double occupancy =
      batches > 0 ? static_cast<double>(batched) / static_cast<double>(batches)
                  : 0.0;
  const std::int64_t rejected =
      tsaug::core::trace::CounterValue("serve.rejected");
  const std::int64_t expired = tsaug::core::trace::CounterValue("serve.expired");
  tsaug::core::trace::Disable();
  server->Shutdown();

  // Service layer: the fixed step's requests, per type, in batches of the
  // mean occupancy the server cut.
  const size_t batch = static_cast<size_t>(std::max(1.0, std::round(occupancy)));
  tsaug::serve::Service service(tsaug::serve::DefaultServiceConfig());
  std::vector<const tsaug::serve::AugmentRequest*> augment;
  std::vector<const tsaug::serve::ScoreRequest*> score;
  for (int g = 0; g < fixed_n; ++g) {
    const Message& request = requests[static_cast<size_t>(g)];
    if (request.type == MessageType::kAugmentRequest) {
      augment.push_back(&std::get<tsaug::serve::AugmentRequest>(request.payload));
    } else {
      score.push_back(&std::get<tsaug::serve::ScoreRequest>(request.payload));
    }
  }
  const std::uint64_t service_root = spans.Begin("service", 0, "replay");
  auto replay = [&](const auto& items, const char* name, auto execute) {
    using Item = typename std::decay_t<decltype(items)>::value_type;
    for (size_t i = 0; i < items.size(); i += batch) {
      const std::vector<Item> part(
          items.begin() + static_cast<std::ptrdiff_t>(i),
          items.begin() +
              static_cast<std::ptrdiff_t>(std::min(items.size(), i + batch)));
      ScopedSpan span(spans, name, service_root, std::to_string(i));
      execute(part);
    }
  };
  replay(augment, "service.augment_batch",
         [&](const auto& part) { (void)service.ExecuteAugmentBatch(part); });
  replay(score, "service.score_batch",
         [&](const auto& part) { (void)service.ExecuteScoreBatch(part); });
  spans.End(service_root);

  const std::vector<Span> all = spans.Spans();
  const auto layers = LayerTable(all);
  auto mean_of = [&](const std::string& name, std::uint64_t from_id) {
    std::vector<double> values;
    for (const Span& span : all) {
      if (span.id >= from_id && span.name == name) {
        values.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
      }
    }
    return Mean(values);
  };
  const double encode_us = 1e6 * mean_of("frame.encode", first_fixed_span);
  const double decode_us = 1e6 * mean_of("frame.decode", first_fixed_span);
  const double augment_ms = 1e3 * mean_of("service.augment_batch", service_root);
  const double score_ms = 1e3 * mean_of("service.score_batch", service_root);
  const double score_share =
      fixed_n > 0 ? static_cast<double>(score.size()) / fixed_n : 0.0;
  const double compute_ms =
      (1.0 - score_share) * augment_ms + score_share * score_ms;
  out.Add("frame.encode_us", encode_us, "us");
  out.Add("frame.decode_us", decode_us, "us");
  out.Add("service.augment_batch_ms", augment_ms, "ms");
  out.Add("service.score_batch_ms", score_ms, "ms");
  out.Add("serve.occupancy_mean", occupancy, "requests");
  out.Add("serve.rejected", static_cast<double>(rejected), "count");
  out.Add("serve.expired", static_cast<double>(expired), "count");
  out.Add("serve.queue_residual_ms",
          Mean(fixed.latency_ms) - compute_ms - (encode_us + decode_us) / 1e3,
          "ms");
  out.Add("serve.gen_lag_ms", Quantile(fixed.lag_ms, 0.99), "ms");
  out.Add("serve.max_rps", MaxRps(rates, p90, meets), "1/s");
  out.Add("trace_overhead_ratio", Median(traced_s) / Median(plain_s), "ratio");
  FillMissingPerLayer(out);
  PrintLayerTable(layers);

  const std::string span_path = options.out_dir + "/" + options.workload +
                                "-seed" + std::to_string(options.seed) +
                                ".spans.jsonl";
  if (!spans.WriteJsonLines(span_path)) {
    std::fprintf(stderr, "gridbench: cannot write %s\n", span_path.c_str());
    out.correct = false;
  }
  std::printf("spans: %zu written to %s\n", all.size(), span_path.c_str());
  out.correct = out.correct && out.failed == 0;
  return out;
}

}  // namespace gridbench
