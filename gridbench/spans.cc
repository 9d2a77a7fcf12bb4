#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace gridbench {

std::int64_t SpanNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t SpanRecorder::Begin(const std::string& name,
                                  std::uint64_t parent,
                                  const std::string& key) {
  Span span;
  span.parent = parent;
  span.name = name;
  span.key = key;
  span.start_ns = SpanNowNs();
  std::lock_guard<std::mutex> lock(mu_);
  span.id = spans_.size() + 1;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::End(std::uint64_t id, bool failed) {
  const std::int64_t now = SpanNowNs();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_.at(id - 1);
  span.end_ns = now;
  span.failed = failed;
}

std::vector<Span> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, LayerStats> LayerTable(const std::vector<Span>& spans) {
  std::uint64_t max_id = 0;
  for (const Span& span : spans) max_id = std::max(max_id, span.id);
  // Child intervals per parent, so self time subtracts the part of the
  // parent's interval its children cover (children on several threads can
  // overlap each other; their union is what is subtracted).
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      max_id + 1);
  for (const Span& span : spans) {
    if (span.parent != 0 && span.parent <= max_id) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, LayerStats> layers;
  for (const Span& span : spans) {
    std::int64_t covered = 0;
    auto& intervals = children[span.id];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo_raw, hi_raw] : intervals) {
      const std::int64_t lo = std::max(lo_raw, span.start_ns);
      const std::int64_t hi = std::min(hi_raw, span.end_ns);
      if (hi <= lo) continue;
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    const std::int64_t duration = span.end_ns - span.start_ns;
    LayerStats& stats = layers[span.name];
    ++stats.calls;
    if (span.failed) ++stats.failed;
    stats.busy_s += static_cast<double>(duration) * 1e-9;
    stats.self_s += static_cast<double>(duration - covered) * 1e-9;
  }
  return layers;
}

void PrintLayerTable(const std::map<std::string, LayerStats>& layers) {
  std::printf("%-28s %8s %6s %12s %12s\n", "layer", "calls", "failed",
              "busy_s", "self_s");
  for (const auto& [name, stats] : layers) {
    std::printf("%-28s %8lld %6lld %12.6f %12.6f\n", name.c_str(),
                static_cast<long long>(stats.calls),
                static_cast<long long>(stats.failed), stats.busy_s,
                stats.self_s);
  }
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  bool ok = true;
  for (const Span& span : Spans()) {
    // Names and keys are benchmark-chosen identifiers (dataset and
    // technique names, indices): no character needs JSON escaping.
    ok = std::fprintf(file,
                      "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                      "\"key\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                      "\"failed\":%s}\n",
                      static_cast<unsigned long long>(span.id),
                      static_cast<unsigned long long>(span.parent),
                      span.name.c_str(), span.key.c_str(),
                      static_cast<long long>(span.start_ns),
                      static_cast<long long>(span.end_ns),
                      span.failed ? "true" : "false") > 0 &&
         ok;
  }
  return std::fclose(file) == 0 && ok;
}

}  // namespace gridbench
