// In-memory span recorder for the traced runs. Spans are recorded by the
// benchmark's own code around its calls into each layer's public
// functions; the library's code is not instrumented. Spans stay in memory
// until the run ends, then are written out once and folded into the
// per-layer table.
#ifndef GRIDBENCH_SPANS_H_
#define GRIDBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace gridbench {

struct Span {
  std::uint64_t id = 0;
  /// 0 = root.
  std::uint64_t parent = 0;
  std::string name;
  /// Work identity: "dataset/run<r>/cell<c>" for grid cells (a row or a
  /// phase carries its dataset or dataset/run prefix), the global request
  /// index for serve.
  std::string key;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool failed = false;
};

/// Per-name totals over every span of that name.
struct LayerStats {
  std::int64_t calls = 0;
  std::int64_t failed = 0;
  double busy_s = 0.0;  // summed durations
  double self_s = 0.0;  // durations minus the union of child intervals
};

/// Thread-safe span store. Begin() may be called from pool workers; the
/// parent id is passed explicitly so spans nest across threads.
class SpanRecorder {
 public:
  std::uint64_t Begin(const std::string& name, std::uint64_t parent,
                      const std::string& key);
  void End(std::uint64_t id, bool failed = false);

  /// Snapshot of every recorded span (call once the workload finished).
  std::vector<Span> Spans() const;

  /// Writes one JSON object per span, one per line. Returns false on an
  /// I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; index = id - 1
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const std::string& name,
             std::uint64_t parent, const std::string& key)
      : recorder_(recorder), id_(recorder.Begin(name, parent, key)) {}
  ~ScopedSpan() { recorder_.End(id_, failed_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }
  void MarkFailed() { failed_ = true; }

 private:
  SpanRecorder& recorder_;
  std::uint64_t id_;
  bool failed_ = false;
};

/// Totals per span name over `spans`, with self time computed from the
/// child spans present in the same list.
std::map<std::string, LayerStats> LayerTable(const std::vector<Span>& spans);

/// Prints the per-layer table (calls, failed, busy and self seconds).
void PrintLayerTable(const std::map<std::string, LayerStats>& layers);

/// Nanoseconds on the steady clock (the spans' time base).
std::int64_t SpanNowNs();

}  // namespace gridbench

#endif  // GRIDBENCH_SPANS_H_
