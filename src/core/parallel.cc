#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>
#include <vector>

#include "core/cancel.h"
#include "core/check.h"
#include "core/parse.h"
#include "core/thread_annotations.h"
#include "core/trace.h"

namespace tsaug::core {
namespace {

thread_local bool t_in_parallel_region = false;

/// One ParallelFor invocation: a chunked range claimed via an atomic
/// cursor by the submitting thread and the pool workers.
struct Batch {
  const std::function<void(std::int64_t, std::int64_t)>* fn = nullptr;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t chunk = 1;
  std::int64_t num_chunks = 0;
  std::atomic<std::int64_t> next_chunk{0};
  std::atomic<bool> stop{false};
  /// Pool workers currently inside Work() for this batch. Incremented
  /// under the pool's wake mutex (before the batch is unpublished), so
  /// once the submitter unpublishes the batch and observes zero it can
  /// never rise again.
  std::atomic<int> active_workers{0};

  Mutex mu;
  CondVar done_cv;
  std::exception_ptr error TSAUG_GUARDED_BY(mu);  // first exception only

  /// Claims and runs chunks until the range is drained or an error
  /// stopped the batch. `from_worker` labels the trace stats: chunks a
  /// pool worker steals vs. chunks the submitting thread drains itself.
  void Work(bool from_worker) {
    for (;;) {
      if (stop.load(std::memory_order_relaxed)) break;
      // Cooperative cancellation (core/cancel.h): a process-wide stop
      // request abandons the batch's remaining chunks at the next chunk
      // boundary. Callers that keep going after a stop observe partial
      // output, so status-bearing callers (the experiment grid, TryFit
      // paths) re-poll CheckStop after every ParallelFor and discard the
      // partial work. Nested ParallelFor calls run inline as one chunk
      // and are never abandoned, so a grid cell either completes fully
      // and deterministically or fails with kCancelled — never a torn
      // in-between. Marking the batch stopped lets the submitter see it
      // drained; its unclaimed chunks will never run.
      if (GlobalStopRequested()) {
        stop.store(true, std::memory_order_relaxed);
        break;
      }
      const std::int64_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      trace::AddCount(from_worker ? "parallel.chunks.worker"
                                  : "parallel.chunks.caller");
      const std::int64_t lo = begin + c * chunk;
      const std::int64_t hi = std::min(end, lo + chunk);
      t_in_parallel_region = true;
      try {
        (*fn)(lo, hi);
      } catch (...) {
        MutexLock lock(mu);
        if (!error) error = std::current_exception();
        stop.store(true, std::memory_order_relaxed);
      }
      t_in_parallel_region = false;
    }
  }

  bool Drained() const {
    return stop.load(std::memory_order_relaxed) ||
           next_chunk.load(std::memory_order_relaxed) >= num_chunks;
  }
};

/// Process-wide worker pool. Workers sleep until a Batch is published,
/// drain it cooperatively with the submitting thread, then go back to
/// sleep. Submission is serialised: only one Batch is live at a time
/// (nested ParallelFor calls run inline and never reach the pool).
class ThreadPool {
 public:
  static ThreadPool& Instance() {
    static ThreadPool* pool = new ThreadPool();  // leaked: lives for process
    return *pool;
  }

  int num_threads() TSAUG_EXCLUDES(config_mu_) {
    MutexLock lock(config_mu_);
    return num_threads_;
  }

  void set_num_threads(int n) TSAUG_EXCLUDES(config_mu_) {
    MutexLock lock(config_mu_);
    num_threads_ = std::clamp(n, 1, kMaxThreads);
  }

  void Run(Batch& batch) TSAUG_EXCLUDES(submit_mu_, wake_mu_) {
    MutexLock submit(submit_mu_);
    EnsureWorkers(num_threads() - 1);
    {
      MutexLock lock(wake_mu_);
      current_ = &batch;
      ++epoch_;
    }
    wake_cv_.NotifyAll();

    // The submitting thread works too; often it drains the whole range
    // before a worker even wakes up.
    batch.Work(/*from_worker=*/false);

    // Unpublish first: after this no new worker can attach, so once
    // active_workers reaches zero the batch is finished for good.
    {
      MutexLock lock(wake_mu_);
      current_ = nullptr;
    }
    std::exception_ptr error;
    {
      MutexLock lock(batch.mu);
      while (batch.active_workers.load(std::memory_order_acquire) != 0 ||
             !batch.Drained()) {
        batch.done_cv.Wait(batch.mu);
      }
      error = batch.error;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  ThreadPool() = default;

  void EnsureWorkers(int target) TSAUG_REQUIRES(submit_mu_) {
    const int have = static_cast<int>(workers_.size());
    if (have == target) return;
    if (have > target) StopWorkers();
    while (static_cast<int>(workers_.size()) < target) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void StopWorkers() TSAUG_REQUIRES(submit_mu_) {
    {
      MutexLock lock(wake_mu_);
      stopping_ = true;
    }
    wake_cv_.NotifyAll();
    for (std::thread& t : workers_) t.join();
    workers_.clear();
    {
      MutexLock lock(wake_mu_);
      stopping_ = false;
    }
  }

  void WorkerLoop() TSAUG_EXCLUDES(wake_mu_) {
    std::uint64_t seen_epoch = 0;
    for (;;) {
      Batch* batch = nullptr;
      {
        // Explicit predicate loop (not a wait-with-lambda): every read of
        // the guarded members happens right here, where the analysis can
        // see wake_mu_ is held.
        MutexLock lock(wake_mu_);
        while (!stopping_ && (current_ == nullptr || epoch_ == seen_epoch)) {
          wake_cv_.Wait(wake_mu_);
        }
        if (stopping_) return;
        seen_epoch = epoch_;
        batch = current_;
        // Attach while the batch is still published (wake_mu_ held).
        batch->active_workers.fetch_add(1, std::memory_order_acq_rel);
      }
      trace::AddCount("parallel.worker_wakes");
      batch->Work(/*from_worker=*/true);
      {
        // Notify under the lock: the submitter destroys the Batch as soon
        // as its predicate holds, so touching batch after releasing mu
        // (even just cv.notify) would race with that destruction.
        MutexLock lock(batch->mu);
        batch->active_workers.fetch_sub(1, std::memory_order_acq_rel);
        batch->done_cv.NotifyAll();
      }
    }
  }

  Mutex config_mu_;
  int num_threads_ TSAUG_GUARDED_BY(config_mu_) =
      ParseNumThreads(std::getenv("TSAUG_NUM_THREADS"),
                      static_cast<int>(
                          std::max(1u, std::thread::hardware_concurrency())));

  Mutex submit_mu_;  // one live batch at a time
  Mutex wake_mu_;
  CondVar wake_cv_;
  Batch* current_ TSAUG_GUARDED_BY(wake_mu_) = nullptr;
  std::uint64_t epoch_ TSAUG_GUARDED_BY(wake_mu_) = 0;
  bool stopping_ TSAUG_GUARDED_BY(wake_mu_) = false;
  std::vector<std::thread> workers_ TSAUG_GUARDED_BY(submit_mu_);
};

}  // namespace

int ParseNumThreads(const char* value, int fallback) {
  fallback = std::clamp(fallback, 1, kMaxThreads);
  if (value == nullptr || *value == '\0') return fallback;
  const std::optional<std::int64_t> n = ParseInt<std::int64_t>(value, 1);
  if (n) return static_cast<int>(std::min<std::int64_t>(*n, kMaxThreads));
  std::fprintf(stderr, "tsaug: ignoring TSAUG_NUM_THREADS=\"%s\"\n", value);
  return fallback;
}

int GetNumThreads() { return ThreadPool::Instance().num_threads(); }

void SetNumThreads(int num_threads) {
  ThreadPool::Instance().set_num_threads(num_threads);
}

bool InParallelRegion() { return t_in_parallel_region; }

void ParallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (end <= begin) return;
  grain = std::max<std::int64_t>(1, grain);
  const std::int64_t range = end - begin;
  const int threads = GetNumThreads();

  // Inline fast path: nested regions, single-threaded configuration, or
  // ranges too small to be worth waking workers. Running the whole range
  // as one chunk is bitwise identical to any chunked execution because
  // call sites compute independent output slices per index.
  if (t_in_parallel_region || threads == 1 || range <= grain) {
    trace::AddCount("parallel.inline_regions");
    const bool was_in_region = t_in_parallel_region;
    t_in_parallel_region = true;
    try {
      fn(begin, end);
    } catch (...) {
      t_in_parallel_region = was_in_region;
      throw;
    }
    t_in_parallel_region = was_in_region;
    return;
  }

  Batch batch;
  batch.fn = &fn;
  batch.begin = begin;
  batch.end = end;
  // At least `grain` indices per chunk, but no more chunks than ~4 per
  // thread needed for dynamic balancing of uneven per-index cost.
  batch.chunk = std::max<std::int64_t>(
      grain, (range + static_cast<std::int64_t>(threads) * 4 - 1) /
                 (static_cast<std::int64_t>(threads) * 4));
  batch.num_chunks = (range + batch.chunk - 1) / batch.chunk;
  trace::AddCount("parallel.pool_regions");
  ThreadPool::Instance().Run(batch);
}

}  // namespace tsaug::core
