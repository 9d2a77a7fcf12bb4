#ifndef TSAUG_CORE_PARALLEL_H_
#define TSAUG_CORE_PARALLEL_H_

#include <cstdint>
#include <functional>

namespace tsaug::core {

/// Shared-thread-pool parallelism for the numeric hot paths.
///
/// Design contract (the determinism guarantee every call site relies on):
/// `ParallelFor` only ever partitions an index range into disjoint chunks
/// and hands each chunk to `fn(chunk_begin, chunk_end)`. A call site is
/// correct when every index computes an *independent output slice* whose
/// value does not depend on chunk boundaries — then results are bitwise
/// identical for any thread count, grain, or scheduling order. Reductions
/// across indices must either stay serial or reduce partials in a fixed
/// index order.
///
/// The pool is process-wide and lazily initialised. Its size comes from
/// the `TSAUG_NUM_THREADS` environment variable (read once at first use),
/// falling back to `std::thread::hardware_concurrency()`; `SetNumThreads`
/// overrides it at runtime. Nested `ParallelFor` calls (from inside a
/// worker) run inline on the calling thread, so composed parallel code
/// cannot deadlock or oversubscribe.

/// Number of threads `ParallelFor` distributes work across (>= 1; the
/// calling thread is one of them).
int GetNumThreads();

/// Overrides the thread count at runtime. Values < 1 are clamped to 1.
/// Not safe to call concurrently with an in-flight ParallelFor.
void SetNumThreads(int num_threads);

/// True while the calling thread is executing inside a ParallelFor chunk
/// (worker or caller); nested ParallelFor calls then run inline.
bool InParallelRegion();

/// Parses a thread-count string (as found in `TSAUG_NUM_THREADS`) with
/// core/parse.h. Returns `fallback` for null/empty values, and with a
/// stderr warning for malformed, non-positive or 64-bit-overflowing ones;
/// large values are clamped to `kMaxThreads`. Exposed for tests.
int ParseNumThreads(const char* value, int fallback);

/// Hard upper bound on the configurable thread count.
inline constexpr int kMaxThreads = 256;

/// Runs `fn(lo, hi)` over disjoint chunks covering [begin, end).
///
/// `grain` is the minimum number of indices per chunk (>= 1): ranges no
/// larger than `grain` — and all nested calls — run inline as a single
/// `fn(begin, end)` call with no synchronisation. Chunks are claimed
/// dynamically by the caller plus the pool workers, so uneven per-index
/// cost (e.g. triangular pairwise loops) still balances. The first
/// exception thrown by any chunk is rethrown on the calling thread after
/// all in-flight chunks finish; remaining unclaimed chunks are skipped.
void ParallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)>& fn);

}  // namespace tsaug::core

#endif  // TSAUG_CORE_PARALLEL_H_
