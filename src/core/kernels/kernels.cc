// Backend resolution for the kernel seam: TSAUG_BACKEND env override,
// CPU auto-detection, and the process-wide active table.

#include "core/kernels/kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tsaug::core::kernels {
namespace {

// Encoded resolved backend: 0 = unresolved, 1 = scalar, 2 = simd.
// Plain int (not Backend) keeps the atomic's zero-init constant so this TU
// has no dynamic initialiser. This is the seam's only shared mutable
// state, and it is deliberately lock-free rather than mutex-guarded
// (core/thread_annotations.h): resolution is an idempotent benign race,
// SetBackend is a single release store, and every dispatch pays one
// acquire load — a capability here would serialise the hot path the
// kernel tables exist to parallelise.
std::atomic<int> g_backend{0};

int Encode(Backend b) { return b == Backend::kSimd ? 2 : 1; }
Backend Decode(int v) { return v == 2 ? Backend::kSimd : Backend::kScalar; }

/// Applies ParseBackendSpec to TSAUG_BACKEND and picks the table: a
/// forced "simd" falls back to scalar, with a stderr note, when the table
/// is unavailable; auto-detect takes the fastest table present.
Backend Resolve() {
  const char* value = std::getenv("TSAUG_BACKEND");
  switch (ParseBackendSpec(value)) {
    case BackendSpec::kForceScalar:
      return Backend::kScalar;
    case BackendSpec::kForceSimd:
      if (SimdKernels() == nullptr) {
        std::fprintf(stderr,
                     "tsaug: TSAUG_BACKEND=simd requested but the SIMD "
                     "backend is unavailable (not compiled in or unsupported "
                     "CPU); using the scalar backend.\n");
        return Backend::kScalar;
      }
      return Backend::kSimd;
    case BackendSpec::kAuto:
      if (value != nullptr && *value != '\0') {
        std::fprintf(stderr, "tsaug: ignoring TSAUG_BACKEND=\"%s\"\n", value);
      }
      break;
  }
  return SimdKernels() != nullptr ? Backend::kSimd : Backend::kScalar;
}

}  // namespace

BackendSpec ParseBackendSpec(const char* value) {
  if (value != nullptr && std::strcmp(value, "scalar") == 0) {
    return BackendSpec::kForceScalar;
  }
  if (value != nullptr && std::strcmp(value, "simd") == 0) {
    return BackendSpec::kForceSimd;
  }
  return BackendSpec::kAuto;
}

Backend ActiveBackend() {
  int v = g_backend.load(std::memory_order_acquire);
  if (v == 0) {
    // Benign race: concurrent first callers resolve to the same value.
    v = Encode(Resolve());
    g_backend.store(v, std::memory_order_release);
  }
  return Decode(v);
}

const KernelTable& Active() {
  if (ActiveBackend() == Backend::kSimd) {
    const KernelTable* simd = SimdKernels();
    if (simd != nullptr) return *simd;
  }
  return ScalarKernels();
}

Backend SetBackend(Backend backend) {
  if (backend == Backend::kSimd && SimdKernels() == nullptr) {
    backend = Backend::kScalar;
  }
  g_backend.store(Encode(backend), std::memory_order_release);
  return backend;
}

bool SimdAvailable() { return SimdKernels() != nullptr; }

const char* BackendName(Backend backend) {
  return backend == Backend::kSimd ? "simd" : "scalar";
}

}  // namespace tsaug::core::kernels
