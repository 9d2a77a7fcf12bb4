#ifndef TSAUG_TESTS_ALLOCATION_CAP_H_
#define TSAUG_TESTS_ALLOCATION_CAP_H_

// Replaces the global operator new of the test binary that includes this
// header, so that any single request above kAllocationCapBytes throws
// std::bad_alloc instead of reserving memory. A hostile-input test then
// fails, instead of exhausting the host, when the code under test sizes a
// buffer from an untrusted field before checking it. Include it from
// exactly one .cc of a test binary.

#include <cstddef>
#include <cstdlib>
#include <new>

inline constexpr std::size_t kAllocationCapBytes = std::size_t{1} << 30;

// Out of line, so the compiler never pairs the malloc/free inside with the
// new/delete expressions at call sites (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (size > kAllocationCapBytes) throw std::bad_alloc();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

#endif  // TSAUG_TESTS_ALLOCATION_CAP_H_
