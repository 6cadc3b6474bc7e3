// Page-backed buffers for per-call working sets.
//
// A multi-megabyte std::vector goes through glibc malloc, whose dynamic
// mmap threshold rises to the size of the last freed mmapped chunk: after
// one call frees its buffer, the next call's buffer of the same size is
// carved from the heap instead, where its pages stay resident after free
// until a trim.  Peak RSS and run time then depend on what earlier calls
// happened to allocate.  A PageBuffer maps its own anonymous pages and
// unmaps them on destruction, so every call sees the same fresh memory
// and returns it to the kernel when done.
//
// The pages arrive zero-filled and cost nothing until first touched.
// Off Linux the buffer falls back to calloc/free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace dht::common {

class PageBuffer {
 public:
  /// Maps `bytes` zero-filled bytes starting at a multiple of `align` (a
  /// power of two; 0 takes what the mapping gives, at least page-aligned);
  /// throws std::bad_alloc on failure.  Alignment costs `align` bytes of
  /// address space, never touched.
  explicit PageBuffer(std::size_t bytes, std::size_t align = 0)
      : mapped_bytes_(bytes == 0 ? 0 : bytes + align) {
    if (bytes == 0) {
      return;
    }
#if defined(__linux__)
    void* p = ::mmap(nullptr, mapped_bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      throw std::bad_alloc();
    }
    mapped_ = p;
#else
    mapped_ = std::calloc(mapped_bytes_, 1);
    if (mapped_ == nullptr) {
      throw std::bad_alloc();
    }
#endif
    std::uintptr_t begin = reinterpret_cast<std::uintptr_t>(mapped_);
    if (align != 0) {
      begin = (begin + align - 1) & ~(std::uintptr_t{align} - 1);
    }
    data_ = reinterpret_cast<void*>(begin);
  }

  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;

  ~PageBuffer() {
    if (mapped_ == nullptr) {
      return;
    }
#if defined(__linux__)
    (void)::munmap(mapped_, mapped_bytes_);
#else
    std::free(mapped_);
#endif
  }

  /// The mapping viewed as an array of T.
  template <typename T>
  T* as() const noexcept {
    return static_cast<T*>(data_);
  }

 private:
  // The whole mapping, and the aligned start inside it that as() returns.
  void* mapped_ = nullptr;
  std::size_t mapped_bytes_ = 0;
  void* data_ = nullptr;
};

}  // namespace dht::common
