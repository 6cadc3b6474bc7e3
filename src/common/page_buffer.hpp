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
#include <cstdlib>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace dht::common {

class PageBuffer {
 public:
  /// Maps `bytes` zero-filled bytes; throws std::bad_alloc on failure.
  explicit PageBuffer(std::size_t bytes) : bytes_(bytes) {
    if (bytes == 0) {
      return;
    }
#if defined(__linux__)
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      throw std::bad_alloc();
    }
    data_ = p;
#else
    data_ = std::calloc(bytes, 1);
    if (data_ == nullptr) {
      throw std::bad_alloc();
    }
#endif
  }

  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;

  ~PageBuffer() {
    if (data_ == nullptr) {
      return;
    }
#if defined(__linux__)
    (void)::munmap(data_, bytes_);
#else
    std::free(data_);
#endif
  }

  /// The mapping viewed as an array of T.
  template <typename T>
  T* as() const noexcept {
    return static_cast<T*>(data_);
  }

 private:
  void* data_ = nullptr;
  std::size_t bytes_ = 0;
};

}  // namespace dht::common
