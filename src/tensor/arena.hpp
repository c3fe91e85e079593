// Scratch arena for the zero-alloc inference hot path.
//
// An Arena is a size-bucketed free list of heap blocks. While an ArenaScope
// is active on a thread, every Storage (tensor payload, im2col scratch,
// ArenaAlloc container) allocated on that thread takes its block from the
// arena and returns it there on destruction. After one warm-up pass the
// arena holds a block for every size the workload uses, so steady-state
// inference performs zero heap allocations (proven by the
// counting-allocator test, enforced by the hot-path-alloc lint rule).
//
// Ownership and threading:
//  * An Arena is single-thread-at-a-time: it has no internal locking. The
//    serve tier gives each batching worker its own arena; the engine owns
//    a fallback arena for direct classify_batch callers.
//  * Blocks are plain std::malloc blocks, so a block may legally be taken
//    from one arena and released to another (or to the heap) -- tensors
//    that escape a scope degrade to ordinary heap behaviour, they never
//    corrupt anything.
//  * With no scope active, scratch_alloc/scratch_free degrade to plain
//    malloc/free: cold paths and training are unaffected.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace darnet::tensor {

class Arena {
 public:
  Arena() = default;
  ~Arena() { release(); }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Pop a cached block of (rounded) `bytes`, or fall back to the heap.
  [[nodiscard]] void* take(std::size_t bytes);
  /// Cache a block for reuse, or free it to the heap when its size's free
  /// list already holds as many blocks as this arena has ever taken from
  /// the heap at that size -- its own peak number of live blocks. Blocks
  /// allocated elsewhere and freed under this arena's scope (a request
  /// tensor built on another thread) therefore cannot grow the cache
  /// without bound.
  void put(void* p, std::size_t bytes);

  /// Bytes currently held in the free lists (the arena's footprint).
  [[nodiscard]] std::size_t bytes_cached() const noexcept {
    return bytes_cached_;
  }
  /// Heap allocations performed on behalf of this arena (cache misses).
  [[nodiscard]] std::uint64_t heap_allocs() const noexcept {
    return heap_allocs_;
  }

  /// Free every cached block back to the heap.
  void release() noexcept;

 private:
  struct Bucket {
    std::size_t bytes = 0;           // rounded block size
    std::vector<void*> blocks;       // free blocks of exactly `bytes`
    std::size_t heap_blocks = 0;     // take() misses at this size: the cap
  };

  Bucket& bucket_for(std::size_t bytes);

  std::vector<Bucket> buckets_;      // sorted by Bucket::bytes
  std::size_t bytes_cached_ = 0;
  std::uint64_t heap_allocs_ = 0;
};

namespace detail {
// The thread's active arena (innermost ArenaScope), if any.
inline thread_local Arena* t_current_arena = nullptr;
// Heap fallback, kept out-of-line so malloc/free live in exactly one TU.
[[nodiscard]] void* heap_alloc(std::size_t bytes);
void heap_free(void* p) noexcept;
}  // namespace detail

[[nodiscard]] inline Arena* current_arena() noexcept {
  return detail::t_current_arena;
}

/// RAII activation of an arena on the current thread. Scopes nest; the
/// innermost wins (the engine's fallback scope defers to a serve worker's).
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) noexcept
      : prev_(detail::t_current_arena) {
    detail::t_current_arena = &arena;
  }
  ~ArenaScope() { detail::t_current_arena = prev_; }

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* prev_;
};

/// Allocate `bytes` from the thread's arena, or the heap when none is
/// active. Pair every call with scratch_free of the same size.
[[nodiscard]] inline void* scratch_alloc(std::size_t bytes) {
  if (Arena* a = detail::t_current_arena) return a->take(bytes);
  return detail::heap_alloc(bytes);
}

inline void scratch_free(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (Arena* a = detail::t_current_arena) {
    a->put(p, bytes);
    return;
  }
  detail::heap_free(p);
}

/// Arena-backed contiguous float buffer -- the Tensor payload and the
/// sanctioned replacement for std::vector<float> on the inference hot
/// path (hot-path-alloc lint rule). Value-semantic like vector, but the
/// backing block comes from the thread's scratch arena when one is
/// active, and construction can skip the zero-fill (Init::kUninit) for
/// buffers that are fully overwritten.
class Storage {
 public:
  enum class Init : std::uint8_t { kZeroed, kUninit };

  Storage() noexcept = default;
  explicit Storage(std::size_t n, Init init = Init::kZeroed)
      : p_(n ? static_cast<float*>(scratch_alloc(n * sizeof(float)))
             : nullptr),
        n_(n) {
    if (p_ != nullptr && init == Init::kZeroed) {
      std::memset(p_, 0, n_ * sizeof(float));
    }
  }
  Storage(const Storage& other) : Storage(other.n_, Init::kUninit) {
    if (n_ != 0) std::memcpy(p_, other.p_, n_ * sizeof(float));
  }
  Storage(Storage&& other) noexcept : p_(other.p_), n_(other.n_) {
    other.p_ = nullptr;
    other.n_ = 0;
  }
  Storage& operator=(const Storage& other) {
    if (this != &other) assign_copy(other.p_, other.n_);
    return *this;
  }
  Storage& operator=(Storage&& other) noexcept {
    if (this != &other) {
      scratch_free(p_, n_ * sizeof(float));
      p_ = other.p_;
      n_ = other.n_;
      other.p_ = nullptr;
      other.n_ = 0;
    }
    return *this;
  }
  ~Storage() { scratch_free(p_, n_ * sizeof(float)); }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] float* data() noexcept { return p_; }
  [[nodiscard]] const float* data() const noexcept { return p_; }
  [[nodiscard]] float* begin() noexcept { return p_; }
  [[nodiscard]] float* end() noexcept { return p_ + n_; }
  [[nodiscard]] const float* begin() const noexcept { return p_; }
  [[nodiscard]] const float* end() const noexcept { return p_ + n_; }
  float& operator[](std::size_t i) noexcept { return p_[i]; }
  float operator[](std::size_t i) const noexcept { return p_[i]; }

  /// Re-size (discarding contents) and copy `n` floats from src.
  void assign_copy(const float* src, std::size_t n) {
    if (n_ != n) {
      scratch_free(p_, n_ * sizeof(float));
      p_ = n ? static_cast<float*>(scratch_alloc(n * sizeof(float))) : nullptr;
      n_ = n;
    }
    if (n != 0) std::memcpy(p_, src, n * sizeof(float));
  }

  /// Re-size without preserving or initialising contents.
  void resize_uninit(std::size_t n) {
    if (n_ != n) {
      scratch_free(p_, n_ * sizeof(float));
      p_ = n ? static_cast<float*>(scratch_alloc(n * sizeof(float))) : nullptr;
      n_ = n;
    }
  }

 private:
  float* p_ = nullptr;
  std::size_t n_ = 0;
};

/// Minimal allocator funnelling container storage through the thread's
/// scratch arena (e.g. the per-batch std::vector<Tensor> in
/// ParallelConcat). Stateless: any instance may free any other's memory,
/// because everything bottoms out in malloc-compatible blocks.
template <typename T>
struct ArenaAlloc {
  using value_type = T;

  ArenaAlloc() noexcept = default;
  template <typename U>
  ArenaAlloc(const ArenaAlloc<U>&) noexcept {}  // NOLINT: converting ctor

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(scratch_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    scratch_free(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const ArenaAlloc<U>&) const noexcept {
    return true;
  }
};

}  // namespace darnet::tensor
