#include "tensor/arena.hpp"

#include <algorithm>
#include <cstdlib>
#include <new>

namespace darnet::tensor {

namespace {

// Round block sizes to a cache line so nearly-equal requests share a
// bucket instead of fragmenting the free lists.
constexpr std::size_t kRound = 64;

std::size_t round_bytes(std::size_t bytes) {
  return (bytes + kRound - 1) / kRound * kRound;
}

}  // namespace

namespace detail {

void* heap_alloc(std::size_t bytes) {
  // Always allocate the rounded size: a block allocated with no scope
  // active may later be put() into an arena, whose buckets assume every
  // block holds its full rounded size.
  void* p = std::malloc(round_bytes(bytes ? bytes : 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void heap_free(void* p) noexcept { std::free(p); }

}  // namespace detail

Arena::Bucket& Arena::bucket_for(std::size_t bytes) {
  auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), bytes,
      [](const Bucket& b, std::size_t want) { return b.bytes < want; });
  if (it == buckets_.end() || it->bytes != bytes) {
    it = buckets_.insert(it, Bucket{bytes, {}, 0});
  }
  return *it;
}

void* Arena::take(std::size_t bytes) {
  const std::size_t rounded = round_bytes(bytes);
  Bucket& bucket = bucket_for(rounded);
  if (!bucket.blocks.empty()) {
    void* p = bucket.blocks.back();
    bucket.blocks.pop_back();
    bytes_cached_ -= rounded;
    return p;
  }
  // A miss means every block this bucket has taken is live, so while its
  // blocks come back here heap_blocks is the peak number of live blocks.
  ++bucket.heap_blocks;
  ++heap_allocs_;
  return detail::heap_alloc(rounded);
}

void Arena::put(void* p, std::size_t bytes) {
  const std::size_t rounded = round_bytes(bytes);
  const auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), rounded,
      [](const Bucket& b, std::size_t want) { return b.bytes < want; });
  if (it == buckets_.end() || it->bytes != rounded ||
      it->blocks.size() >= it->heap_blocks) {
    detail::heap_free(p);  // surplus: the next take() would not need it
    return;
  }
  it->blocks.push_back(p);
  bytes_cached_ += rounded;
}

void Arena::release() noexcept {
  for (Bucket& b : buckets_) {
    for (void* p : b.blocks) detail::heap_free(p);
    b.blocks.clear();
  }
  buckets_.clear();
  bytes_cached_ = 0;
}

}  // namespace darnet::tensor
