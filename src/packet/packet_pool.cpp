#include "packet/packet_pool.h"

#include <cstddef>
#include <new>
#include <utility>
#include <vector>

namespace livesec::pkt {

namespace {

/// Free blocks, all of one size: allocate_shared performs a single allocation
/// of its internal node type (control block + Packet), so every block this
/// pool ever sees has identical size — which also makes blocks freely
/// interchangeable between threads' pools.
struct PoolState {
  std::vector<void*> free_blocks;
  std::size_t block_size = 0;

  ~PoolState() {
    for (void* b : free_blocks) ::operator delete(b);
  }
};

/// Bounds pool memory (~4k blocks of ~0.3KB per thread) under burst churn.
constexpr std::size_t kMaxPooledBlocks = 4096;

/// One pool per thread, so threads recycle packets without a shared free
/// list (no lock, no false sharing). A packet freed on another thread simply
/// retires into that thread's pool — blocks are interchangeable.
///
/// The raw guard pointer is nulled when the thread's pool is destroyed
/// (thread exit / static teardown), so late deallocations — a packet held by
/// a static, or freed on a thread that never allocated — fall back to plain
/// operator delete instead of touching a dead pool.
thread_local PoolState* tls_pool = nullptr;

struct TlsHolder {
  PoolState state;
  TlsHolder() { tls_pool = &state; }
  ~TlsHolder() { tls_pool = nullptr; }
};

/// Current thread's pool, constructed on first allocation.
PoolState* current_pool() {
  static thread_local TlsHolder holder;
  return tls_pool;
}

template <typename T>
struct RecyclingAllocator {
  using value_type = T;

  RecyclingAllocator() = default;
  template <typename U>
  RecyclingAllocator(const RecyclingAllocator<U>&) {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    if (n == 1) {
      PoolState* pool = current_pool();
      if (pool != nullptr && pool->block_size == sizeof(T) && !pool->free_blocks.empty()) {
        void* b = pool->free_blocks.back();
        pool->free_blocks.pop_back();
        return static_cast<T*>(b);
      }
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) {
    // No construction here: during thread/static teardown the guard is
    // already null and the block takes the plain-delete path.
    PoolState* pool = tls_pool;
    if (n == 1 && pool != nullptr &&
        (pool->block_size == 0 || pool->block_size == sizeof(T)) &&
        pool->free_blocks.size() < kMaxPooledBlocks) {
      pool->block_size = sizeof(T);
      pool->free_blocks.push_back(p);
      return;
    }
    ::operator delete(p);
  }

  template <typename U>
  bool operator==(const RecyclingAllocator<U>&) const {
    return true;  // stateless: any instance can free any instance's blocks
  }
  template <typename U>
  bool operator!=(const RecyclingAllocator<U>&) const {
    return false;
  }
};

}  // namespace

std::shared_ptr<Packet> pooled_packet(Packet&& p) {
  return std::allocate_shared<Packet>(RecyclingAllocator<Packet>(), std::move(p));
}

}  // namespace livesec::pkt
