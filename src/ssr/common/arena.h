// Chunked object arena with stable addresses.
//
// The engine keeps long-lived per-job and per-stage runtime records whose
// addresses are cached all over the hot path (the offer index, attempt
// back-pointers, scheduled-event captures).  A plain vector invalidates
// addresses on growth, and vector<unique_ptr<T>> pays one allocator
// round-trip plus one pointer indirection per record — measurable at fig15
// scale where hundreds of thousands of stages are created.  The arena
// allocates fixed-size chunks and constructs records in place: addresses are
// stable for the arena's lifetime, allocation is amortized O(1) with one
// malloc per ChunkSize records, and index lookup is two derefs.
//
// Records are append-only and destroyed together (exactly the engine's job /
// stage lifetime model); there is no per-record free.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "ssr/common/check.h"

namespace ssr {

template <typename T, std::size_t ChunkSize = 64>
class Arena {
  static_assert(ChunkSize > 0, "arena chunks must hold at least one record");

 public:
  Arena() = default;
  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() = default;

  /// Construct a record in place; the returned reference (and its address)
  /// stays valid for the arena's lifetime.
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (chunks_.empty() || chunks_.back()->count == ChunkSize) {
      chunks_.push_back(std::make_unique<Chunk>());
    }
    Chunk& chunk = *chunks_.back();
    T* rec = ::new (chunk.raw(chunk.count)) T(std::forward<Args>(args)...);
    ++chunk.count;  // after construction: a throwing ctor leaves size_ intact
    ++size_;
    return *rec;
  }

  T& operator[](std::size_t i) {
    return *chunks_[i / ChunkSize]->slot(i % ChunkSize);
  }
  const T& operator[](std::size_t i) const {
    return *chunks_[i / ChunkSize]->slot(i % ChunkSize);
  }

  /// Bounds-checked access (mirrors vector::at, via SSR_CHECK).
  T& at(std::size_t i) {
    SSR_CHECK_MSG(i < size_, "arena index out of range");
    return (*this)[i];
  }
  const T& at(std::size_t i) const {
    SSR_CHECK_MSG(i < size_, "arena index out of range");
    return (*this)[i];
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  struct Chunk {
    alignas(T) std::byte storage[sizeof(T) * ChunkSize];
    std::size_t count = 0;

    void* raw(std::size_t i) { return storage + i * sizeof(T); }
    T* slot(std::size_t i) {
      return std::launder(reinterpret_cast<T*>(storage + i * sizeof(T)));
    }
    const T* slot(std::size_t i) const {
      return std::launder(
          reinterpret_cast<const T*>(storage + i * sizeof(T)));
    }
    ~Chunk() {
      for (std::size_t i = count; i > 0; --i) slot(i - 1)->~T();
    }
  };

  /// unique_ptr chunks: the chunk vector may relocate, the records never do.
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace ssr
