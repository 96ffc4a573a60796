// Dense set of slot ids: one bit per slot plus a live count.
//
// Slot ids are dense small integers fixed at cluster construction, so the
// free-slot indexes and per-stage locality preferences on the placement hot
// path are bitsets rather than rb-trees or hash sets: membership is one bit
// test, insert/erase touch one word, and iteration visits ids in ascending
// order (countr_zero per set bit), which is the order every placement
// decision is defined over.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "ssr/common/check.h"
#include "ssr/common/ids.h"

namespace ssr {

class SlotSet {
 public:
  /// An empty set that can hold ids in [0, capacity).
  explicit SlotSet(std::uint32_t capacity = 0)
      : words_((static_cast<std::size_t>(capacity) + 63) / 64, 0),
        capacity_(capacity) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// False for any id outside [0, capacity).
  bool contains(SlotId id) const {
    const std::size_t w = id.v / 64;
    return w < words_.size() && ((words_[w] >> (id.v % 64)) & 1u) != 0;
  }

  /// Returns true if `id` was absent.
  bool insert(SlotId id) {
    std::uint64_t& word = word_of(id);
    const std::uint64_t bit = std::uint64_t{1} << (id.v % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    ++size_;
    return true;
  }

  /// Returns true if `id` was present.
  bool erase(SlotId id) {
    std::uint64_t& word = word_of(id);
    const std::uint64_t bit = std::uint64_t{1} << (id.v % 64);
    if ((word & bit) == 0) return false;
    word &= ~bit;
    --size_;
    return true;
  }

  /// Forward iteration in ascending id order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = SlotId;
    using difference_type = std::ptrdiff_t;
    using pointer = const SlotId*;
    using reference = SlotId;

    const_iterator() = default;

    SlotId operator*() const {
      return SlotId{static_cast<std::uint32_t>(
          word_ * 64 + static_cast<std::size_t>(std::countr_zero(bits_)))};
    }
    const_iterator& operator++() {
      bits_ &= bits_ - 1;  // clear the lowest set bit
      skip_empty_words();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const const_iterator& o) const {
      return word_ == o.word_ && bits_ == o.bits_;
    }

   private:
    friend class SlotSet;
    const_iterator(const std::vector<std::uint64_t>* words, std::size_t word)
        : words_(words), word_(word) {
      if (word_ < words_->size()) bits_ = (*words_)[word_];
      skip_empty_words();
    }
    void skip_empty_words() {
      while (bits_ == 0 && word_ < words_->size()) {
        if (++word_ < words_->size()) bits_ = (*words_)[word_];
      }
    }

    const std::vector<std::uint64_t>* words_ = nullptr;
    std::size_t word_ = 0;    ///< words_->size() at end
    std::uint64_t bits_ = 0;  ///< unvisited set bits of word_
  };

  const_iterator begin() const { return const_iterator(&words_, 0); }
  const_iterator end() const { return const_iterator(&words_, words_.size()); }

 private:
  std::uint64_t& word_of(SlotId id) {
    SSR_CHECK_MSG(id.v < capacity_, "slot id outside the set's capacity");
    return words_[id.v / 64];
  }

  std::vector<std::uint64_t> words_;
  std::uint32_t capacity_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ssr
