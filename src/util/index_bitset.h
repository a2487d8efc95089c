// A set of indices drawn from a fixed universe [0, n), one bit per index.
//
// insert / erase / contains are O(1), size() is O(1) (a maintained count),
// and iteration visits members in ascending order with one
// count-trailing-zeros per member plus one load per 64-index word — so a
// sparse set over a large universe costs O(n/64 + members) to walk, and a
// walk that starts at `from` skips everything below it.  The sharded
// engine keeps its serving and live server sets in these (DESIGN.md §11.2).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.h"

namespace gc {

class IndexBitset {
 public:
  IndexBitset() = default;
  explicit IndexBitset(std::size_t universe) { assign(universe); }

  // Resets to the empty set over [0, universe).
  void assign(std::size_t universe) {
    universe_ = universe;
    count_ = 0;
    words_.assign((universe + 63) / 64, 0);
  }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  [[nodiscard]] bool contains(std::size_t i) const noexcept {
    return i < universe_ && ((words_[i / 64] >> (i % 64)) & 1u) != 0;
  }

  // Inserting a member or erasing a non-member is a logic error (GC_DCHECK).
  void insert(std::size_t i) {
    GC_DCHECK(i < universe_ && !contains(i), "IndexBitset: bad insert");
    words_[i / 64] |= std::uint64_t{1} << (i % 64);
    ++count_;
  }
  void erase(std::size_t i) {
    GC_DCHECK(contains(i), "IndexBitset: bad erase");
    words_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    --count_;
  }

  // Calls fn(i) for every member i >= from, ascending.  fn may erase the
  // member it is visiting (or any smaller one); it must not insert or
  // erase members greater than the one it is visiting.
  template <typename Fn>
  void for_each_from(std::size_t from, Fn&& fn) const {
    if (from >= universe_) return;
    std::size_t w = from / 64;
    std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (from % 64));
    for (;;) {
      while (bits != 0) {
        const std::size_t i = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        fn(i);
      }
      if (++w == words_.size()) return;
      bits = words_[w];
    }
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for_each_from(0, fn);
  }

 private:
  std::size_t universe_ = 0;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace gc
