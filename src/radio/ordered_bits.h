#pragma once

// A set of indices in [0, N) that hands its members back in ascending
// order without sorting: a two-level bitmap. Bit i of the leaf words
// marks member i; bit w of the summary words marks a nonzero leaf word w.
// Insert and erase are O(1). A walk visits only the summary words in the
// range [lo, hi) ever touched since the set was last empty, then one leaf
// word per set summary bit and one step per member, so its cost follows
// the members, not N: an empty walk costs nothing at any N.
//
// The engine keeps two of these. Phase 2 of a slot inserts each receiver
// cell it touches and Phase 3 drains them, which visits the cells in the
// (node, channel) order the engine's output is defined in. The active set
// keeps its members here and rebuilds its ascending member list from a
// walk on the slots where someone joined.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace radiomc {

class OrderedBits {
 public:
  /// Empty set over [0, n).
  void reset(std::size_t n) {
    leaf_.assign((n + 63) / 64, 0);
    summary_.assign((leaf_.size() + 63) / 64, 0);
    lo_ = summary_.size();
    hi_ = 0;
  }

  bool contains(std::size_t i) const noexcept {
    return (leaf_[i >> 6] >> (i & 63)) & 1;
  }

  /// Adds `i`; returns whether it was absent.
  bool insert(std::size_t i) noexcept {
    std::uint64_t& word = leaf_[i >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (word & bit) return false;
    if (word == 0) {
      const std::size_t s = i >> 12;
      summary_[s] |= std::uint64_t{1} << ((i >> 6) & 63);
      if (s < lo_) lo_ = s;
      if (s >= hi_) hi_ = s + 1;
    }
    word |= bit;
    return true;
  }

  /// Removes `i` if present. The touched range stays as it is; the next
  /// walk trims it.
  void erase(std::size_t i) noexcept {
    std::uint64_t& word = leaf_[i >> 6];
    word &= ~(std::uint64_t{1} << (i & 63));
    if (word == 0) summary_[i >> 12] &= ~(std::uint64_t{1} << ((i >> 6) & 63));
  }

  /// True iff no summary word has been touched since the set was last
  /// empty. Implies no members; a set emptied by erase() reads false
  /// until a walk trims the range.
  bool untouched() const noexcept { return lo_ >= hi_; }

  /// Calls `f(i)` for every member, ascending, and trims the touched
  /// range to the summary words that still hold members. `f` must not
  /// change the set.
  template <typename F>
  void for_each(F&& f) {
    std::size_t first = summary_.size(), last = 0;
    for (std::size_t s = lo_; s < hi_; ++s) {
      std::uint64_t sum = summary_[s];
      if (sum == 0) continue;
      if (first > s) first = s;
      last = s + 1;
      while (sum != 0) {
        const std::size_t w = s * 64 + std::countr_zero(sum);
        sum &= sum - 1;
        for (std::uint64_t bits = leaf_[w]; bits != 0; bits &= bits - 1)
          f(w * 64 + std::countr_zero(bits));
      }
    }
    lo_ = first;
    hi_ = last;
  }

  /// Calls `f(i)` for every member, ascending, removing each; the set is
  /// empty and untouched afterwards. `f` must not change the set.
  template <typename F>
  void drain(F&& f) {
    for (std::size_t s = lo_; s < hi_; ++s) {
      std::uint64_t sum = summary_[s];
      summary_[s] = 0;
      while (sum != 0) {
        const std::size_t w = s * 64 + std::countr_zero(sum);
        sum &= sum - 1;
        std::uint64_t bits = leaf_[w];
        leaf_[w] = 0;
        for (; bits != 0; bits &= bits - 1) f(w * 64 + std::countr_zero(bits));
      }
    }
    lo_ = summary_.size();
    hi_ = 0;
  }

 private:
  std::vector<std::uint64_t> leaf_;     // bit i: member i
  std::vector<std::uint64_t> summary_;  // bit w: leaf_[w] != 0
  std::size_t lo_ = 0, hi_ = 0;         // summary words touched: [lo_, hi_)
};

}  // namespace radiomc
