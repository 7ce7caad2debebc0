// Tests for OrderedBits (radio/ordered_bits.h), the two-level bitmap the
// engine drains its touched receiver cells from and keeps its active set
// in: ascending walks at the word and summary-word boundaries, sizes that
// are not a multiple of 64, repeated inserts, empty drains, and the
// touched range a walk trims — against a std::set model on random
// operation streams.

#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <vector>

#include "radio/ordered_bits.h"
#include "support/rng.h"

namespace radiomc {
namespace {

std::vector<std::size_t> walk(OrderedBits& b) {
  std::vector<std::size_t> out;
  b.for_each([&out](std::size_t i) { out.push_back(i); });
  return out;
}

std::vector<std::size_t> drain(OrderedBits& b) {
  std::vector<std::size_t> out;
  b.drain([&out](std::size_t i) { out.push_back(i); });
  return out;
}

TEST(OrderedBits, WordAndSummaryBoundariesComeBackAscending) {
  const std::size_t n = 5000;  // three summary words, the last one partial
  const std::vector<std::size_t> want = {0,    63,   64,   4095,
                                         4096, 4097, n - 1};
  OrderedBits b;
  b.reset(n);
  EXPECT_TRUE(b.untouched());
  for (const std::size_t i : {n - 1, std::size_t{4097}, std::size_t{64},
                              std::size_t{0}, std::size_t{4096},
                              std::size_t{63}, std::size_t{4095}})
    EXPECT_TRUE(b.insert(i)) << i;
  EXPECT_FALSE(b.untouched());
  const std::set<std::size_t> members(want.begin(), want.end());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(b.contains(i), members.contains(i)) << i;
  EXPECT_EQ(walk(b), want);
  EXPECT_EQ(walk(b), want);  // a walk keeps the members
  EXPECT_EQ(drain(b), want);
  EXPECT_TRUE(b.untouched());
  for (const std::size_t i : want) EXPECT_FALSE(b.contains(i)) << i;
  EXPECT_TRUE(drain(b).empty());
}

TEST(OrderedBits, SizesThatAreNotAMultipleOf64) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{63}, std::size_t{65},
                              std::size_t{4097}, std::size_t{4161}}) {
    OrderedBits b;
    b.reset(n);
    EXPECT_TRUE(b.insert(n - 1)) << n;
    EXPECT_EQ(b.insert(0), n > 1) << n;  // n == 1: 0 is n - 1
    std::vector<std::size_t> want = {0};
    if (n > 1) want.push_back(n - 1);
    EXPECT_EQ(walk(b), want) << n;
    EXPECT_EQ(drain(b), want) << n;
    EXPECT_TRUE(b.untouched()) << n;
  }
}

TEST(OrderedBits, RepeatedInsertsAreVisitedOnce) {
  OrderedBits b;
  b.reset(300);
  EXPECT_TRUE(b.insert(130));
  for (int k = 0; k < 5; ++k) EXPECT_FALSE(b.insert(130));
  EXPECT_TRUE(b.insert(129));
  EXPECT_FALSE(b.insert(129));
  EXPECT_EQ(drain(b), (std::vector<std::size_t>{129, 130}));
  // Once drained, the same index is new again.
  EXPECT_TRUE(b.insert(130));
  EXPECT_EQ(drain(b), (std::vector<std::size_t>{130}));
}

TEST(OrderedBits, AQuietRoundLeavesTheSetEmptyAndUntouched) {
  // The engine drains its receiver cells every slot; a slot with no
  // transmission inserts nothing, so its drain visits nothing and leaves
  // no touched range behind for the next slot to walk.
  OrderedBits b;
  b.reset(1'000'000);
  EXPECT_TRUE(drain(b).empty());
  EXPECT_TRUE(b.untouched());
  b.insert(999'999);
  b.insert(3);
  EXPECT_EQ(drain(b), (std::vector<std::size_t>{3, 999'999}));
  EXPECT_TRUE(b.untouched());
  EXPECT_TRUE(drain(b).empty());
  EXPECT_TRUE(b.untouched());
}

TEST(OrderedBits, EraseLeavesTheRangeUntilAWalkTrimsIt) {
  OrderedBits b;
  b.reset(20'000);
  b.insert(5);
  b.insert(9000);
  b.insert(19'999);
  b.erase(9000);
  b.erase(9000);  // erasing a non-member is a no-op
  EXPECT_EQ(walk(b), (std::vector<std::size_t>{5, 19'999}));
  b.erase(5);
  b.erase(19'999);
  EXPECT_FALSE(b.untouched());  // emptied by erase: not trimmed yet
  EXPECT_TRUE(walk(b).empty());
  EXPECT_TRUE(b.untouched());   // the walk trimmed the range
  EXPECT_TRUE(b.insert(8191));
  EXPECT_EQ(walk(b), (std::vector<std::size_t>{8191}));
}

TEST(OrderedBits, RandomOperationsMatchAnOrderedSet) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{97},
                              std::size_t{4097}, std::size_t{70'000}}) {
    Rng rng(0x0B175 + n);
    OrderedBits b;
    b.reset(n);
    std::set<std::size_t> model;
    for (int op = 0; op < 20'000; ++op) {
      const std::size_t i = rng.next_below(n);
      switch (rng.next_below(10)) {
        case 0:
          ASSERT_EQ(drain(b),
                    std::vector<std::size_t>(model.begin(), model.end()))
              << n << " op " << op;
          model.clear();
          ASSERT_TRUE(b.untouched());
          break;
        case 1:
          ASSERT_EQ(walk(b),
                    std::vector<std::size_t>(model.begin(), model.end()))
              << n << " op " << op;
          ASSERT_EQ(b.untouched(), model.empty());
          break;
        case 2:
        case 3:
        case 4:
          b.erase(i);
          model.erase(i);
          break;
        default:
          ASSERT_EQ(b.insert(i), model.insert(i).second) << n << " " << i;
          break;
      }
      ASSERT_EQ(b.contains(i), model.contains(i));
    }
  }
}

}  // namespace
}  // namespace radiomc
