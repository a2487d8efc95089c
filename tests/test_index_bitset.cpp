#include "util/index_bitset.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <vector>

#include "stats/rng.h"

namespace gc {
namespace {

std::vector<std::size_t> members_from(const IndexBitset& set, std::size_t from) {
  std::vector<std::size_t> out;
  set.for_each_from(from, [&](std::size_t i) { out.push_back(i); });
  return out;
}

TEST(IndexBitset, StartsEmpty) {
  const IndexBitset set(200);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(members_from(set, 0).empty());
  EXPECT_FALSE(set.contains(0));
  EXPECT_FALSE(set.contains(500));  // outside the universe
}

TEST(IndexBitset, WordEdgesInsertEraseAndIterate) {
  // 130 = two full words plus a two-bit tail word.
  IndexBitset set(130);
  for (const std::size_t i : {0u, 63u, 64u, 127u, 128u, 129u}) set.insert(i);
  EXPECT_EQ(set.size(), 6u);
  EXPECT_EQ(members_from(set, 0), (std::vector<std::size_t>{0, 63, 64, 127, 128, 129}));
  EXPECT_TRUE(set.contains(63));
  EXPECT_TRUE(set.contains(64));
  EXPECT_FALSE(set.contains(62));
  EXPECT_FALSE(set.contains(65));
  set.erase(63);
  set.erase(129);
  EXPECT_EQ(set.size(), 4u);
  EXPECT_FALSE(set.contains(63));
  EXPECT_EQ(members_from(set, 0), (std::vector<std::size_t>{0, 64, 127, 128}));
}

TEST(IndexBitset, ForEachFromStartsMidWord) {
  IndexBitset set(256);
  for (const std::size_t i : {3u, 10u, 40u, 70u, 200u}) set.insert(i);
  EXPECT_EQ(members_from(set, 10), (std::vector<std::size_t>{10, 40, 70, 200}));
  EXPECT_EQ(members_from(set, 11), (std::vector<std::size_t>{40, 70, 200}));
  EXPECT_EQ(members_from(set, 64), (std::vector<std::size_t>{70, 200}));
  EXPECT_EQ(members_from(set, 201), (std::vector<std::size_t>{}));
  EXPECT_EQ(members_from(set, 255), (std::vector<std::size_t>{}));
  EXPECT_EQ(members_from(set, 256), (std::vector<std::size_t>{}));  // == universe
  EXPECT_EQ(members_from(set, 9999), (std::vector<std::size_t>{}));
}

TEST(IndexBitset, ErasingTheVisitedMemberDuringIteration) {
  IndexBitset set(192);
  for (std::size_t i = 0; i < 192; i += 3) set.insert(i);
  const std::size_t before = set.size();
  std::vector<std::size_t> visited;
  set.for_each_from(50, [&](std::size_t i) {
    visited.push_back(i);
    set.erase(i);  // the sharded reconcile drains what it visits
  });
  // Every member >= 50 was visited exactly once, ascending, and is gone.
  std::vector<std::size_t> expected;
  for (std::size_t i = 51; i < 192; i += 3) expected.push_back(i);
  EXPECT_EQ(visited, expected);
  EXPECT_EQ(set.size(), before - expected.size());
  EXPECT_TRUE(members_from(set, 50).empty());
  EXPECT_EQ(members_from(set, 0).back(), 48u);
}

TEST(IndexBitset, AssignResets) {
  IndexBitset set(64);
  set.insert(5);
  set.assign(10);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(5));
  set.insert(9);
  EXPECT_EQ(members_from(set, 0), (std::vector<std::size_t>{9}));
}

// Randomized agreement with std::set over a universe that is not a
// multiple of the word size.
TEST(IndexBitset, MatchesOrderedSetUnderRandomOperations) {
  constexpr std::size_t kUniverse = 1000;
  Rng rng(17);
  IndexBitset set(kUniverse);
  std::set<std::size_t> ref;
  for (int op = 0; op < 20000; ++op) {
    const std::size_t i = rng.uniform_below(kUniverse);
    if (ref.count(i) != 0) {
      set.erase(i);
      ref.erase(i);
    } else {
      set.insert(i);
      ref.insert(i);
    }
    ASSERT_EQ(set.size(), ref.size());
    if (op % 997 == 0) {
      const std::size_t from = rng.uniform_below(kUniverse + 10);
      const std::vector<std::size_t> want(ref.lower_bound(from), ref.end());
      ASSERT_EQ(members_from(set, from), want) << "from=" << from;
    }
  }
}

}  // namespace
}  // namespace gc
