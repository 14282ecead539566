#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/dictionary.h"
#include "common/flat_map.h"
#include "common/relset.h"
#include "common/ring_buffer.h"
#include "common/rng.h"
#include "common/str_util.h"

namespace iqro {
namespace {

TEST(RelSetTest, BasicOps) {
  RelSet s = RelSingleton(0) | RelSingleton(3) | RelSingleton(5);
  EXPECT_EQ(RelCount(s), 3);
  EXPECT_TRUE(RelContains(s, 0));
  EXPECT_TRUE(RelContains(s, 3));
  EXPECT_FALSE(RelContains(s, 1));
  EXPECT_EQ(RelLowest(s), 0);
  EXPECT_TRUE(RelIsSubset(RelSingleton(3), s));
  EXPECT_FALSE(RelIsSubset(RelSingleton(2), s));
  EXPECT_TRUE(RelIsSubset(s, s));
  EXPECT_TRUE(RelDisjoint(RelSingleton(1), s));
  EXPECT_FALSE(RelDisjoint(RelSingleton(3), s));
}

TEST(RelSetTest, ForEachVisitsAscending) {
  RelSet s = RelSingleton(2) | RelSingleton(7) | RelSingleton(9);
  std::vector<int> seen;
  RelForEach(s, [&](int i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<int>{2, 7, 9}));
}

TEST(RelSetTest, HalfPartitionCoversEachSplitOnce) {
  // For a 4-element set there are 2^(4-1) - 1 = 7 unordered 2-partitions.
  RelSet s = 0b1111;
  std::set<RelSet> lefts;
  RelForEachHalfPartition(s, [&](RelSet left) {
    EXPECT_NE(left, 0u);
    EXPECT_NE(left, s);
    EXPECT_TRUE(RelIsSubset(left, s));
    EXPECT_TRUE(RelContains(left, RelLowest(s)));  // canonical side
    EXPECT_TRUE(lefts.insert(left).second) << "duplicate partition";
  });
  EXPECT_EQ(lefts.size(), 7u);
}

TEST(RelSetTest, HalfPartitionSingletonAndPair) {
  int count = 0;
  RelForEachHalfPartition(RelSingleton(4), [&](RelSet) { ++count; });
  EXPECT_EQ(count, 0);  // no proper partition of a singleton
  std::vector<RelSet> lefts;
  RelForEachHalfPartition(0b101, [&](RelSet l) { lefts.push_back(l); });
  ASSERT_EQ(lefts.size(), 1u);
  EXPECT_EQ(lefts[0], 0b001u);
}

TEST(RelSetTest, ToString) { EXPECT_EQ(RelSetToString(0b101), "{0,2}"); }

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextBelow(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleIsUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);  // rough uniformity
}

TEST(ZipfTest, UniformWhenThetaZero) {
  Rng rng(13);
  ZipfGenerator z(100, 0.0);
  std::vector<int> counts(101, 0);
  for (int i = 0; i < 50000; ++i) ++counts[z.Sample(rng)];
  for (int v = 1; v <= 100; ++v) {
    EXPECT_GT(counts[v], 300) << v;  // expected 500 each
    EXPECT_LT(counts[v], 700) << v;
  }
}

TEST(ZipfTest, SkewConcentratesMassOnSmallValues) {
  Rng rng(17);
  ZipfGenerator z(1000, 0.9);
  int head = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (z.Sample(rng) <= 10) ++head;
  }
  // With theta=0.9 the top-10 values carry a large share of the mass.
  EXPECT_GT(head, kDraws / 4);
}

TEST(ZipfTest, SamplesStayInRange) {
  Rng rng(19);
  for (double theta : {0.0, 0.5, 0.99, 1.0}) {
    ZipfGenerator z(50, theta);
    for (int i = 0; i < 2000; ++i) {
      uint64_t v = z.Sample(rng);
      EXPECT_GE(v, 1u);
      EXPECT_LE(v, 50u);
    }
  }
}

TEST(PermutationTest, IsAPermutation) {
  Rng rng(23);
  auto perm = RandomPermutation(100, rng);
  std::set<uint32_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(DictionaryTest, InternLookupDecode) {
  Dictionary d;
  int64_t a = d.Intern("hello");
  int64_t b = d.Intern("world");
  EXPECT_NE(a, b);
  EXPECT_EQ(d.Intern("hello"), a);  // stable
  EXPECT_EQ(d.Lookup("hello"), a);
  EXPECT_EQ(d.Lookup("absent"), -1);
  EXPECT_EQ(d.Decode(a), "hello");
  EXPECT_EQ(d.Decode(b), "world");
  EXPECT_EQ(d.size(), 2u);
}

TEST(StrUtilTest, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrUtilTest, Join) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StrUtilTest, DoubleToString) {
  EXPECT_EQ(DoubleToString(1.5), "1.5");
  EXPECT_EQ(DoubleToString(0.0), "0");
}

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

TEST(ArenaTest, AddressesStableAcrossGrowth) {
  Arena arena(/*first_block_bytes=*/64, /*max_block_bytes=*/256);
  std::vector<uint64_t*> ptrs;
  for (uint64_t i = 0; i < 1000; ++i) ptrs.push_back(arena.New<uint64_t>(i));
  ASSERT_GT(arena.num_blocks(), 2u);  // growth definitely happened
  for (uint64_t i = 0; i < 1000; ++i) EXPECT_EQ(*ptrs[i], i) << i;
  EXPECT_GE(arena.bytes_used(), 1000 * sizeof(uint64_t));
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
}

TEST(ArenaTest, RespectsAlignment) {
  Arena arena(/*first_block_bytes=*/32);
  (void)arena.Allocate(1, 1);  // misalign the cursor
  for (size_t align : {2u, 4u, 8u, 16u}) {
    void* p = arena.Allocate(3, align);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u) << align;
  }
}

TEST(ArenaTest, OversizedRequestGetsDedicatedBlock) {
  Arena arena(/*first_block_bytes=*/16, /*max_block_bytes=*/32);
  char* big = static_cast<char*>(arena.Allocate(1000));
  std::memset(big, 0x5A, 1000);  // must be fully usable
  char* after = static_cast<char*>(arena.Allocate(8));
  EXPECT_NE(after, nullptr);
  EXPECT_EQ(big[999], 0x5A);
}

TEST(ArenaTest, NewConstructsObjects) {
  struct Pair {
    int a;
    int b;
  };
  Arena arena;
  Pair* p = arena.New<Pair>(3, 4);
  EXPECT_EQ(p->a, 3);
  EXPECT_EQ(p->b, 4);
}

// ---------------------------------------------------------------------------
// FlatMap64
// ---------------------------------------------------------------------------

TEST(FlatMapTest, InsertFindEraseBasics) {
  FlatMap64<int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(7), nullptr);
  auto [v, inserted] = m.TryEmplace(7, 70);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, 70);
  auto [v2, inserted2] = m.TryEmplace(7, 700);
  EXPECT_FALSE(inserted2);    // existing entry wins
  EXPECT_EQ(*v2, 70);
  ASSERT_NE(m.Find(7), nullptr);
  EXPECT_EQ(*m.Find(7), 70);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.Erase(7));
  EXPECT_FALSE(m.Erase(7));
  EXPECT_EQ(m.Find(7), nullptr);
  EXPECT_TRUE(m.empty());
}

TEST(FlatMapTest, ExtremeKeysWork) {
  FlatMap64<int> m;
  m.TryEmplace(0, 1);
  m.TryEmplace(~uint64_t{0}, 2);
  EXPECT_EQ(*m.Find(0), 1);
  EXPECT_EQ(*m.Find(~uint64_t{0}), 2);
}

TEST(FlatMapTest, RehashPreservesEntries) {
  FlatMap64<std::string> m;  // non-trivial value type exercises move-on-rehash
  const size_t initial_capacity = 0;
  EXPECT_EQ(m.capacity(), initial_capacity);
  for (uint64_t k = 0; k < 500; ++k) m.TryEmplace(k * 1000003, std::to_string(k));
  EXPECT_GE(m.capacity(), 500u);  // rehashed several times
  for (uint64_t k = 0; k < 500; ++k) {
    const std::string* v = m.Find(k * 1000003);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, std::to_string(k));
  }
  size_t visited = 0;
  m.ForEach([&](uint64_t, const std::string&) { ++visited; });
  EXPECT_EQ(visited, 500u);
}

TEST(FlatMapTest, TombstoneReuseKeepsCapacityBounded) {
  FlatMap64<int> m;
  // Churn far more erase/insert cycles than the capacity: without tombstone
  // reuse (or tombstone-aware rehash) the table would grow unboundedly.
  for (int round = 0; round < 10000; ++round) {
    uint64_t k = static_cast<uint64_t>(round);
    m.TryEmplace(k, round);
    EXPECT_TRUE(m.Erase(k));
  }
  EXPECT_TRUE(m.empty());
  EXPECT_LE(m.capacity(), 64u);
  // Freshly inserted keys are still found after all that churn.
  m.TryEmplace(42, 1);
  EXPECT_NE(m.Find(42), nullptr);
}

TEST(FlatMapTest, ReserveAvoidsRehash) {
  FlatMap64<int> m;
  m.Reserve(1000);
  const size_t cap = m.capacity();
  for (uint64_t k = 0; k < 1000; ++k) m.TryEmplace(k, 1);
  EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatMapTest, RandomizedDifferentialAgainstStdUnorderedMap) {
  Rng rng(12345);
  FlatMap64<int64_t> flat;
  std::unordered_map<uint64_t, int64_t> ref;
  for (int step = 0; step < 200000; ++step) {
    // A small key universe forces frequent collisions, updates and erases.
    uint64_t key = rng.NextBelow(512) * 0x9E3779B97F4A7C15ull;
    uint64_t op = rng.NextBelow(4);
    if (op == 0) {  // insert-if-absent
      int64_t val = static_cast<int64_t>(rng.NextBelow(1 << 20));
      auto [slot, inserted] = flat.TryEmplace(key, val);
      auto [it, ref_inserted] = ref.try_emplace(key, val);
      EXPECT_EQ(inserted, ref_inserted);
      EXPECT_EQ(*slot, it->second);
    } else if (op == 1) {  // overwrite
      int64_t val = static_cast<int64_t>(rng.NextBelow(1 << 20));
      *flat.TryEmplace(key, val).first = val;
      ref[key] = val;
    } else if (op == 2) {  // erase
      EXPECT_EQ(flat.Erase(key), ref.erase(key) > 0);
    } else {  // lookup
      const int64_t* v = flat.Find(key);
      auto it = ref.find(key);
      if (it == ref.end()) {
        EXPECT_EQ(v, nullptr);
      } else {
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, it->second);
      }
    }
  }
  EXPECT_EQ(flat.size(), ref.size());
  size_t visited = 0;
  flat.ForEach([&](uint64_t k, int64_t v) {
    ++visited;
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(v, it->second);
  });
  EXPECT_EQ(visited, ref.size());
}

// ---------------------------------------------------------------------------
// RingBuffer
// ---------------------------------------------------------------------------

TEST(RingBufferTest, FifoAndLifoOnSameStorage) {
  RingBuffer<int> q(4);
  for (int i = 0; i < 6; ++i) q.push_back(i);  // forces growth past 4
  EXPECT_EQ(q.size(), 6u);
  EXPECT_EQ(q.pop_front(), 0);
  EXPECT_EQ(q.pop_back(), 5);
  EXPECT_EQ(q.pop_front(), 1);
  EXPECT_EQ(q.pop_back(), 4);
  EXPECT_EQ(q.pop_front(), 2);
  EXPECT_EQ(q.pop_back(), 3);
  EXPECT_TRUE(q.empty());
}

TEST(RingBufferTest, WrapAroundGrowth) {
  RingBuffer<int> q(4);
  // Advance head so the live region wraps the physical array, then grow.
  for (int i = 0; i < 3; ++i) q.push_back(i);
  EXPECT_EQ(q.pop_front(), 0);
  EXPECT_EQ(q.pop_front(), 1);
  for (int i = 3; i < 10; ++i) q.push_back(i);
  for (int i = 2; i < 10; ++i) EXPECT_EQ(q.pop_front(), i) << i;
  EXPECT_TRUE(q.empty());
}

TEST(RingBufferTest, RandomizedDifferentialAgainstDeque) {
  Rng rng(99);
  RingBuffer<uint64_t> ring(2);
  std::vector<uint64_t> ref;  // model: vector front == ring front
  for (int step = 0; step < 100000; ++step) {
    uint64_t op = rng.NextBelow(3);
    if (op == 0 || ref.empty()) {
      uint64_t v = rng.Next();
      ring.push_back(v);
      ref.push_back(v);
    } else if (op == 1) {
      EXPECT_EQ(ring.pop_back(), ref.back());
      ref.pop_back();
    } else {
      EXPECT_EQ(ring.pop_front(), ref.front());
      ref.erase(ref.begin());
    }
    EXPECT_EQ(ring.size(), ref.size());
  }
}

}  // namespace
}  // namespace iqro
