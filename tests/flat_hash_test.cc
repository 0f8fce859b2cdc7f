#include "common/flat_hash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

namespace tabula {
namespace {

TEST(FlatHashMapTest, InsertFindBasics) {
  FlatHashMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(7u), nullptr);

  auto [v, inserted] = map.TryEmplace(7);
  EXPECT_TRUE(inserted);
  *v = 42;
  EXPECT_EQ(map.size(), 1u);

  auto [again, inserted2] = map.TryEmplace(7);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*again, 42);

  map[9] = 5;
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.Find(9u), nullptr);
  EXPECT_EQ(*map.Find(9u), 5);
  EXPECT_TRUE(map.contains(7));
  EXPECT_FALSE(map.contains(8));
}

TEST(FlatHashMapTest, KeyZeroIsAValidKey) {
  // Packed key 0 = every attribute at dictionary code 0; the map must
  // not treat it as an empty-slot sentinel.
  FlatHashMap<int> map;
  map[0] = 11;
  EXPECT_TRUE(map.contains(0));
  ASSERT_NE(map.Find(0u), nullptr);
  EXPECT_EQ(*map.Find(0u), 11);
  EXPECT_TRUE(map.Erase(0));
  EXPECT_FALSE(map.contains(0));
  EXPECT_TRUE(map.empty());
}

TEST(FlatHashMapTest, MatchesStdMapUnderRandomChurn) {
  // Differential check vs std::map through a mixed insert/erase/lookup
  // workload — exercises growth, collisions, and backward-shift deletion.
  FlatHashMap<uint64_t> map;
  std::map<uint64_t, uint64_t> oracle;
  std::mt19937_64 rng(20260806);
  for (int step = 0; step < 20000; ++step) {
    uint64_t key = rng() % 512;  // small key space → frequent collisions
    uint64_t op = rng() % 10;
    if (op < 6) {
      uint64_t value = rng();
      map[key] = value;
      oracle[key] = value;
    } else if (op < 8) {
      EXPECT_EQ(map.Erase(key), oracle.erase(key) > 0) << "step " << step;
    } else {
      const uint64_t* found = map.Find(key);
      auto it = oracle.find(key);
      if (it == oracle.end()) {
        EXPECT_EQ(found, nullptr) << "step " << step;
      } else {
        ASSERT_NE(found, nullptr) << "step " << step;
        EXPECT_EQ(*found, it->second) << "step " << step;
      }
    }
  }
  ASSERT_EQ(map.size(), oracle.size());
  // Final full sweep both directions.
  map.ForEach([&](uint64_t key, const uint64_t& value) {
    auto it = oracle.find(key);
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(value, it->second);
  });
}

TEST(FlatHashMapTest, EraseKeepsProbeRunsReachable) {
  // Craft keys that collide into one probe run, then delete from the
  // middle: backward-shift must keep every survivor reachable.
  FlatHashMap<int> map;
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; keys.size() < 12; ++k) {
    map[k] = static_cast<int>(k);
    keys.push_back(k);
  }
  for (size_t i = 0; i < keys.size(); i += 2) {
    EXPECT_TRUE(map.Erase(keys[i]));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_FALSE(map.contains(keys[i]));
    } else {
      ASSERT_TRUE(map.contains(keys[i])) << "lost key " << keys[i];
      EXPECT_EQ(*map.Find(keys[i]), static_cast<int>(keys[i]));
    }
  }
}

TEST(FlatHashMapTest, SortedKeysAndExtractSortedAreAscending) {
  FlatHashMap<int> map;
  std::mt19937_64 rng(99);
  std::vector<uint64_t> inserted;
  for (int i = 0; i < 300; ++i) {
    uint64_t key = rng();
    if (map.TryEmplace(key).second) inserted.push_back(key);
    *map.Find(key) = i;
  }
  std::sort(inserted.begin(), inserted.end());

  EXPECT_EQ(map.SortedKeys(), inserted);

  auto entries = map.ExtractSorted();
  ASSERT_EQ(entries.size(), inserted.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].first, inserted[i]);
  }
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), 0u);
}

TEST(FlatHashMapTest, ReservePreventsRehash) {
  FlatHashMap<int> map;
  map.reserve(1000);
  size_t cap = map.capacity();
  EXPECT_GE(cap, 1000u);
  for (uint64_t k = 0; k < 1000; ++k) map[k] = 1;
  EXPECT_EQ(map.capacity(), cap) << "reserve(1000) should absorb 1000 inserts";
  EXPECT_EQ(map.size(), 1000u);
}

TEST(FlatHashMapTest, MovesValuesOnExtract) {
  FlatHashMap<std::vector<int>> map;
  map[3].assign(100, 7);
  map[1].assign(50, 9);
  auto entries = map.ExtractSorted();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, 1u);
  EXPECT_EQ(entries[0].second.size(), 50u);
  EXPECT_EQ(entries[1].first, 3u);
  EXPECT_EQ(entries[1].second.size(), 100u);
}

TEST(FlatHashMapTest, TryEmplaceWithValueConstructsOnce) {
  // The value overload must move the argument straight into the slot on
  // insert (no default-construct-then-assign) and leave the stored value
  // untouched when the key already exists.
  FlatHashMap<std::vector<int>> map;
  std::vector<int> payload(64, 3);
  auto [v, inserted] = map.TryEmplace(11, std::move(payload));
  EXPECT_TRUE(inserted);
  EXPECT_TRUE(payload.empty()) << "argument should have been moved from";
  EXPECT_EQ(v->size(), 64u);

  std::vector<int> other(8, 1);
  auto [again, inserted2] = map.TryEmplace(11, std::move(other));
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(again->size(), 64u) << "existing value must be untouched";
  EXPECT_EQ(other.size(), 8u) << "argument must not be consumed on hit";
}

TEST(FlatHashMapTest, CopyAndMoveSemantics) {
  // refresh.cc stages a deep copy of the finest-cell map before swapping;
  // copies must be independent and moves must leave the source reusable.
  FlatHashMap<std::vector<int>> map;
  for (uint64_t k = 0; k < 200; ++k) map[k].assign(5, static_cast<int>(k));

  FlatHashMap<std::vector<int>> copy = map;
  ASSERT_EQ(copy.size(), map.size());
  copy[7].assign(1, -1);
  EXPECT_EQ(map.Find(7u)->size(), 5u) << "copy must not alias the source";
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_NE(copy.Find(k), nullptr);
    if (k != 7) {
      EXPECT_EQ((*copy.Find(k))[0], static_cast<int>(k));
    }
  }

  FlatHashMap<std::vector<int>> moved = std::move(map);
  EXPECT_EQ(moved.size(), 200u);
  EXPECT_TRUE(map.empty());  // NOLINT(bugprone-use-after-move)
  map[1].assign(2, 4);       // moved-from map is reusable
  EXPECT_EQ(map.size(), 1u);

  map = std::move(moved);
  EXPECT_EQ(map.size(), 200u);
  copy = map;  // copy-assign over existing contents
  EXPECT_EQ(copy.size(), 200u);
  EXPECT_EQ(copy.Find(7u)->size(), 5u);
}

TEST(FlatHashSetTest, InsertContainsErase) {
  FlatHashSet set;
  EXPECT_TRUE(set.Insert(5));
  EXPECT_FALSE(set.Insert(5));
  EXPECT_TRUE(set.Insert(0));
  EXPECT_TRUE(set.Contains(5));
  EXPECT_TRUE(set.Contains(0));
  EXPECT_FALSE(set.Contains(6));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.SortedKeys(), (std::vector<uint64_t>{0, 5}));
  EXPECT_TRUE(set.Erase(5));
  EXPECT_FALSE(set.Erase(5));
  EXPECT_EQ(set.size(), 1u);
}

}  // namespace
}  // namespace tabula
