#include "common/indexed_heap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"

namespace hgr {
namespace {

TEST(IndexedMaxHeap, StartsEmpty) {
  IndexedMaxHeap heap(5);
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0);
  EXPECT_FALSE(heap.contains(0));
}

TEST(IndexedMaxHeap, PopsInDescendingKeyOrder) {
  IndexedMaxHeap heap(6);
  heap.insert(0, 5);
  heap.insert(1, -1);
  heap.insert(2, 42);
  heap.insert(3, 0);
  heap.insert(4, 42);  // duplicate key allowed
  std::vector<Weight> keys;
  while (!heap.empty()) {
    keys.push_back(heap.top_key());
    heap.pop();
  }
  EXPECT_TRUE(std::is_sorted(keys.rbegin(), keys.rend()));
  EXPECT_EQ(keys.front(), 42);
  EXPECT_EQ(keys.back(), -1);
}

TEST(IndexedMaxHeap, AdjustUpAndDown) {
  IndexedMaxHeap heap(3);
  heap.insert(0, 1);
  heap.insert(1, 2);
  heap.insert(2, 3);
  heap.adjust(0, 10);
  EXPECT_EQ(heap.top(), 0);
  heap.adjust(0, -10);
  EXPECT_EQ(heap.top(), 2);
  EXPECT_EQ(heap.key(0), -10);
}

TEST(IndexedMaxHeap, RemoveArbitrary) {
  IndexedMaxHeap heap(4);
  heap.insert(0, 4);
  heap.insert(1, 3);
  heap.insert(2, 2);
  heap.insert(3, 1);
  heap.remove(1);
  EXPECT_FALSE(heap.contains(1));
  EXPECT_EQ(heap.pop(), 0);
  EXPECT_EQ(heap.pop(), 2);
  EXPECT_EQ(heap.pop(), 3);
}

TEST(IndexedMaxHeap, ClearThenReuse) {
  IndexedMaxHeap heap(3);
  heap.insert(0, 1);
  heap.insert(2, 9);
  heap.clear();
  EXPECT_TRUE(heap.empty());
  EXPECT_FALSE(heap.contains(2));
  heap.insert(2, 1);
  EXPECT_EQ(heap.top(), 2);
}

TEST(IndexedMaxHeap, RandomizedPopOrderMatchesSortedKeys) {
  Rng rng(654);
  const Index n = 300;
  IndexedMaxHeap heap(n);
  std::vector<Weight> keys(n);
  for (Index i = 0; i < n; ++i) {
    keys[static_cast<std::size_t>(i)] = rng.range(-50, 50);
    heap.insert(i, keys[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < 1000; ++i) {
    const auto item = static_cast<Index>(rng.below(n));
    keys[static_cast<std::size_t>(item)] = rng.range(-50, 50);
    heap.adjust(item, keys[static_cast<std::size_t>(item)]);
  }
  std::vector<Weight> popped;
  while (!heap.empty()) {
    const Index item = heap.top();
    EXPECT_EQ(heap.top_key(), keys[static_cast<std::size_t>(item)]);
    popped.push_back(heap.top_key());
    heap.pop();
  }
  std::vector<Weight> expected = keys;
  std::sort(expected.rbegin(), expected.rend());
  EXPECT_EQ(popped, expected);
}

}  // namespace
}  // namespace hgr
