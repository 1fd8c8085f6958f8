#include "src/common/bounded_heap.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"

namespace alaya {
namespace {

TEST(TopKMaxHeapTest, KeepsLargestK) {
  TopKMaxHeap heap(3);
  for (uint32_t i = 0; i < 10; ++i) heap.Push(i, static_cast<float>(i));
  auto sorted = heap.TakeSortedDesc();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].id, 9u);
  EXPECT_EQ(sorted[1].id, 8u);
  EXPECT_EQ(sorted[2].id, 7u);
}

TEST(TopKMaxHeapTest, MatchesSortReference) {
  Rng rng(77);
  for (size_t k : {1u, 5u, 32u, 100u}) {
    TopKMaxHeap heap(k);
    std::vector<ScoredId> all;
    for (uint32_t i = 0; i < 500; ++i) {
      const float s = rng.GaussianFloat();
      heap.Push(i, s);
      all.push_back({i, s});
    }
    SortByScoreDesc(&all);
    all.resize(std::min<size_t>(k, all.size()));
    auto got = heap.TakeSortedDesc();
    ASSERT_EQ(got.size(), all.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_FLOAT_EQ(got[i].score, all[i].score) << "k=" << k << " i=" << i;
    }
  }
}

TEST(TopKMaxHeapTest, ZeroCapacityRejectsAll) {
  TopKMaxHeap heap(0);
  EXPECT_FALSE(heap.Push(1, 10.f));
  EXPECT_FALSE(heap.WouldAccept(100.f));
  EXPECT_TRUE(heap.empty());
}

TEST(TopKMaxHeapTest, WouldAcceptConsistentWithPush) {
  TopKMaxHeap heap(2);
  heap.Push(0, 1.f);
  heap.Push(1, 2.f);
  EXPECT_TRUE(heap.full());
  EXPECT_FLOAT_EQ(heap.MinRetained(), 1.f);
  EXPECT_FALSE(heap.WouldAccept(0.5f));
  EXPECT_FALSE(heap.Push(2, 0.5f));
  EXPECT_TRUE(heap.WouldAccept(3.f));
  EXPECT_TRUE(heap.Push(3, 3.f));
  EXPECT_FLOAT_EQ(heap.MinRetained(), 2.f);
}

}  // namespace
}  // namespace alaya
