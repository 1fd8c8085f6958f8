#include "src/index/graph_search.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace alaya {
namespace {

/// A ring graph over points on a line: vec(i) = (i, 0, ...). Query favors the
/// largest coordinate, so beam search must walk the ring to the end.
struct RingFixture {
  VectorSet keys;
  AdjacencyGraph graph;

  explicit RingFixture(uint32_t n) : keys(4), graph(n, 2) {
    std::vector<float> v(4, 0.f);
    for (uint32_t i = 0; i < n; ++i) {
      v[0] = static_cast<float>(i);
      keys.Append(v.data());
      if (i > 0) {
        graph.AddEdge(i - 1, i);
        graph.AddEdge(i, i - 1);
      }
    }
  }
};

TEST(GraphSearchTest, BeamWalksToGlobalMax) {
  RingFixture fx(100);
  std::vector<float> q = {1.f, 0.f, 0.f, 0.f};
  SearchResult res = GraphBeamSearch(fx.graph, fx.keys.View(), 0, q.data(), 8);
  ASSERT_FALSE(res.hits.empty());
  EXPECT_EQ(res.hits[0].id, 99u);
  EXPECT_GT(res.stats.hops, 50u);  // Had to traverse the chain.
}

TEST(GraphSearchTest, BeamReturnsSortedTopEf) {
  RingFixture fx(50);
  std::vector<float> q = {1.f, 0.f, 0.f, 0.f};
  SearchResult res = GraphBeamSearch(fx.graph, fx.keys.View(), 0, q.data(), 5);
  ASSERT_EQ(res.hits.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(res.hits[i].id, 49u - i);
  }
}

TEST(GraphSearchTest, EmptyGraphAndZeroEf) {
  AdjacencyGraph g;
  VectorSetView empty;
  SearchResult res = GraphBeamSearch(g, empty, 0, nullptr, 8);
  EXPECT_TRUE(res.hits.empty());
  RingFixture fx(10);
  std::vector<float> q = {1.f, 0.f, 0.f, 0.f};
  res = GraphBeamSearch(fx.graph, fx.keys.View(), 0, q.data(), 0);
  EXPECT_TRUE(res.hits.empty());
}

TEST(GraphSearchTest, ReusedVisitedSetIsReset) {
  RingFixture fx(40);
  std::vector<float> q = {1.f, 0.f, 0.f, 0.f};
  VisitedSet visited;
  SearchResult r1 = GraphBeamSearch(fx.graph, fx.keys.View(), 0, q.data(), 4, &visited);
  SearchResult r2 = GraphBeamSearch(fx.graph, fx.keys.View(), 0, q.data(), 4, &visited);
  ASSERT_EQ(r1.hits.size(), r2.hits.size());
  for (size_t i = 0; i < r1.hits.size(); ++i) EXPECT_EQ(r1.hits[i].id, r2.hits[i].id);
}

TEST(AdjacencyGraphTest, AddEdgeRules) {
  AdjacencyGraph g(4, 2);
  EXPECT_TRUE(g.AddEdge(0, 1));
  EXPECT_FALSE(g.AddEdge(0, 1));  // Duplicate.
  EXPECT_FALSE(g.AddEdge(0, 0));  // Self-loop.
  EXPECT_TRUE(g.AddEdge(0, 2));
  EXPECT_FALSE(g.AddEdge(0, 3));  // Full.
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.EdgeCount(), 2u);
}

TEST(AdjacencyGraphTest, SetNeighborsTruncatesAtCap) {
  AdjacencyGraph g(5, 2);
  g.SetNeighbors(0, {1, 2, 3, 4});
  EXPECT_EQ(g.degree(0), 2u);
  auto nbrs = g.Neighbors(0);
  EXPECT_EQ(nbrs[0], 1u);
  EXPECT_EQ(nbrs[1], 2u);
}

}  // namespace
}  // namespace alaya
