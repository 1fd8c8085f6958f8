#include "src/index/flat_index.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/common/vector_codec.h"

namespace alaya {
namespace {

VectorSet MakeRandomSet(size_t n, size_t d, uint64_t seed) {
  VectorSet set(d);
  Rng rng(seed);
  std::vector<float> v(d);
  for (size_t i = 0; i < n; ++i) {
    rng.FillGaussian(v.data(), d);
    set.Append(v.data());
  }
  return set;
}

std::vector<ScoredId> BruteTopK(VectorSetView view, const float* q, size_t k) {
  std::vector<ScoredId> all;
  for (uint32_t i = 0; i < view.n; ++i) {
    all.push_back({i, Kernels().dot(q, view.Vec(i), view.d)});
  }
  SortByScoreDesc(&all);
  if (all.size() > k) all.resize(k);
  return all;
}

TEST(FlatIndexTest, TopKIsExact) {
  VectorSet set = MakeRandomSet(500, 32, 1);
  FlatIndex index(set.View());
  Rng rng(2);
  std::vector<float> q(32);
  for (int trial = 0; trial < 10; ++trial) {
    rng.FillGaussian(q.data(), 32);
    SearchResult res;
    ASSERT_TRUE(index.SearchTopK(q.data(), TopKParams{10, 0}, &res).ok());
    auto expected = BruteTopK(set.View(), q.data(), 10);
    ASSERT_EQ(res.hits.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(res.hits[i].id, expected[i].id);
    }
    EXPECT_EQ(res.stats.dist_comps, 500u);
  }
}

TEST(FlatIndexTest, DiprMatchesDefinition) {
  // Definition 3: return exactly { k : q.k >= max - beta }.
  VectorSet set = MakeRandomSet(300, 16, 3);
  FlatIndex index(set.View());
  Rng rng(4);
  std::vector<float> q(16);
  rng.FillGaussian(q.data(), 16);
  for (float beta : {0.5f, 2.0f, 5.0f}) {
    SearchResult res;
    DiprParams params;
    params.beta = beta;
    ASSERT_TRUE(index.SearchDipr(q.data(), params, &res).ok());
    // Compute reference.
    float max_ip = -1e30f;
    for (uint32_t i = 0; i < 300; ++i) {
      max_ip = std::max(max_ip, Kernels().dot(q.data(), set.Vec(i), 16));
    }
    size_t expected = 0;
    for (uint32_t i = 0; i < 300; ++i) {
      if (Kernels().dot(q.data(), set.Vec(i), 16) >= max_ip - beta) ++expected;
    }
    EXPECT_EQ(res.hits.size(), expected) << "beta=" << beta;
    // Hits are sorted descending and all pass the threshold.
    for (size_t i = 1; i < res.hits.size(); ++i) {
      EXPECT_GE(res.hits[i - 1].score, res.hits[i].score);
    }
    for (const auto& h : res.hits) EXPECT_GE(h.score, max_ip - beta);
  }
}

TEST(FlatIndexTest, DiprBetaZeroReturnsArgmaxOnly) {
  VectorSet set = MakeRandomSet(100, 8, 5);
  FlatIndex index(set.View());
  std::vector<float> q(8, 1.f);
  SearchResult res;
  DiprParams params;
  params.beta = 0.f;
  ASSERT_TRUE(index.SearchDipr(q.data(), params, &res).ok());
  ASSERT_GE(res.hits.size(), 1u);  // Ties possible but at least the max.
  auto top = BruteTopK(set.View(), q.data(), 1);
  EXPECT_EQ(res.hits[0].id, top[0].id);
}

TEST(FlatIndexTest, DiprGrowsWithBeta) {
  VectorSet set = MakeRandomSet(400, 16, 6);
  FlatIndex index(set.View());
  std::vector<float> q(16, 0.5f);
  size_t prev = 0;
  for (float beta : {0.f, 1.f, 2.f, 4.f, 8.f, 1000.f}) {
    SearchResult res;
    DiprParams params;
    params.beta = beta;
    ASSERT_TRUE(index.SearchDipr(q.data(), params, &res).ok());
    EXPECT_GE(res.hits.size(), prev);
    prev = res.hits.size();
  }
  EXPECT_EQ(prev, 400u);  // Huge beta returns everything.
}

TEST(FlatIndexTest, DiprMaxTokensCaps) {
  VectorSet set = MakeRandomSet(200, 8, 7);
  FlatIndex index(set.View());
  std::vector<float> q(8, 1.f);
  SearchResult res;
  DiprParams params;
  params.beta = 1000.f;
  params.max_tokens = 13;
  ASSERT_TRUE(index.SearchDipr(q.data(), params, &res).ok());
  EXPECT_EQ(res.hits.size(), 13u);
}

TEST(FlatIndexTest, NegativeBetaRejected) {
  VectorSet set = MakeRandomSet(10, 8, 8);
  FlatIndex index(set.View());
  std::vector<float> q(8, 1.f);
  SearchResult res;
  DiprParams params;
  params.beta = -1.f;
  EXPECT_FALSE(index.SearchDipr(q.data(), params, &res).ok());
}

TEST(FlatIndexTest, FilterRestrictsIds) {
  VectorSet set = MakeRandomSet(100, 8, 9);
  FlatIndex index(set.View());
  std::vector<float> q(8, 1.f);
  IdFilter filter;
  filter.prefix_len = 40;
  SearchResult res;
  ASSERT_TRUE(index.SearchTopK(q.data(), TopKParams{100, 0}, &res, filter).ok());
  EXPECT_EQ(res.hits.size(), 40u);
  for (const auto& h : res.hits) EXPECT_LT(h.id, 40u);

  DiprParams params;
  params.beta = 1e6f;
  ASSERT_TRUE(index.SearchDipr(q.data(), params, &res, filter).ok());
  EXPECT_EQ(res.hits.size(), 40u);
}

TEST(FlatIndexTest, EmptyAndNullEdges) {
  VectorSet set(8);
  FlatIndex index(set.View());
  std::vector<float> q(8, 1.f);
  SearchResult res;
  EXPECT_TRUE(index.SearchTopK(q.data(), TopKParams{5, 0}, &res).ok());
  EXPECT_TRUE(res.hits.empty());
  DiprParams params;
  EXPECT_TRUE(index.SearchDipr(q.data(), params, &res).ok());
  EXPECT_TRUE(res.hits.empty());
  EXPECT_FALSE(index.SearchTopK(nullptr, TopKParams{5, 0}, &res).ok());
  EXPECT_FALSE(index.SearchTopK(q.data(), TopKParams{5, 0}, nullptr).ok());
}

TEST(FlatIndexTest, RebindSeesGrownSet) {
  VectorSet set = MakeRandomSet(10, 8, 10);
  FlatIndex index(set.View());
  EXPECT_EQ(index.size(), 10u);
  Rng rng(11);
  std::vector<float> v(8);
  rng.FillGaussian(v.data(), 8);
  set.Append(v.data());
  index.Rebind(set.View());
  EXPECT_EQ(index.size(), 11u);
}

}  // namespace
}  // namespace alaya
