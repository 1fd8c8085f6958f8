#include "src/index/hnsw.h"

#include <gtest/gtest.h>

#include "src/common/vector_codec.h"
#include "tests/test_util.h"

namespace alaya {
namespace {

using testutil::BruteTopK;
using testutil::PlantedMips;

VectorSet RandomUnitSet(size_t n, size_t d, uint64_t seed) {
  VectorSet set(d);
  Rng rng(seed);
  std::vector<float> v(d);
  for (size_t i = 0; i < n; ++i) {
    rng.FillGaussian(v.data(), d);
    NormalizeInPlace(v.data(), d);
    set.Append(v.data());
  }
  return set;
}

double RecallAtK(const Hnsw& index, VectorSetView data, size_t k, size_t ef,
                 size_t num_queries, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> q(data.d);
  size_t hit = 0, total = 0;
  for (size_t t = 0; t < num_queries; ++t) {
    rng.FillGaussian(q.data(), data.d);
    SearchResult res;
    EXPECT_TRUE(index.SearchTopK(q.data(), TopKParams{k, ef}, &res).ok());
    auto exact = BruteTopK(data, q.data(), k);
    std::vector<bool> got(data.n, false);
    for (const auto& h : res.hits) got[h.id] = true;
    for (const auto& e : exact) {
      ++total;
      if (got[e.id]) ++hit;
    }
  }
  return static_cast<double>(hit) / static_cast<double>(total);
}

TEST(HnswTest, InnerProductRecall) {
  VectorSet set = RandomUnitSet(2000, 24, 1);
  Hnsw index(set.View(), HnswOptions{});
  ASSERT_TRUE(index.Build().ok());
  EXPECT_EQ(index.size(), 2000u);
  EXPECT_GE(RecallAtK(index, set.View(), 10, 128, 20, 2), 0.85);
}

TEST(HnswTest, L2MetricRecall) {
  VectorSet set = RandomUnitSet(2000, 24, 3);
  HnswOptions opts;
  opts.metric = GraphMetric::kL2;
  Hnsw index(set.View(), opts);
  ASSERT_TRUE(index.Build().ok());
  // L2 search: compare against brute-force by negated distance.
  Rng rng(4);
  std::vector<float> q(24);
  size_t hit = 0, total = 0;
  for (int t = 0; t < 20; ++t) {
    rng.FillGaussian(q.data(), 24);
    SearchResult res;
    ASSERT_TRUE(index.SearchTopK(q.data(), TopKParams{10, 128}, &res).ok());
    std::vector<ScoredId> exact;
    for (uint32_t i = 0; i < 2000; ++i) {
      exact.push_back({i, -Kernels().l2sq(q.data(), set.Vec(i), 24)});
    }
    SortByScoreDesc(&exact);
    exact.resize(10);
    std::vector<bool> got(2000, false);
    for (const auto& h : res.hits) got[h.id] = true;
    for (const auto& e : exact) {
      ++total;
      if (got[e.id]) ++hit;
    }
  }
  EXPECT_GE(static_cast<double>(hit) / total, 0.85);
}

TEST(HnswTest, IncrementalAppendKeepsSearchable) {
  VectorSet set = RandomUnitSet(500, 16, 5);
  Hnsw index(set.View(), HnswOptions{});
  ASSERT_TRUE(index.Build().ok());
  // Grow the set and append.
  Rng rng(6);
  std::vector<float> v(16);
  for (int i = 0; i < 100; ++i) {
    rng.FillGaussian(v.data(), 16);
    NormalizeInPlace(v.data(), 16);
    set.Append(v.data());
  }
  ASSERT_TRUE(index.AppendNewVectors(set.View()).ok());
  EXPECT_EQ(index.size(), 600u);
  EXPECT_GE(RecallAtK(index, set.View(), 10, 128, 10, 7), 0.8);
}

TEST(HnswTest, DiprOnPlantedData) {
  PlantedMips data(2000, 32, 80, 8);
  Hnsw index(data.keys.View(), HnswOptions{});
  ASSERT_TRUE(index.Build().ok());
  SearchResult res;
  DiprParams params;
  params.beta = 11.f;
  ASSERT_TRUE(index.SearchDipr(data.query.data(), params, &res).ok());
  EXPECT_GE(data.Recall(res.hits), 0.75);
}

TEST(HnswTest, DiprRequiresInnerProductMetric) {
  VectorSet set = RandomUnitSet(100, 8, 9);
  HnswOptions opts;
  opts.metric = GraphMetric::kL2;
  Hnsw index(set.View(), opts);
  ASSERT_TRUE(index.Build().ok());
  SearchResult res;
  DiprParams params;
  std::vector<float> q(8, 1.f);
  EXPECT_EQ(index.SearchDipr(q.data(), params, &res).code(),
            StatusCode::kNotSupported);
}

TEST(HnswTest, EmptyIndexSearches) {
  VectorSet set(8);
  Hnsw index(set.View(), HnswOptions{});
  ASSERT_TRUE(index.Build().ok());
  std::vector<float> q(8, 1.f);
  SearchResult res;
  EXPECT_TRUE(index.SearchTopK(q.data(), TopKParams{5, 0}, &res).ok());
  EXPECT_TRUE(res.hits.empty());
}

TEST(HnswTest, SingleElement) {
  VectorSet set(8);
  std::vector<float> v(8, 1.f);
  set.Append(v.data());
  Hnsw index(set.View(), HnswOptions{});
  ASSERT_TRUE(index.Build().ok());
  SearchResult res;
  ASSERT_TRUE(index.SearchTopK(v.data(), TopKParams{5, 0}, &res).ok());
  ASSERT_EQ(res.hits.size(), 1u);
  EXPECT_EQ(res.hits[0].id, 0u);
}

TEST(HnswTest, FilteredSearchRespectsPredicate) {
  VectorSet set = RandomUnitSet(500, 16, 10);
  Hnsw index(set.View(), HnswOptions{});
  ASSERT_TRUE(index.Build().ok());
  std::vector<float> q(16, 0.5f);
  IdFilter filter;
  filter.prefix_len = 100;
  SearchResult res;
  ASSERT_TRUE(index.SearchTopKFiltered(q.data(), TopKParams{20, 64}, filter, &res).ok());
  for (const auto& h : res.hits) EXPECT_LT(h.id, 100u);
}

TEST(HnswTest, MemoryBytesPositiveAfterBuild) {
  VectorSet set = RandomUnitSet(300, 16, 11);
  Hnsw index(set.View(), HnswOptions{});
  ASSERT_TRUE(index.Build().ok());
  EXPECT_GT(index.MemoryBytes(), 0u);
  EXPECT_GE(index.max_level(), 0);
}

}  // namespace
}  // namespace alaya
