#include "src/attention/attention_engine.h"

#include <gtest/gtest.h>

#include <numeric>

#include "src/common/rng.h"

namespace alaya {
namespace {

struct KvFixture {
  VectorSet keys;
  VectorSet values;
  KvFixture(size_t n, size_t d, uint64_t seed) : keys(d), values(d) {
    Rng rng(seed);
    std::vector<float> v(d);
    for (size_t i = 0; i < n; ++i) {
      rng.FillGaussian(v.data(), d);
      keys.Append(v.data());
      rng.FillGaussian(v.data(), d);
      values.Append(v.data());
    }
  }
};

TEST(AttentionEngineTest, SparseWithAllIdsEqualsFull) {
  const size_t n = 100, d = 16;
  KvFixture kv(n, d, 1);
  Rng rng(2);
  std::vector<float> q(d);
  rng.FillGaussian(q.data(), d);

  std::vector<float> full(d), sparse(d);
  FullAttentionHead(q.data(), kv.keys.View(), kv.values.View(), n, full.data());
  std::vector<uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  SparseAttentionHead(q.data(), kv.keys.View(), kv.values.View(), ids, sparse.data());
  for (size_t i = 0; i < d; ++i) EXPECT_NEAR(full[i], sparse[i], 1e-5);
}

TEST(AttentionEngineTest, StatsCountTokens) {
  const size_t n = 50, d = 8;
  KvFixture kv(n, d, 3);
  std::vector<float> q(d, 1.f), out(d);
  AttentionStats stats;
  FullAttentionHead(q.data(), kv.keys.View(), kv.values.View(), n, out.data(), &stats);
  EXPECT_EQ(stats.tokens_attended, n);
  EXPECT_GT(stats.flops, 0u);

  AttentionStats sp;
  std::vector<uint32_t> ids = {1, 5, 7};
  SparseAttentionHead(q.data(), kv.keys.View(), kv.values.View(), ids, out.data(), &sp);
  EXPECT_EQ(sp.tokens_attended, 3u);
}

TEST(AttentionEngineTest, ExactScoresSumToOne) {
  const size_t n = 64, d = 8;
  KvFixture kv(n, d, 4);
  std::vector<float> q(d, 0.5f), scores(n);
  ExactAttentionScores(q.data(), kv.keys.View(), n, scores.data());
  float sum = std::accumulate(scores.begin(), scores.end(), 0.f);
  EXPECT_NEAR(sum, 1.f, 1e-4);
}

TEST(AttentionEngineTest, PartitionRangeVsIdsEquivalent) {
  const size_t n = 40, d = 8;
  KvFixture kv(n, d, 7);
  std::vector<float> q(d, 0.3f);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));

  PartialAttention by_range(d), by_ids(d);
  KvPartition range_part{kv.keys.View(), kv.values.View(), {}, 10, 30};
  AccumulatePartition(q.data(), range_part, scale, &by_range);
  std::vector<uint32_t> ids;
  for (uint32_t i = 10; i < 30; ++i) ids.push_back(i);
  KvPartition id_part{kv.keys.View(), kv.values.View(), ids, 0, 0};
  AccumulatePartition(q.data(), id_part, scale, &by_ids);

  std::vector<float> a(d), b(d);
  by_range.Finalize(a.data());
  by_ids.Finalize(b.data());
  for (size_t i = 0; i < d; ++i) EXPECT_NEAR(a[i], b[i], 1e-6);
}

}  // namespace
}  // namespace alaya
