#include "src/index/coarse_index.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/vector_codec.h"

namespace alaya {
namespace {

/// 10 blocks of 16 tokens; block 3 is filled with a known direction so it must
/// be selected first.
VectorSet MakePlantedSet(size_t d, uint32_t block_size, uint32_t hot_block) {
  VectorSet set(d);
  Rng rng(42);
  std::vector<float> v(d);
  for (uint32_t i = 0; i < block_size * 10; ++i) {
    rng.FillGaussian(v.data(), d);
    NormalizeInPlace(v.data(), d);
    Kernels().scale(v.data(), d, 0.1f);
    if (i / block_size == hot_block) {
      v[0] += 5.f;  // Strongly aligned with e0.
    }
    set.Append(v.data());
  }
  return set;
}

class CoarseRepTest : public ::testing::TestWithParam<BlockRepKind> {};

TEST_P(CoarseRepTest, SelectsPlantedBlock) {
  const uint32_t kBlock = 16;
  VectorSet set = MakePlantedSet(24, kBlock, 3);
  CoarseIndexOptions opts;
  opts.block_size = kBlock;
  opts.rep_kind = GetParam();
  CoarseIndex index(set.View(), opts);
  EXPECT_EQ(index.num_blocks(), 10u);

  std::vector<float> q(24, 0.f);
  q[0] = 1.f;
  SearchResult res;
  ASSERT_TRUE(index.SearchTopK(q.data(), TopKParams{kBlock, 0}, &res).ok());
  ASSERT_EQ(res.hits.size(), kBlock);
  for (const auto& h : res.hits) {
    EXPECT_GE(h.id, 3u * kBlock);
    EXPECT_LT(h.id, 4u * kBlock);
  }
}

INSTANTIATE_TEST_SUITE_P(Reps, CoarseRepTest,
                         ::testing::Values(BlockRepKind::kMean, BlockRepKind::kMinMax,
                                           BlockRepKind::kSalient));

TEST(CoarseIndexTest, MinMaxScoreIsUpperBound) {
  VectorSet set = MakePlantedSet(16, 8, 0);
  CoarseIndexOptions opts;
  opts.block_size = 8;
  opts.rep_kind = BlockRepKind::kMinMax;
  CoarseIndex index(set.View(), opts);
  Rng rng(7);
  std::vector<float> q(16);
  for (int trial = 0; trial < 20; ++trial) {
    rng.FillGaussian(q.data(), 16);
    for (size_t b = 0; b < index.num_blocks(); ++b) {
      const float bound = index.BlockScore(q.data(), b);
      for (uint32_t i = 0; i < 8; ++i) {
        const uint32_t id = static_cast<uint32_t>(b * 8 + i);
        EXPECT_GE(bound + 1e-4f, Kernels().dot(q.data(), set.Vec(id), 16))
            << "block " << b << " token " << id;
      }
    }
  }
}

TEST(CoarseIndexTest, KRoundsUpToBlockGranularity) {
  VectorSet set = MakePlantedSet(16, 8, 0);
  CoarseIndexOptions opts;
  opts.block_size = 8;
  CoarseIndex index(set.View(), opts);
  std::vector<float> q(16, 1.f);
  SearchResult res;
  ASSERT_TRUE(index.SearchTopK(q.data(), TopKParams{10, 0}, &res).ok());
  EXPECT_EQ(res.hits.size(), 16u);  // ceil(10/8) = 2 blocks.
}

TEST(CoarseIndexTest, FilterSkipsBlocksBeyondPrefix) {
  VectorSet set = MakePlantedSet(16, 8, 9);  // Hot block is the last one.
  CoarseIndexOptions opts;
  opts.block_size = 8;
  CoarseIndex index(set.View(), opts);
  std::vector<float> q(16, 0.f);
  q[0] = 1.f;
  IdFilter filter;
  filter.prefix_len = 40;  // Blocks 0..4 only.
  SearchResult res;
  ASSERT_TRUE(index.SearchTopK(q.data(), TopKParams{8, 0}, &res, filter).ok());
  for (const auto& h : res.hits) EXPECT_LT(h.id, 40u);
  EXPECT_EQ(res.stats.dist_comps, 5u);  // Only the 5 blocks the filter keeps.
}

TEST(CoarseIndexTest, GpuMemoryAccounting) {
  MemoryTracker gpu(MemoryTier::kGpu);
  VectorSet set = MakePlantedSet(16, 8, 0);
  {
    CoarseIndexOptions opts;
    opts.block_size = 8;
    opts.gpu_memory = &gpu;
    opts.bytes_per_token_kv = 64;
    CoarseIndex index(set.View(), opts);
    EXPECT_EQ(gpu.current(), index.MemoryBytes() + 80u * 64u);
  }
  EXPECT_EQ(gpu.current(), 0u);  // Freed on destruction.
}

TEST(CoarseIndexTest, ShortFinalBlock) {
  VectorSet set(8);
  Rng rng(1);
  std::vector<float> v(8);
  for (int i = 0; i < 20; ++i) {  // 20 tokens, block 16 -> 2 blocks (16 + 4).
    rng.FillGaussian(v.data(), 8);
    set.Append(v.data());
  }
  CoarseIndexOptions opts;
  opts.block_size = 16;
  CoarseIndex index(set.View(), opts);
  EXPECT_EQ(index.num_blocks(), 2u);
  std::vector<float> q(8, 1.f);
  SearchResult res;
  ASSERT_TRUE(index.SearchTopK(q.data(), TopKParams{32, 0}, &res).ok());
  EXPECT_EQ(res.hits.size(), 20u);
}

}  // namespace
}  // namespace alaya
