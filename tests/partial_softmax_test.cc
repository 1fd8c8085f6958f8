#include "src/attention/partial_softmax.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"
#include "src/common/vec_math.h"
#include "src/common/vector_codec.h"

namespace alaya {
namespace {

/// Reference: monolithic softmax-weighted sum.
std::vector<float> ReferenceAttention(const std::vector<float>& logits,
                                      const std::vector<std::vector<float>>& values,
                                      size_t d) {
  std::vector<float> scores = logits;
  SoftmaxInPlace(scores.data(), scores.size());
  std::vector<float> out(d, 0.f);
  for (size_t i = 0; i < scores.size(); ++i) {
    Kernels().axpy(out.data(), values[i].data(), d, scores[i]);
  }
  return out;
}

TEST(PartialSoftmaxTest, SingleAccumulateMatchesReference) {
  const size_t d = 8;
  Rng rng(1);
  std::vector<float> logits = {0.5f, 2.f, -1.f, 3.f};
  std::vector<std::vector<float>> values;
  for (size_t i = 0; i < logits.size(); ++i) {
    values.emplace_back(d);
    rng.FillGaussian(values.back().data(), d);
  }
  PartialAttention state(d);
  for (size_t i = 0; i < logits.size(); ++i) {
    state.Accumulate(logits[i], values[i].data());
  }
  std::vector<float> out(d);
  state.Finalize(out.data());
  auto ref = ReferenceAttention(logits, values, d);
  for (size_t i = 0; i < d; ++i) EXPECT_NEAR(out[i], ref[i], 1e-5);
}

TEST(PartialSoftmaxTest, AccumulateOrderInvariant) {
  const size_t d = 4;
  Rng rng(2);
  std::vector<float> logits = {5.f, -3.f, 0.f, 2.f, 4.f};
  std::vector<std::vector<float>> values;
  for (size_t i = 0; i < logits.size(); ++i) {
    values.emplace_back(d);
    rng.FillGaussian(values.back().data(), d);
  }
  PartialAttention fwd(d), rev(d);
  for (size_t i = 0; i < logits.size(); ++i) fwd.Accumulate(logits[i], values[i].data());
  for (size_t i = logits.size(); i > 0; --i) {
    rev.Accumulate(logits[i - 1], values[i - 1].data());
  }
  std::vector<float> a(d), b(d);
  fwd.Finalize(a.data());
  rev.Finalize(b.data());
  for (size_t i = 0; i < d; ++i) EXPECT_NEAR(a[i], b[i], 1e-5);
}

TEST(PartialSoftmaxTest, EmptyFinalizeIsZero) {
  PartialAttention state(6);
  std::vector<float> out(6, 99.f);
  state.Finalize(out.data());
  for (float x : out) EXPECT_EQ(x, 0.f);
  EXPECT_TRUE(state.empty());
}

TEST(PartialSoftmaxTest, MergeWithEmptyIsIdentity) {
  const size_t d = 4;
  PartialAttention a(d), b(d);
  const float v[] = {1.f, 2.f, 3.f, 4.f};
  a.Accumulate(1.f, v);
  std::vector<float> before(d), after(d);
  a.Finalize(before.data());
  a.Merge(b);  // Merge empty into a.
  a.Finalize(after.data());
  for (size_t i = 0; i < d; ++i) EXPECT_EQ(before[i], after[i]);

  b.Merge(a);  // Merge a into empty b.
  std::vector<float> bo(d);
  b.Finalize(bo.data());
  for (size_t i = 0; i < d; ++i) EXPECT_NEAR(bo[i], before[i], 1e-6);
}

TEST(PartialSoftmaxTest, StableUnderHugeLogits) {
  const size_t d = 2;
  PartialAttention state(d);
  const float v1[] = {1.f, 0.f};
  const float v2[] = {0.f, 1.f};
  state.Accumulate(500.f, v1);
  state.Accumulate(502.f, v2);
  std::vector<float> out(d);
  state.Finalize(out.data());
  EXPECT_FALSE(std::isnan(out[0]));
  // exp(2)/(1+exp(2)) weight on v2.
  EXPECT_NEAR(out[1], std::exp(2.f) / (1.f + std::exp(2.f)), 1e-4);
}

/// Property sweep: merging any partition of the token set equals the
/// monolithic computation.
class MergePartitionTest : public ::testing::TestWithParam<int> {};

TEST_P(MergePartitionTest, MergeEqualsMonolithic) {
  const int num_partitions = GetParam();
  const size_t d = 16;
  const size_t n = 64;
  Rng rng(1000 + num_partitions);
  std::vector<float> logits(n);
  std::vector<std::vector<float>> values;
  for (size_t i = 0; i < n; ++i) {
    logits[i] = 6.f * rng.GaussianFloat();
    values.emplace_back(d);
    rng.FillGaussian(values.back().data(), d);
  }
  // Random partition assignment.
  std::vector<int> part(n);
  for (size_t i = 0; i < n; ++i) {
    part[i] = static_cast<int>(rng.UniformInt(num_partitions));
  }
  std::vector<PartialAttention> states;
  for (int p = 0; p < num_partitions; ++p) states.emplace_back(d);
  for (size_t i = 0; i < n; ++i) {
    states[part[i]].Accumulate(logits[i], values[i].data());
  }
  PartialAttention merged(d);
  for (auto& s : states) merged.Merge(s);
  std::vector<float> out(d);
  merged.Finalize(out.data());
  auto ref = ReferenceAttention(logits, values, d);
  for (size_t i = 0; i < d; ++i) EXPECT_NEAR(out[i], ref[i], 2e-5) << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(Partitions, MergePartitionTest,
                         ::testing::Values(1, 2, 3, 4, 7, 16, 64));

}  // namespace
}  // namespace alaya
