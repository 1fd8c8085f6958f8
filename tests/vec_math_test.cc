#include "src/common/vec_math.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "src/common/rng.h"
#include "src/common/vector_codec.h"

namespace alaya {
namespace {

TEST(VecMathTest, DotBasic) {
  const float a[] = {1, 2, 3, 4, 5};
  const float b[] = {5, 4, 3, 2, 1};
  EXPECT_FLOAT_EQ(Kernels().dot(a, b, 5), 35.f);
  EXPECT_FLOAT_EQ(Kernels().dot(a, b, 0), 0.f);
  EXPECT_FLOAT_EQ(Kernels().dot(a, b, 1), 5.f);
}

TEST(VecMathTest, L2SqAndNorm) {
  const float a[] = {3, 4};
  const float z[] = {0, 0};
  EXPECT_FLOAT_EQ(Kernels().l2sq(a, z, 2), 25.f);
  EXPECT_FLOAT_EQ(Norm(a, 2), 5.f);
}

TEST(VecMathTest, ScaleAxpy) {
  float y[] = {1, 1, 1};
  const float x[] = {1, 2, 3};
  Kernels().axpy(y, x, 3, 2.f);
  EXPECT_FLOAT_EQ(y[0], 3.f);
  EXPECT_FLOAT_EQ(y[2], 7.f);
  Kernels().scale(y, 3, 0.5f);
  EXPECT_FLOAT_EQ(y[0], 1.5f);
}

TEST(VecMathTest, NormalizeUnitLength) {
  Rng rng(1);
  std::vector<float> v(64);
  rng.FillGaussian(v.data(), 64);
  NormalizeInPlace(v.data(), 64);
  EXPECT_NEAR(Norm(v.data(), 64), 1.0f, 1e-5);
}

TEST(VecMathTest, NormalizeZeroVectorIsNoop) {
  std::vector<float> v(8, 0.f);
  NormalizeInPlace(v.data(), 8);
  for (float x : v) EXPECT_EQ(x, 0.f);
}

TEST(VecMathTest, CosineSimProperties) {
  const float a[] = {1, 0, 0};
  const float b[] = {0, 1, 0};
  const float c[] = {2, 0, 0};
  EXPECT_NEAR(CosineSim(a, b, 3), 0.f, 1e-6);
  EXPECT_NEAR(CosineSim(a, c, 3), 1.f, 1e-6);
  const float z[] = {0, 0, 0};
  EXPECT_EQ(CosineSim(a, z, 3), 0.f);
}

TEST(VecMathTest, SoftmaxSumsToOne) {
  std::vector<float> s = {1.f, 2.f, 3.f, 4.f};
  SoftmaxInPlace(s.data(), s.size());
  const float sum = std::accumulate(s.begin(), s.end(), 0.f);
  EXPECT_NEAR(sum, 1.f, 1e-5);
  EXPECT_GT(s[3], s[2]);
  EXPECT_GT(s[2], s[1]);
}

TEST(VecMathTest, SoftmaxStableUnderLargeLogits) {
  std::vector<float> s = {1000.f, 1001.f, 999.f};
  SoftmaxInPlace(s.data(), s.size());
  const float sum = std::accumulate(s.begin(), s.end(), 0.f);
  EXPECT_NEAR(sum, 1.f, 1e-5);
  EXPECT_FALSE(std::isnan(s[0]));
}

TEST(VecMathTest, ArgMaxFirstOnTies) {
  const float a[] = {1.f, 3.f, 3.f, 2.f};
  EXPECT_EQ(ArgMax(a, 4), 1u);
}

TEST(VecMathTest, RelativeError) {
  const float a[] = {1.f, 0.f};
  const float b[] = {1.f, 0.f};
  EXPECT_NEAR(RelativeError(a, b, 2), 0.f, 1e-6);
  const float c[] = {2.f, 0.f};
  EXPECT_NEAR(RelativeError(c, b, 2), 1.f, 1e-5);
}

TEST(VecMathTest, MatVecDotMatchesLoop) {
  Rng rng(2);
  const size_t rows = 13, d = 37;
  std::vector<float> m(rows * d), v(d), out(rows);
  rng.FillGaussian(m.data(), m.size());
  rng.FillGaussian(v.data(), d);
  Kernels().matvec(m.data(), rows, d, v.data(), out.data());
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_NEAR(out[i], Kernels().dot(m.data() + i * d, v.data(), d), 1e-4);
  }
}

TEST(VecMathTest, SortByScoreDescTieBreaksOnId) {
  std::vector<ScoredId> v = {{3, 1.f}, {1, 2.f}, {2, 2.f}, {0, 0.5f}};
  SortByScoreDesc(&v);
  EXPECT_EQ(v[0].id, 1u);
  EXPECT_EQ(v[1].id, 2u);
  EXPECT_EQ(v[2].id, 3u);
  EXPECT_EQ(v[3].id, 0u);
}

class DotDimTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DotDimTest, MatchesNaiveAcrossDims) {
  const size_t d = GetParam();
  Rng rng(d + 1);
  std::vector<float> a(d), b(d);
  rng.FillGaussian(a.data(), d);
  rng.FillGaussian(b.data(), d);
  double naive = 0;
  for (size_t i = 0; i < d; ++i) naive += double(a[i]) * b[i];
  EXPECT_NEAR(Kernels().dot(a.data(), b.data(), d), naive,
              1e-3 * (1.0 + std::abs(naive)));
}

INSTANTIATE_TEST_SUITE_P(Dims, DotDimTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 63, 64,
                                           65, 127, 128, 129, 255, 256));

}  // namespace
}  // namespace alaya
