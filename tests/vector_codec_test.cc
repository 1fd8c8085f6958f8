// Codec round-trip error bounds, scalar-vs-dispatched kernel equivalence
// (including dims that are not a multiple of any SIMD width), and the
// decode-free int8 scoring identity.
#include "src/common/vector_codec.h"

#include <cmath>
#include <random>
#include <vector>

#include "gtest/gtest.h"

namespace alaya {
namespace {

std::vector<float> RandomVec(size_t n, uint32_t seed, float scale = 1.f) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> nd(0.f, scale);
  std::vector<float> v(n);
  for (auto& x : v) x = nd(rng);
  return v;
}

// Dims straddling every kernel boundary: scalar tails, one partial SIMD lane,
// exact multiples of 4/8/16, and odd primes.
const size_t kDims[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 15, 16, 17, 31, 32, 64, 67, 128};

TEST(Fp16Test, RoundTripsHalfValuesExactly) {
  // float -> half is lossy, but half -> float -> half must be the identity
  // for every finite half (the fp16 spill round-trip invariant).
  for (uint32_t h = 0; h < 65536; ++h) {
    const float f = Fp16ToFloat(static_cast<uint16_t>(h));
    if (std::isnan(f)) continue;  // NaN payloads may canonicalize.
    if (std::isinf(f)) {
      EXPECT_EQ(Fp16FromFloat(f), static_cast<uint16_t>(h));
      continue;
    }
    EXPECT_EQ(Fp16FromFloat(f), static_cast<uint16_t>(h)) << "h=" << h;
  }
}

TEST(Fp16Test, EncodeRelativeErrorBound) {
  // binary16 has a 10-bit mantissa: RNE keeps normals within 2^-11 relative.
  const auto v = RandomVec(4096, 11, 3.f);
  for (float x : v) {
    const float back = Fp16ToFloat(Fp16FromFloat(x));
    EXPECT_LE(std::fabs(back - x), std::fabs(x) * (1.f / 2048.f) + 1e-7f) << x;
  }
}

TEST(Fp16Test, EdgeCases) {
  EXPECT_EQ(Fp16FromFloat(0.f), 0);
  EXPECT_EQ(Fp16FromFloat(-0.f), 0x8000);
  EXPECT_EQ(Fp16FromFloat(65504.f), 0x7BFF);          // Largest finite half.
  EXPECT_EQ(Fp16FromFloat(65520.f), 0x7C00);          // Rounds to +inf.
  EXPECT_EQ(Fp16FromFloat(1e30f), 0x7C00);            // Overflow.
  EXPECT_EQ(Fp16FromFloat(-1e30f), 0xFC00);
  EXPECT_EQ(Fp16FromFloat(1e-30f), 0);                // Underflow to zero.
  EXPECT_TRUE(std::isnan(Fp16ToFloat(Fp16FromFloat(NAN))));
  EXPECT_EQ(Fp16ToFloat(0x3C00), 1.f);
  EXPECT_EQ(Fp16ToFloat(0x0001), std::ldexp(1.f, -24));  // Smallest subnormal.
}

TEST(Int8CodecTest, RoundTripErrorBound) {
  // Affine int8 over [min, max]: quantization error <= scale / 2 per element.
  for (uint32_t seed : {1u, 2u, 3u}) {
    auto data = RandomVec(64 * 32, seed, 2.f);
    auto orig = data;
    CodecParams p;
    QuantizeRows(data.data(), 64, 32, VectorCodec::kInt8, &p);
    EXPECT_GT(p.scale, 0.f);
    for (size_t i = 0; i < data.size(); ++i) {
      EXPECT_LE(std::fabs(data[i] - orig[i]), p.scale * 0.5f + 1e-5f) << i;
    }
  }
}

TEST(Int8CodecTest, OnGridReencodeIsExact) {
  // Re-encoding already-on-grid data with the SAME params must reproduce the
  // exact codes — the property the spill/restore path relies on for
  // bit-identical round trips.
  auto data = RandomVec(50 * 64, 7, 1.5f);
  CodecParams p;
  QuantizeRows(data.data(), 50, 64, VectorCodec::kInt8, &p);
  const auto grid = data;  // Already on-grid.
  CodedVectorSet first, second;
  first.EncodeWithParams({grid.data(), 50, 64}, VectorCodec::kInt8, p);
  QuantizeRows(data.data(), 50, 64, VectorCodec::kInt8, &p, /*reuse_params=*/true);
  EXPECT_EQ(data, grid);  // QuantizeRows is idempotent on-grid.
  second.EncodeWithParams({data.data(), 50, 64}, VectorCodec::kInt8, p);
  for (uint32_t i = 0; i < 50; ++i) {
    const int8_t* a = first.I8Row(i);
    const int8_t* b = second.I8Row(i);
    for (size_t j = 0; j < 64; ++j) ASSERT_EQ(a[j], b[j]);
  }
}

TEST(Int8CodecTest, DegenerateRangeIsStable) {
  std::vector<float> flat(128, 3.25f);
  CodecParams p;
  QuantizeRows(flat.data(), 4, 32, VectorCodec::kInt8, &p);
  for (float x : flat) EXPECT_FLOAT_EQ(x, 3.25f);
}

TEST(KernelDispatchTest, ScalarMatchesDispatchedWithinUlps) {
  const KernelOps& s = ScalarKernels();
  const KernelOps& k = Kernels();
  for (size_t d : kDims) {
    const auto a = RandomVec(d, 100 + static_cast<uint32_t>(d));
    const auto b = RandomVec(d, 200 + static_cast<uint32_t>(d));
    const float tol = 1e-5f * (1.f + static_cast<float>(d));
    EXPECT_NEAR(s.dot(a.data(), b.data(), d), k.dot(a.data(), b.data(), d), tol)
        << "dot d=" << d << " level=" << k.level;
    EXPECT_NEAR(s.l2sq(a.data(), b.data(), d), k.l2sq(a.data(), b.data(), d), tol)
        << "l2sq d=" << d;

    std::vector<uint16_t> f16(d);
    for (size_t i = 0; i < d; ++i) f16[i] = Fp16FromFloat(b[i]);
    EXPECT_NEAR(s.dot_f16(a.data(), f16.data(), d),
                k.dot_f16(a.data(), f16.data(), d), tol)
        << "dot_f16 d=" << d;

    std::vector<int8_t> i8(d);
    for (size_t i = 0; i < d; ++i) i8[i] = static_cast<int8_t>((i * 37) % 251 - 125);
    EXPECT_NEAR(s.dot_i8(a.data(), i8.data(), d), k.dot_i8(a.data(), i8.data(), d),
                tol * 128.f)
        << "dot_i8 d=" << d;

    // In-place ops: same outputs to within one rounding each.
    auto ys = a, yk = a;
    s.axpy(ys.data(), b.data(), d, 0.37f);
    k.axpy(yk.data(), b.data(), d, 0.37f);
    for (size_t i = 0; i < d; ++i) EXPECT_NEAR(ys[i], yk[i], 1e-6f);
    auto zs = a, zk = a;
    s.scale(zs.data(), d, -1.7f);
    k.scale(zk.data(), d, -1.7f);
    for (size_t i = 0; i < d; ++i) EXPECT_EQ(zs[i], zk[i]);  // One mul: exact.
  }
}

TEST(KernelDispatchTest, ZeroDimIsValid) {
  const KernelOps& k = Kernels();
  EXPECT_EQ(k.dot(nullptr, nullptr, 0), 0.f);
  EXPECT_EQ(k.l2sq(nullptr, nullptr, 0), 0.f);
  EXPECT_EQ(k.dot_f16(nullptr, nullptr, 0), 0.f);
  EXPECT_EQ(k.dot_i8(nullptr, nullptr, 0), 0.f);
  k.axpy(nullptr, nullptr, 0, 1.f);
  k.scale(nullptr, 0, 2.f);
  k.matvec(nullptr, 0, 8, nullptr, nullptr);
}

TEST(QueryScorerTest, Int8DecodeFreeDotMatchesDecodedDot) {
  // dot(q, dec(c)) == scale * (dot_i8(q, c) - zp * sum(q)) to rounding.
  const size_t n = 40, d = 67;  // d deliberately not a SIMD multiple.
  auto data = RandomVec(n * d, 5, 2.f);
  CodecParams p;
  QuantizeRows(data.data(), n, d, VectorCodec::kInt8, &p);
  CodedVectorSet coded;
  coded.EncodeWithParams({data.data(), n, d}, VectorCodec::kInt8, p);
  const auto q = RandomVec(d, 6);

  const ScoringView view({data.data(), n, d}, &coded, 8);
  ASSERT_TRUE(view.coded_active());
  const QueryScorer scorer(view, q.data());
  for (uint32_t i = 0; i < n; ++i) {
    // Exact == coded here because the fp32 rows are already on-grid.
    const float exact = scorer.ExactScore(i);
    EXPECT_NEAR(scorer.Score(i), exact, 2e-3f * (1.f + std::fabs(exact))) << i;
  }
}

TEST(QueryScorerTest, Fp16ScoringAndDecodeRow) {
  const size_t n = 16, d = 31;
  const auto data = RandomVec(n * d, 9);
  CodedVectorSet coded;
  coded.Encode({data.data(), n, d}, VectorCodec::kFp16);
  EXPECT_EQ(coded.size(), n);
  std::vector<float> dec(d);
  const auto q = RandomVec(d, 10);
  const QueryScorer scorer(ScoringView({data.data(), n, d}, &coded, 4), q.data());
  for (uint32_t i = 0; i < n; ++i) {
    coded.DecodeRow(i, dec.data());
    float ref = 0.f;
    for (size_t j = 0; j < d; ++j) {
      EXPECT_LE(std::fabs(dec[j] - data[i * d + j]),
                std::fabs(data[i * d + j]) / 2048.f + 1e-7f);
      ref += q[j] * dec[j];
    }
    EXPECT_NEAR(scorer.Score(i), ref, 1e-4f * (1.f + std::fabs(ref)));
  }
}

TEST(ScoringViewTest, Fp32SidecarIsInert) {
  const size_t n = 8, d = 16;
  const auto data = RandomVec(n * d, 12);
  CodedVectorSet coded;
  coded.Encode({data.data(), n, d}, VectorCodec::kFp32);
  EXPECT_TRUE(coded.empty());
  const ScoringView view({data.data(), n, d}, &coded, 8);
  EXPECT_FALSE(view.coded_active());
  const auto q = RandomVec(d, 13);
  const QueryScorer scorer(view, q.data());
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(scorer.Score(i), scorer.ExactScore(i));  // Bit-identical.
  }
  std::vector<ScoredId> hits{{0, 1.f}, {1, 2.f}};
  EXPECT_EQ(RerankTopHits(view, q.data(), &hits), 0u);  // No-op, order kept.
  EXPECT_EQ(hits[0].id, 0u);
}

TEST(RerankTest, RerankRestoresExactOrdering) {
  const size_t n = 64, d = 32;
  auto data = RandomVec(n * d, 21);
  const auto exact = data;
  CodecParams p;
  QuantizeRows(data.data(), n, d, VectorCodec::kInt8, &p);
  CodedVectorSet coded;
  coded.EncodeWithParams({data.data(), n, d}, VectorCodec::kInt8, p);
  const auto q = RandomVec(d, 22);

  // Score all ids coded, then rerank the full list against the EXACT
  // (pre-quantization) fp32 rows: the head must come back in exact order.
  const ScoringView view({exact.data(), n, d}, &coded, n);
  const QueryScorer scorer(view, q.data());
  std::vector<ScoredId> hits;
  for (uint32_t i = 0; i < n; ++i) hits.push_back({i, scorer.Score(i)});
  SortByScoreDesc(&hits);
  EXPECT_EQ(RerankTopHits(view, q.data(), &hits), n);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].score, hits[i].score);
  }
  for (const auto& h : hits) {
    EXPECT_EQ(h.score, Kernels().dot(q.data(), exact.data() + h.id * d, d));
  }
}

TEST(BatchedCodedTest, MatVecAndMultiQueryMatchScorer) {
  // matvec_i8i16 is the one batched coded kernel: a multi-query call equals
  // one call per query, and each sum is the exact Σ q̂·c, so the scorer's
  // decode-free int8 dot of the dequantized query lands on scale·(S·step −
  // zp·Σ q̂·step) up to float rounding.
  const size_t n = 33, d = 17, nq = 3;
  auto data = RandomVec(n * d, 31);
  CodecParams p;
  QuantizeRows(data.data(), n, d, VectorCodec::kInt8, &p);
  CodedVectorSet coded;
  coded.EncodeWithParams({data.data(), n, d}, VectorCodec::kInt8, p);
  const auto qs = RandomVec(nq * d, 32);
  std::vector<int16_t> qcodes(nq * d);
  std::vector<float> steps(nq);
  for (size_t j = 0; j < nq; ++j) {
    steps[j] = QuantizeQueryInt16(qs.data() + j * d, d, qcodes.data() + j * d).step;
  }

  const KernelOps& ops = Kernels();
  std::vector<int32_t> batched(nq * n);
  ops.matvec_i8i16(coded.I8Row(0), n, d, qcodes.data(), nq, batched.data());
  for (size_t j = 0; j < nq; ++j) {
    std::vector<int32_t> single(n);
    ops.matvec_i8i16(coded.I8Row(0), n, d, qcodes.data() + j * d, 1, single.data());
    std::vector<float> qhat(d);
    int64_t qhat_sum = 0;
    for (size_t k = 0; k < d; ++k) {
      qhat[k] = steps[j] * static_cast<float>(qcodes[j * d + k]);
      qhat_sum += qcodes[j * d + k];
    }
    const QueryScorer scorer(ScoringView({data.data(), n, d}, &coded, 0), qhat.data());
    for (uint32_t i = 0; i < n; ++i) {
      EXPECT_EQ(batched[j * n + i], single[i]);
      int64_t exact = 0;
      for (size_t k = 0; k < d; ++k) {
        exact += int64_t{qcodes[j * d + k]} * int64_t{coded.I8Row(i)[k]};
      }
      EXPECT_EQ(single[i], exact);
      const double want = static_cast<double>(p.scale) * steps[j] *
                          (static_cast<double>(exact) - p.zero_point * qhat_sum);
      EXPECT_NEAR(scorer.Score(i), want, 1e-4 * (1 + std::fabs(want)));
    }
  }
}

/// Random int8 rows and int16 queries at the full range Int16QueryRange(d)
/// allows, plus rows of extreme codes against extreme queries.
void ExpectMatVecI8I16Exact(size_t d, size_t rows, size_t nq, uint32_t seed) {
  std::mt19937 rng(seed);
  const int32_t range = Int16QueryRange(d);
  std::uniform_int_distribution<int> code(-128, 127);
  std::uniform_int_distribution<int32_t> qd(-range, range);
  std::vector<int8_t> codes(rows * d);
  for (auto& c : codes) c = static_cast<int8_t>(code(rng));
  std::vector<int16_t> qs(nq * d);
  for (auto& q : qs) q = static_cast<int16_t>(qd(rng));
  // Extremes: row 0 all −128 and row 1 all 127 against query 0 at ±range, so
  // the sums reach the int32 bound the range rule reserves.
  if (rows >= 2 && nq >= 1) {
    for (size_t k = 0; k < d; ++k) {
      codes[k] = -128;
      codes[d + k] = 127;
      qs[k] = static_cast<int16_t>(k % 2 == 0 || nq == 1 ? -range : range);
    }
  }
  std::vector<int32_t> scalar(rows * nq), wide(rows * nq);
  ScalarKernels().matvec_i8i16(codes.data(), rows, d, qs.data(), nq, scalar.data());
  Kernels().matvec_i8i16(codes.data(), rows, d, qs.data(), nq, wide.data());
  for (size_t j = 0; j < nq; ++j) {
    for (size_t i = 0; i < rows; ++i) {
      int64_t exact = 0;
      for (size_t k = 0; k < d; ++k) {
        exact += int64_t{qs[j * d + k]} * int64_t{codes[i * d + k]};
      }
      ASSERT_EQ(scalar[j * rows + i], exact) << "d=" << d << " q" << j << " row " << i;
      ASSERT_EQ(wide[j * rows + i], exact) << "d=" << d << " q" << j << " row " << i;
    }
  }
}

TEST(MatVecI8I16Test, ScalarAndDispatchedReturnTheExactSums) {
  for (size_t d : kDims) {
    for (size_t nq : {1, 2, 3, 4, 5, 9}) {
      ExpectMatVecI8I16Exact(d, 11, nq, static_cast<uint32_t>(d * 16 + nq));
    }
  }
  ExpectMatVecI8I16Exact(256, 7, 2, 41);
  ExpectMatVecI8I16Exact(512, 5, 1, 42);
  ExpectMatVecI8I16Exact(1000, 3, 2, 43);
}

TEST(MatVecI8I16Test, ExtremeCodesAtFullRange) {
  // −128 and 127 against |q̂| = 32767 at every position: the largest sums
  // the full int16 range produces.
  for (size_t d : {1, 16, 64, 255, 256, 512}) {
    ASSERT_EQ(Int16QueryRange(d), 32767);
    std::vector<int8_t> codes(2 * d);
    std::vector<int16_t> qs(2 * d);
    for (size_t k = 0; k < d; ++k) {
      codes[k] = -128;
      codes[d + k] = 127;
      qs[k] = -32767;
      qs[d + k] = 32767;
    }
    for (const KernelOps* ops : {&ScalarKernels(), &Kernels()}) {
      std::vector<int32_t> out(4);
      ops->matvec_i8i16(codes.data(), 2, d, qs.data(), 2, out.data());
      const int64_t dd = static_cast<int64_t>(d);
      EXPECT_EQ(out[0], dd * 32767 * 128) << ops->level << " d=" << d;
      EXPECT_EQ(out[1], -dd * 32767 * 127) << ops->level << " d=" << d;
      EXPECT_EQ(out[2], -dd * 32767 * 128) << ops->level << " d=" << d;
      EXPECT_EQ(out[3], dd * 32767 * 127) << ops->level << " d=" << d;
    }
  }
}

TEST(MatVecI8I16Test, QueryRangeKeepsEverySumInsideInt32) {
  // Full range up to d = 512 (512 · 32767 · 128 < 2^31); beyond it the
  // range shrinks so d · range · 128 still fits, and is the largest that does.
  constexpr int64_t kInt32Max = 2147483647;
  EXPECT_EQ(Int16QueryRange(0), 32767);
  EXPECT_EQ(Int16QueryRange(256), 32767);
  EXPECT_EQ(Int16QueryRange(512), 32767);
  EXPECT_LT(Int16QueryRange(513), 32767);
  for (size_t d : {1, 64, 256, 512, 513, 1000, 4096, 100000}) {
    const int64_t r = Int16QueryRange(d);
    EXPECT_GE(r, 1);
    EXPECT_LE(static_cast<int64_t>(d) * r * 128, kInt32Max) << d;
    if (r < 32767) {
      EXPECT_GT(static_cast<int64_t>(d) * (r + 1) * 128, kInt32Max) << d;
    }
  }
}

TEST(MatVecI8I16Test, QueryQuantizationReportsItsResidual) {
  for (size_t d : {1, 7, 64, 600}) {
    const auto q = RandomVec(d, static_cast<uint32_t>(d), 3.f);
    std::vector<int16_t> codes(d);
    const Int16Query qq = QuantizeQueryInt16(q.data(), d, codes.data());
    const int32_t range = Int16QueryRange(d);
    double l1 = 0, err = 0;
    int32_t top = 0;
    for (size_t k = 0; k < d; ++k) {
      EXPECT_LE(std::abs(int32_t{codes[k]}), range);
      top = std::max(top, std::abs(int32_t{codes[k]}));
      const double e = static_cast<double>(q[k]) -
                       static_cast<double>(qq.step) * static_cast<double>(codes[k]);
      EXPECT_LE(std::fabs(e), 0.5 * qq.step * (1 + 1e-5)) << k;
      l1 += std::fabs(q[k]);
      err += std::fabs(e);
    }
    EXPECT_EQ(top, range);  // The largest |q| lands on the range.
    EXPECT_NEAR(qq.l1, l1, 1e-9 * l1);
    EXPECT_NEAR(qq.err_l1, err, 1e-9 * (err + 1e-30));
  }
  // A zero query has no usable step: all-zero codes, step 0.
  std::vector<float> zero(8, 0.f);
  std::vector<int16_t> codes(8, 5);
  const Int16Query qq = QuantizeQueryInt16(zero.data(), 8, codes.data());
  EXPECT_EQ(qq.step, 0.f);
  for (int16_t c : codes) EXPECT_EQ(c, 0);
}

TEST(Int8CodecTest, ResidualBoundCoversEveryElement) {
  const size_t n = 50, d = 24;
  const auto data = RandomVec(n * d, 77, 2.f);
  CodedVectorSet coded;
  coded.Encode({data.data(), n, d}, VectorCodec::kInt8);
  const CodecParams& p = coded.params();
  double worst = 0, xmax = 0;
  for (uint32_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < d; ++k) {
      const double x = data[i * d + k];
      const double dec = static_cast<double>(p.scale) *
                         (static_cast<double>(coded.I8Row(i)[k]) - p.zero_point);
      worst = std::max(worst, std::fabs(x - dec));
      xmax = std::max(xmax, std::fabs(x));
    }
  }
  EXPECT_GE(coded.max_residual(), worst);
  EXPECT_LE(coded.max_residual(), 0.5 * p.scale * (1 + 1e-4));  // Rounds to nearest.
  EXPECT_EQ(coded.max_abs(), xmax);

  // On-grid data re-encoded with its own params leaves (almost) nothing.
  std::vector<float> grid = data;
  CodecParams gp;
  QuantizeRows(grid.data(), n, d, VectorCodec::kInt8, &gp);
  CodedVectorSet on_grid;
  on_grid.EncodeWithParams({grid.data(), n, d}, VectorCodec::kInt8, gp);
  EXPECT_LT(on_grid.max_residual(), 1e-5 * gp.scale);
}

TEST(CodecNamesTest, NamesAndWidths) {
  EXPECT_STREQ(VectorCodecName(VectorCodec::kInt8), "int8");
  EXPECT_EQ(CodecBytesPerScalar(VectorCodec::kFp32), 4u);
  EXPECT_EQ(CodecBytesPerScalar(VectorCodec::kFp16), 2u);
  EXPECT_EQ(CodecBytesPerScalar(VectorCodec::kInt8), 1u);
  EXPECT_NE(KernelDispatchLevel(), nullptr);
}

}  // namespace
}  // namespace alaya
