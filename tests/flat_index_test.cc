#include "src/index/flat_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <span>

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

// The two-pass DIPR scan the one-pass scan replaced: the exact maximum
// first, then every key within beta of it. Kept here as the reference the
// one-pass scan must reproduce bit for bit.
SearchResult TwoPassDipr(VectorSetView view, const float* q, const DiprParams& params,
                         const IdFilter& filter = {}) {
  SearchResult r;
  const size_t limit =
      filter.enabled() ? std::min<size_t>(view.n, filter.prefix_len) : view.n;
  r.stats.dist_comps = limit;
  if (limit == 0) return r;
  std::vector<float> scores(limit);
  Kernels().matvec(view.data, limit, view.d, q, scores.data());
  const float threshold = *std::max_element(scores.begin(), scores.end()) - params.beta;
  for (uint32_t i = 0; i < limit; ++i) {
    if (scores[i] >= threshold) r.hits.push_back({i, scores[i]});
  }
  SortByScoreDesc(&r.hits);
  if (params.max_tokens > 0 && r.hits.size() > params.max_tokens) {
    r.hits.resize(params.max_tokens);
  }
  return r;
}

// Exact ids, bitwise scores, same order and the same counters.
void ExpectSameResult(const SearchResult& got, const SearchResult& want) {
  ASSERT_EQ(got.hits.size(), want.hits.size());
  for (size_t i = 0; i < want.hits.size(); ++i) {
    EXPECT_EQ(got.hits[i].id, want.hits[i].id) << "rank " << i;
    EXPECT_EQ(std::bit_cast<uint32_t>(got.hits[i].score),
              std::bit_cast<uint32_t>(want.hits[i].score))
        << "rank " << i;
  }
  EXPECT_EQ(got.stats.dist_comps, want.stats.dist_comps);
  EXPECT_EQ(got.stats.hops, want.stats.hops);
  EXPECT_EQ(got.stats.appended, want.stats.appended);
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

TEST(FlatIndexTest, OnePassDiprMatchesTwoPassReference) {
  VectorSet set = MakeRandomSet(400, 32, 21);
  FlatIndex index(set.View());
  Rng rng(22);
  std::vector<float> q(32);
  IdFilter prefix;
  prefix.prefix_len = 150;
  for (int trial = 0; trial < 5; ++trial) {
    rng.FillGaussian(q.data(), 32);
    for (float beta : {0.f, 0.5f, 2.f, 8.f, 1e6f}) {
      for (size_t max_tokens : {size_t{0}, size_t{1}, size_t{7}}) {
        for (const IdFilter& filter : {IdFilter{}, prefix}) {
          DiprParams params;
          params.beta = beta;
          params.max_tokens = max_tokens;
          SearchResult res;
          ASSERT_TRUE(index.SearchDipr(q.data(), params, &res, filter).ok());
          SCOPED_TRACE(testing::Message() << "beta=" << beta << " max_tokens="
                                          << max_tokens << " filter="
                                          << filter.prefix_len);
          ExpectSameResult(res, TwoPassDipr(set.View(), q.data(), params, filter));
        }
      }
    }
  }
}

TEST(FlatIndexTest, OnePassDiprMaxInFirstOrLastRow) {
  // The running max is final at row 0 in one case and only at the last row
  // in the other, where every earlier candidate must be dropped again.
  const size_t n = 200, d = 16;
  Rng rng(23);
  std::vector<float> q(d);
  rng.FillGaussian(q.data(), d);
  std::vector<float> peak(q);
  for (float& x : peak) x *= 10.f;
  for (bool max_first : {true, false}) {
    VectorSet set(d);
    if (max_first) set.Append(peak.data());
    std::vector<float> v(d);
    for (size_t i = 0; i + 1 < n; ++i) {
      rng.FillGaussian(v.data(), d);
      set.Append(v.data());
    }
    if (!max_first) set.Append(peak.data());
    FlatIndex index(set.View());
    for (float beta : {0.f, 3.f, 30.f}) {
      DiprParams params;
      params.beta = beta;
      SearchResult res;
      ASSERT_TRUE(index.SearchDipr(q.data(), params, &res).ok());
      ASSERT_FALSE(res.hits.empty());
      EXPECT_EQ(res.hits[0].id, max_first ? 0u : n - 1);
      SCOPED_TRACE(testing::Message() << "max_first=" << max_first << " beta=" << beta);
      ExpectSameResult(res, TwoPassDipr(set.View(), q.data(), params));
    }
  }
}

TEST(FlatIndexTest, OnePassDiprTiesBreakById) {
  // Duplicated rows score identically; hits order them by ascending id, and
  // with beta = 0 exactly the duplicated maxima come back.
  const size_t d = 8;
  VectorSet set = MakeRandomSet(60, d, 24);
  std::vector<float> q(d, 1.f);
  std::vector<float> peak(d, 3.f);
  std::vector<float> mid(set.Vec(5), set.Vec(5) + d);
  for (size_t i = 0; i < 3; ++i) {
    set.Append(peak.data());
    set.Append(mid.data());
  }
  FlatIndex index(set.View());
  DiprParams params;
  params.beta = 0.f;
  SearchResult res;
  ASSERT_TRUE(index.SearchDipr(q.data(), params, &res).ok());
  ASSERT_EQ(res.hits.size(), 3u);
  EXPECT_EQ(res.hits[0].id, 60u);
  EXPECT_EQ(res.hits[1].id, 62u);
  EXPECT_EQ(res.hits[2].id, 64u);
  ExpectSameResult(res, TwoPassDipr(set.View(), q.data(), params));

  params.beta = 1e6f;
  params.max_tokens = 20;
  ASSERT_TRUE(index.SearchDipr(q.data(), params, &res).ok());
  ExpectSameResult(res, TwoPassDipr(set.View(), q.data(), params));
}

TEST(FlatIndexTest, OnePassDiprEmptyLimit) {
  VectorSet set = MakeRandomSet(50, 8, 25);
  FlatIndex index(set.View());
  std::vector<float> q(8, 1.f);
  IdFilter none;
  none.prefix_len = 0;
  SearchResult res;
  res.hits.push_back({7, 1.f});  // Stale content must be cleared.
  ASSERT_TRUE(index.SearchDipr(q.data(), DiprParams{}, &res, none).ok());
  EXPECT_TRUE(res.hits.empty());
  EXPECT_EQ(res.stats.dist_comps, 0u);
  ExpectSameResult(res, TwoPassDipr(set.View(), q.data(), DiprParams{}, none));
}

TEST(FlatIndexTest, MultiQueryDiprEqualsSingleQueryCalls) {
  VectorSet set = MakeRandomSet(300, 16, 26);
  FlatIndex index(set.View());
  Rng rng(27);
  constexpr size_t kQueries = 4;
  std::vector<float> qbuf(kQueries * 16);
  rng.FillGaussian(qbuf.data(), qbuf.size());
  std::vector<const float*> qs;
  for (size_t j = 0; j < kQueries; ++j) qs.push_back(qbuf.data() + j * 16);
  IdFilter prefix;
  prefix.prefix_len = 120;
  for (float beta : {0.f, 1.f, 4.f}) {
    for (const IdFilter& filter : {IdFilter{}, prefix}) {
      DiprParams params;
      params.beta = beta;
      params.max_tokens = beta > 2.f ? 9 : 0;
      std::vector<SearchResult> multi(kQueries);
      ASSERT_TRUE(index.SearchDipr(qs, params, multi.data(), filter).ok());
      for (size_t j = 0; j < kQueries; ++j) {
        SearchResult single;
        ASSERT_TRUE(index.SearchDipr(qs[j], params, &single, filter).ok());
        SCOPED_TRACE(testing::Message() << "query " << j << " beta=" << beta);
        ExpectSameResult(multi[j], single);
      }
    }
  }
  // An empty query list is a no-op; a null query or output is rejected.
  std::vector<SearchResult> outs(2);
  EXPECT_TRUE(index.SearchDipr(std::span<const float* const>{}, DiprParams{}, outs.data())
                  .ok());
  const float* with_null[] = {qbuf.data(), nullptr};
  EXPECT_TRUE(index.SearchDipr(with_null, DiprParams{}, outs.data()).IsInvalidArgument());
  EXPECT_TRUE(index.SearchDipr(qs, DiprParams{}, nullptr).IsInvalidArgument());
}

// --- The coded scan: int8 sidecar, certified keep bound, fp32 rescore ------

CodedVectorSet Int8Sidecar(const VectorSet& set) {
  CodedVectorSet codes;
  codes.Encode(set.View(), VectorCodec::kInt8);
  return codes;
}

// The coded scan's result for each query of `qs` equals the fp32 scan's (and
// its one-query calls) bit for bit, and its counters add up.
void ExpectCodedEqualsFp32(const VectorSet& set, const CodedVectorSet& codes,
                           const std::vector<const float*>& qs, const DiprParams& params,
                           const IdFilter& filter = {}) {
  const FlatIndex plain(set.View());
  const FlatIndex coded(set.View(), &codes);
  std::vector<SearchResult> want(qs.size()), got(qs.size());
  ASSERT_TRUE(plain.SearchDipr(qs, params, want.data(), filter).ok());
  ASSERT_TRUE(coded.SearchDipr(qs, params, got.data(), filter).ok());
  for (size_t j = 0; j < qs.size(); ++j) {
    SCOPED_TRACE(testing::Message() << "query " << j << " beta=" << params.beta
                                    << " max_tokens=" << params.max_tokens
                                    << " filter=" << filter.prefix_len);
    ExpectSameResult(got[j], want[j]);
    EXPECT_EQ(want[j].stats.rescored, 0u);
    EXPECT_LE(got[j].stats.rescored, got[j].stats.dist_comps);
    if (params.max_tokens == 0) EXPECT_GE(got[j].stats.rescored, got[j].hits.size());
    SearchResult single;
    ASSERT_TRUE(coded.SearchDipr(qs[j], params, &single, filter).ok());
    ExpectSameResult(single, got[j]);
    EXPECT_EQ(single.stats.rescored, got[j].stats.rescored);
  }
}

std::vector<const float*> QueryPointers(const std::vector<float>& buf, size_t d) {
  std::vector<const float*> qs;
  for (size_t j = 0; j + d <= buf.size(); j += d) qs.push_back(buf.data() + j);
  return qs;
}

TEST(FlatIndexCodedTest, EqualsFp32ScanOnRandomData) {
  const size_t d = 64;
  VectorSet set = MakeRandomSet(1500, d, 31);
  const CodedVectorSet codes = Int8Sidecar(set);
  Rng rng(32);
  std::vector<float> qbuf(2 * d);
  IdFilter prefix;
  prefix.prefix_len = 600;
  for (int trial = 0; trial < 3; ++trial) {
    rng.FillGaussian(qbuf.data(), qbuf.size());
    for (float beta : {0.f, 0.5f, 2.f, 8.f, 50.f, 1e6f}) {
      for (size_t max_tokens : {size_t{0}, size_t{1}, size_t{7}}) {
        for (const IdFilter& filter : {IdFilter{}, prefix}) {
          DiprParams params;
          params.beta = beta;
          params.max_tokens = max_tokens;
          ExpectCodedEqualsFp32(set, codes, QueryPointers(qbuf, d), params, filter);
        }
      }
    }
  }
}

TEST(FlatIndexCodedTest, RescoresOnlyWhatTheBoundCannotRuleOut) {
  // On Gaussian keys at a modest beta the int8 pass rules out most rows.
  const size_t d = 64;
  VectorSet set = MakeRandomSet(4000, d, 33);
  const CodedVectorSet codes = Int8Sidecar(set);
  Rng rng(34);
  std::vector<float> q(d);
  rng.FillGaussian(q.data(), d);
  DiprParams params;
  params.beta = 4.f;
  SearchResult res;
  ASSERT_TRUE(FlatIndex(set.View(), &codes).SearchDipr(q.data(), params, &res).ok());
  EXPECT_EQ(res.stats.dist_comps, 4000u);
  EXPECT_GT(res.stats.rescored, 0u);
  EXPECT_LT(res.stats.rescored * 4, res.stats.dist_comps);
}

TEST(FlatIndexCodedTest, DimsThatAreNotAMultipleOfSixteen) {
  for (size_t d : {1, 7, 17, 33, 100}) {
    VectorSet set = MakeRandomSet(300, d, 40 + d);
    const CodedVectorSet codes = Int8Sidecar(set);
    Rng rng(41 + d);
    std::vector<float> qbuf(3 * d);
    rng.FillGaussian(qbuf.data(), qbuf.size());
    for (float beta : {0.f, 1.f, 5.f}) {
      DiprParams params;
      params.beta = beta;
      SCOPED_TRACE(testing::Message() << "d=" << d);
      ExpectCodedEqualsFp32(set, codes, QueryPointers(qbuf, d), params);
    }
  }
}

TEST(FlatIndexCodedTest, RowsPlantedWithinOneUlpOfTheCut) {
  // beta = D* − D_r puts row r exactly on the cut (Sterbenz: both scores are
  // within a factor of two, so the subtraction and D* − beta are exact);
  // one ulp either way moves it just inside or just outside.
  const size_t d = 48;
  VectorSet set = MakeRandomSet(800, d, 51);
  std::vector<float> shifted(d);
  for (uint32_t i = 0; i < set.size(); ++i) {
    float* row = set.MutableVec(i);
    for (size_t k = 0; k < d; ++k) row[k] = row[k] * 0.1f + 1.f;  // Scores > 0.
  }
  const CodedVectorSet codes = Int8Sidecar(set);
  Rng rng(52);
  std::vector<float> q(d);
  for (float& x : q) x = 0.5f + 0.01f * static_cast<float>(rng.UniformInt(100));
  std::vector<float> scores(set.size());
  Kernels().matvec(set.View().data, set.size(), d, q.data(), scores.data());
  const float top = *std::max_element(scores.begin(), scores.end());
  int planted = 0;
  for (uint32_t r = 0; r < set.size(); r += 37) {
    ASSERT_LE(scores[r], top);
    ASSERT_GE(scores[r], top / 2);
    const float beta = top - scores[r];
    ASSERT_EQ(top - beta, scores[r]);
    for (float b : {beta, std::nextafter(beta, 0.f), std::nextafter(beta, 1e30f)}) {
      DiprParams params;
      params.beta = b;
      ExpectCodedEqualsFp32(set, codes, {q.data()}, params);
    }
    ++planted;
  }
  EXPECT_GT(planted, 10);
}

TEST(FlatIndexCodedTest, TiesOnEveryRow) {
  const size_t d = 20;
  VectorSet set(d);
  std::vector<float> row(d);
  Rng rng(61);
  rng.FillGaussian(row.data(), d);
  for (int i = 0; i < 120; ++i) set.Append(row.data());
  const CodedVectorSet codes = Int8Sidecar(set);
  std::vector<float> qbuf(2 * d);
  rng.FillGaussian(qbuf.data(), qbuf.size());
  for (float beta : {0.f, 1.f}) {
    for (size_t max_tokens : {size_t{0}, size_t{5}}) {
      DiprParams params;
      params.beta = beta;
      params.max_tokens = max_tokens;
      ExpectCodedEqualsFp32(set, codes, QueryPointers(qbuf, d), params);
    }
  }
  SearchResult res;
  ASSERT_TRUE(FlatIndex(set.View(), &codes).SearchDipr(qbuf.data(), DiprParams{0.f}, &res).ok());
  ASSERT_EQ(res.hits.size(), 120u);
  for (uint32_t i = 0; i < 120; ++i) EXPECT_EQ(res.hits[i].id, i);
}

TEST(FlatIndexCodedTest, Int8KvCodecKeysOnTheirOwnGrid) {
  // kv_codec int8 stores keys on the grid and lends the sidecar its params:
  // the key residual is (nearly) zero and the kept set shrinks to the DIPR set.
  const size_t n = 1200, d = 64;
  VectorSet set = MakeRandomSet(n, d, 71);
  CodecParams p;
  QuantizeRows(set.MutableVec(0), n, d, VectorCodec::kInt8, &p);
  CodedVectorSet codes;
  codes.EncodeWithParams(set.View(), VectorCodec::kInt8, p);
  EXPECT_LT(codes.max_residual(), 1e-5 * p.scale);
  Rng rng(72);
  std::vector<float> qbuf(2 * d);
  IdFilter prefix;
  prefix.prefix_len = 500;
  for (int trial = 0; trial < 3; ++trial) {
    rng.FillGaussian(qbuf.data(), qbuf.size());
    for (float beta : {0.f, 2.f, 10.f}) {
      for (const IdFilter& filter : {IdFilter{}, prefix}) {
        DiprParams params;
        params.beta = beta;
        ExpectCodedEqualsFp32(set, codes, QueryPointers(qbuf, d), params, filter);
      }
    }
  }
}

TEST(FlatIndexCodedTest, MismatchedSidecarIsIgnored) {
  VectorSet set = MakeRandomSet(100, 16, 81);
  VectorSet shorter = MakeRandomSet(50, 16, 82);
  VectorSet narrower = MakeRandomSet(100, 8, 83);
  CodedVectorSet fp16;
  fp16.Encode(set.View(), VectorCodec::kFp16);
  std::vector<float> q(16, 1.f);
  SearchResult want;
  ASSERT_TRUE(FlatIndex(set.View()).SearchDipr(q.data(), DiprParams{}, &want).ok());
  for (const CodedVectorSet& bad : {Int8Sidecar(shorter), Int8Sidecar(narrower), fp16}) {
    SearchResult got;
    ASSERT_TRUE(FlatIndex(set.View(), &bad).SearchDipr(q.data(), DiprParams{}, &got).ok());
    ExpectSameResult(got, want);
    EXPECT_EQ(got.stats.rescored, 0u);
  }
  // A filter short enough for the shorter sidecar uses it.
  const CodedVectorSet prefix_codes = Int8Sidecar(set);
  IdFilter prefix;
  prefix.prefix_len = 40;
  ExpectCodedEqualsFp32(set, prefix_codes, {q.data()}, DiprParams{}, prefix);
}

// Each term of the keep bound E (flat_index.cc) is load-bearing: the next
// three cases make the fp32 argmax trail the int8 argmax by more than the
// other two terms allow, so a scan without that term drops the true answer.
// Integer keys spanning [-128, 127] fix the sidecar at scale 1, zero point 0.

TEST(FlatIndexCodedTest, KeyRoundingTermKeepsTheTrueArgmax) {
  // Row 1 sits 0.499 above the grid in every coordinate, so its codes round
  // down; row 0 is on the grid, one step up in 7 of 16 coordinates. The int8
  // pass ranks row 0 first by 7·32767 units, the fp32 scores row 1 first.
  const size_t d = 16;
  VectorSet set(d);
  std::vector<float> row(d);
  for (size_t k = 0; k < d; ++k) row[k] = k < 7 ? 51.f : 50.f;
  set.Append(row.data());
  std::fill(row.begin(), row.end(), 50.499f);
  set.Append(row.data());
  for (size_t k = 0; k < d; ++k) row[k] = k % 2 == 0 ? -128.f : 127.f;
  set.Append(row.data());
  const CodedVectorSet codes = Int8Sidecar(set);
  ASSERT_EQ(codes.params().scale, 1.f);
  ASSERT_EQ(codes.params().zero_point, 0.f);
  std::vector<float> q(d, 1.f);
  DiprParams params;
  params.beta = 0.f;
  SearchResult res;
  ASSERT_TRUE(FlatIndex(set.View(), &codes).SearchDipr(q.data(), params, &res).ok());
  ASSERT_EQ(res.hits.size(), 1u);
  EXPECT_EQ(res.hits[0].id, 1u);
  ExpectCodedEqualsFp32(set, codes, {q.data()}, params);
}

TEST(FlatIndexCodedTest, QueryRoundingTermKeepsTheTrueArgmax) {
  // The query is 32767 in coordinate 0 (step 1) and m + 0.49 elsewhere, so
  // every other coordinate rounds down by 0.49. Row 1 (127 in coordinates
  // 1..63) gains 63·0.49·127 ≈ 3920 from that rounding and beats row 0
  // (1 in coordinate 0) in fp32, while trailing it by 1017 int8 units.
  const size_t d = 64;
  VectorSet set(d);
  std::vector<float> row(d, 0.f);
  row[0] = 1.f;
  set.Append(row.data());
  std::fill(row.begin(), row.end(), 127.f);
  row[0] = 0.f;
  set.Append(row.data());
  for (size_t k = 0; k < d; ++k) row[k] = k % 2 == 0 ? -128.f : 127.f;
  set.Append(row.data());
  const CodedVectorSet codes = Int8Sidecar(set);
  ASSERT_EQ(codes.params().scale, 1.f);
  ASSERT_EQ(codes.params().zero_point, 0.f);
  std::vector<float> q(d);
  q[0] = 32767.f;
  for (size_t k = 1; k < d; ++k) q[k] = (k < 63 ? 4.f : 2.f) + 0.49f;  // Σ m = 250.
  std::vector<int16_t> qhat(d);
  ASSERT_EQ(QuantizeQueryInt16(q.data(), d, qhat.data()).step, 1.f);
  DiprParams params;
  params.beta = 0.f;
  SearchResult res;
  ASSERT_TRUE(FlatIndex(set.View(), &codes).SearchDipr(q.data(), params, &res).ok());
  ASSERT_EQ(res.hits.size(), 1u);
  EXPECT_EQ(res.hits[0].id, 1u);
  ExpectCodedEqualsFp32(set, codes, {q.data()}, params);
}

TEST(FlatIndexCodedTest, DotRoundingTermKeepsTheTrueArgmax) {
  // Keys and query both on their grids (no key or query rounding), with
  // scores near 2^28 where fp32 spacing is 16: among single-step
  // perturbations of one row, find a pair whose exact scores differ by >= 3
  // units but whose fp32 scores are ordered the other way. Without the dot
  // term the int8 pass would keep only rows within 2 units of its maximum.
  const size_t d = 64;
  Rng rng(91);
  std::vector<float> q(d), base(d);
  for (size_t k = 0; k < d; ++k) {
    q[k] = k == 0 ? 32767.f : static_cast<float>(30000 + rng.UniformInt(2767));
    base[k] = static_cast<float>(100 + rng.UniformInt(26));
  }
  struct Cand {
    std::vector<float> row;
    int64_t exact;
    float fp32;
  };
  std::vector<Cand> cands;
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = 0; b < d; ++b) {
      if (a == b) continue;
      Cand c{base, 0, 0.f};
      c.row[a] += 1.f;
      c.row[b] -= 1.f;
      for (size_t k = 0; k < d; ++k) {
        c.exact += static_cast<int64_t>(q[k]) * static_cast<int64_t>(c.row[k]);
      }
      c.fp32 = Kernels().dot(q.data(), c.row.data(), d);
      cands.push_back(std::move(c));
    }
  }
  std::sort(cands.begin(), cands.end(),
            [](const Cand& x, const Cand& y) { return x.exact < y.exact; });
  const Cand* hi = nullptr;  // Higher exact score, lower fp32 score.
  const Cand* lo = nullptr;
  for (size_t i = 0; i < cands.size() && hi == nullptr; ++i) {
    for (size_t j = i + 1; j < cands.size(); ++j) {
      if (cands[j].exact - cands[i].exact < 3) continue;
      if (cands[j].exact - cands[i].exact > 64) break;
      if (cands[j].fp32 < cands[i].fp32) {
        hi = &cands[j];
        lo = &cands[i];
        break;
      }
    }
  }
  ASSERT_NE(hi, nullptr) << "no fp32-reversed pair among the perturbations";
  VectorSet set(d);
  set.Append(hi->row.data());
  set.Append(lo->row.data());
  std::vector<float> extremes(d, -128.f);
  extremes[0] = 127.f;
  set.Append(extremes.data());
  const CodedVectorSet codes = Int8Sidecar(set);
  ASSERT_EQ(codes.params().scale, 1.f);
  ASSERT_EQ(codes.params().zero_point, 0.f);
  DiprParams params;
  params.beta = 0.f;
  SearchResult res;
  ASSERT_TRUE(FlatIndex(set.View(), &codes).SearchDipr(q.data(), params, &res).ok());
  ASSERT_FALSE(res.hits.empty());
  EXPECT_EQ(res.hits[0].id, 1u);  // The fp32 argmax, though int8 ranks it second.
  ExpectCodedEqualsFp32(set, codes, {q.data()}, params);
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
