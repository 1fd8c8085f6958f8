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
