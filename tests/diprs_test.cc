#include "src/query/diprs.h"

#include <gtest/gtest.h>

#include "src/index/flat_index.h"
#include "src/index/roargraph.h"
#include "tests/test_util.h"

namespace alaya {
namespace {

using testutil::MakeTrainingQueries;
using testutil::PlantedMips;

struct DiprsFixture {
  PlantedMips data;
  RoarGraph graph;

  DiprsFixture(size_t n, size_t d, size_t n_crit, uint64_t seed)
      : data(n, d, n_crit, seed), graph(data.keys.View(), RoarGraphOptions{}) {
    VectorSet training = MakeTrainingQueries(data, 600, seed + 1);
    Status st = graph.BuildFromQueries(training.View());
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  /// DIPRS for the planted query from the graph's entry point.
  SearchResult Search(const DiprParams& params, const IdFilter& filter = {},
                      const DiprsHints& hints = {}) const {
    return DiprsSearch(graph.graph(), data.keys.View(), graph.EntryPoint(),
                       data.query.data(), params, filter, hints);
  }
};

TEST(DiprsTest, RecallsPlantedCriticalSet) {
  DiprsFixture fx(4000, 32, 100, 11);
  DiprParams params;
  // Band is 25% of |q|=40 -> 10; small margin for jitter.
  params.beta = 11.f;
  params.l0 = 128;
  SearchResult res = fx.Search(params);
  EXPECT_GE(fx.data.Recall(res.hits), 0.9) << "hits=" << res.hits.size();
  EXPECT_GT(res.stats.hops, 0u);
  EXPECT_GT(res.stats.dist_comps, 0u);
}

TEST(DiprsTest, ReturnsSupersetNearFlatOracle) {
  // The graph search is approximate but should agree closely with the exact
  // flat-scan DIPR on planted data.
  DiprsFixture fx(3000, 32, 60, 13);
  DiprParams params;
  params.beta = 11.f;
  FlatIndex flat(fx.data.keys.View());
  SearchResult oracle;
  ASSERT_TRUE(flat.SearchDipr(fx.data.query.data(), params, &oracle).ok());
  SearchResult got = fx.Search(params);
  // At least 85% of the oracle's ids found.
  std::vector<bool> found(3000, false);
  for (const auto& h : got.hits) found[h.id] = true;
  size_t inter = 0;
  for (const auto& h : oracle.hits) {
    if (found[h.id]) ++inter;
  }
  EXPECT_GE(static_cast<double>(inter) / oracle.hits.size(), 0.85);
}

TEST(DiprsTest, DynamicSizeAdaptsToCriticalCount) {
  // Observation I reproduced in miniature: same beta, different planted
  // critical-set sizes -> different retrieved counts.
  DiprsFixture small(3000, 32, 20, 17);
  DiprsFixture large(3000, 32, 300, 19);
  DiprParams params;
  params.beta = 11.f;
  SearchResult rs = small.Search(params);
  SearchResult rl = large.Search(params);
  EXPECT_LT(rs.hits.size(), rl.hits.size());
  EXPECT_GT(rl.hits.size(), 150u);
}

TEST(DiprsTest, WindowHintPrunesExploration) {
  DiprsFixture fx(4000, 32, 80, 23);
  DiprParams params;
  params.beta = 11.f;
  SearchResult plain = fx.Search(params);
  DiprsHints hints;
  hints.prior_best_ip = fx.data.ip_max;  // As if the max were window-cached.
  SearchResult hinted = fx.Search(params, IdFilter{}, hints);
  EXPECT_LE(hinted.stats.appended, plain.stats.appended);
  EXPECT_GE(fx.data.Recall(hinted.hits), 0.85);
}

TEST(DiprsTest, MaxTokensCapsResult) {
  DiprsFixture fx(2000, 32, 200, 29);
  DiprParams params;
  params.beta = 11.f;
  params.max_tokens = 10;
  SearchResult res = fx.Search(params);
  EXPECT_LE(res.hits.size(), 10u);
}

TEST(DiprsTest, MaxExploredBoundsListGrowth) {
  DiprsFixture fx(2000, 32, 200, 31);
  DiprParams params;
  params.beta = 11.f;
  DiprsHints hints;
  hints.max_explored = 50;
  SearchResult res = fx.Search(params, IdFilter{}, hints);
  EXPECT_LE(res.stats.appended, 50u);
  EXPECT_LE(res.hits.size(), 50u);
}

TEST(DiprsTest, EmptyGraphReturnsNothing) {
  AdjacencyGraph g;
  VectorSetView empty;
  DiprParams params;
  SearchResult res = DiprsSearch(g, empty, 0, nullptr, params);
  EXPECT_TRUE(res.hits.empty());
}

TEST(DiprsFilteredTest, RespectsPredicate) {
  DiprsFixture fx(3000, 32, 120, 37);
  DiprParams params;
  params.beta = 11.f;
  params.l0 = 128;
  IdFilter filter;
  filter.prefix_len = 1500;
  SearchResult res = fx.Search(params, filter);
  for (const auto& h : res.hits) EXPECT_LT(h.id, 1500u);
  // Recall over the critical ids that pass the filter.
  size_t passing = 0, found = 0;
  std::vector<bool> got(3000, false);
  for (const auto& h : res.hits) got[h.id] = true;
  for (uint32_t id : fx.data.critical) {
    if (id < 1500) {
      ++passing;
      if (got[id]) ++found;
    }
  }
  ASSERT_GT(passing, 10u);
  EXPECT_GE(static_cast<double>(found) / passing, 0.7);
}

/// Exact ids (best-first) and work counters of one DIPRS call.
struct DiprsGolden {
  std::vector<uint32_t> ids;
  uint64_t dist_comps, hops, appended;
};

void ExpectGolden(const SearchResult& res, const DiprsGolden& want) {
  std::vector<uint32_t> ids;
  for (const ScoredId& h : res.hits) ids.push_back(h.id);
  EXPECT_EQ(ids, want.ids);
  EXPECT_EQ(res.stats.dist_comps, want.dist_comps);
  EXPECT_EQ(res.stats.hops, want.hops);
  EXPECT_EQ(res.stats.appended, want.appended);
}

// Pins every search decision of the one DIPRS walk on a fixed fixture: the
// unfiltered sweep, the window-hint prior, a filter the entry passes, and a
// filter the entry fails (BFS seeding plus bridged expansion). A change to
// the walk's visit order, pruning or accounting moves these numbers.
TEST(DiprsFilteredTest, DisabledFilterEqualsPlain) {
  DiprsFixture fx(1500, 32, 50, 41);
  DiprParams params;
  params.beta = 11.f;
  const AdjacencyGraph& graph = fx.graph.graph();
  const VectorSetView keys = fx.data.keys.View();
  const float* q = fx.data.query.data();
  const uint32_t entry = fx.graph.EntryPoint();
  ASSERT_EQ(entry, 134u);

  const std::vector<uint32_t> all = {
      1210, 1178, 1380, 1011, 1025, 19,   818,  107,  673,  1189, 786,  1327, 1278,
      125,  719,  1054, 456,  252,  1354, 1213, 655,  432,  1442, 180,  649,  738,
      957,  389,  134,  142,  478,  527,  1468, 1276, 804,  952,  460,  489,  73,
      1030, 1050, 144,  868,  1099, 275,  814,  353,  701,  60,   176};
  const DiprsGolden plain{all, 649, 71, 70};
  ExpectGolden(DiprsSearch(graph, keys, entry, q, params), plain);
  ExpectGolden(DiprsSearch(graph, keys, entry, q, params, IdFilter{}), plain);

  // A window prior above every key's inner product prunes the sweep.
  DiprsHints hints;
  hints.prior_best_ip = fx.data.ip_max + 4.f;
  ExpectGolden(DiprsSearch(graph, keys, entry, q, params, IdFilter{}, hints),
               {std::vector<uint32_t>(all.begin(), all.begin() + 32), 541, 66, 65});

  IdFilter entry_passes;
  entry_passes.prefix_len = 750;
  ExpectGolden(DiprsSearch(graph, keys, entry, q, params, entry_passes),
               {{19,  107, 673, 125, 719, 456, 252, 655, 432, 180, 649, 738, 389,
                 134, 142, 478, 527, 460, 489, 73,  144, 275, 353, 701, 60,  176},
                446, 385, 64});

  IdFilter entry_fails;
  entry_fails.prefix_len = 64;
  ExpectGolden(DiprsSearch(graph, keys, entry, q, params, entry_fails),
               {{19, 60}, 29, 375, 25});
}

TEST(DiprsFilteredTest, EntryFailingPredicateStillSearches) {
  // Force a filter so tight that most of the graph (including likely entry
  // points) fails it; BFS seeding must still find passing candidates.
  DiprsFixture fx(3000, 32, 100, 43);
  DiprParams params;
  params.beta = 1e9f;  // Everything within range; tests reachability only.
  IdFilter filter;
  filter.prefix_len = 64;
  SearchResult res = fx.Search(params, filter);
  EXPECT_GT(res.hits.size(), 0u);
  for (const auto& h : res.hits) EXPECT_LT(h.id, 64u);
}

/// Parameterized beta sweep: retrieved count grows monotonically with beta
/// (property of Definition 3 preserved by the approximate search).
class DiprsBetaSweep : public ::testing::TestWithParam<float> {};

TEST_P(DiprsBetaSweep, CountRoughlyMonotoneInBeta) {
  static DiprsFixture* fx = new DiprsFixture(3000, 32, 150, 53);
  DiprParams params;
  params.beta = GetParam();
  params.l0 = 128;
  SearchResult res = fx->Search(params);
  // With beta below the band floor we retrieve a subset; at the band we
  // retrieve ~all planted criticals; sanity: non-empty, bounded.
  EXPECT_GE(res.hits.size(), 1u);
  EXPECT_LE(res.hits.size(), 3000u);
  if (params.beta >= 11.f) {
    EXPECT_GE(fx->data.Recall(res.hits), 0.8);
  }
}

INSTANTIATE_TEST_SUITE_P(Betas, DiprsBetaSweep,
                         ::testing::Values(0.f, 2.f, 5.f, 8.f, 11.f, 14.f));

}  // namespace
}  // namespace alaya
