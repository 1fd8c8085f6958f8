#include "src/query/diprs.h"

#include <algorithm>
#include <deque>
#include <optional>

namespace alaya {

namespace {

/// tryAppend (Algorithm 1, lines 10-14) shared state.
struct DiprsState {
  std::vector<ScoredId> c;  ///< Unordered candidate list C (insertion order).
  float best_ip;            ///< Max inner product over C and the window prior.
  float beta;
  size_t l0;
  size_t max_explored = 0;  ///< Strict cap on |C| (0 = unbounded).
  SearchStats stats;
};

inline void TryAppend(uint32_t id, float ip, DiprsState* st) {
  if (st->max_explored > 0 && st->c.size() >= st->max_explored) {
    if (ip > st->best_ip) st->best_ip = ip;
    return;
  }
  // Line 13: append while below the capacity floor, or when within beta of
  // the best-so-far inner product.
  if (st->c.size() <= st->l0 || ip >= st->best_ip - st->beta) {
    st->c.push_back({id, ip});
    st->stats.appended++;
    if (ip > st->best_ip) st->best_ip = ip;
  }
}

SearchResult Finalize(DiprsState* st, const DiprParams& params,
                      const ScoringView& view, const float* q) {
  SearchResult out;
  out.stats = st->stats;
  const float threshold = st->best_ip - params.beta;
  for (const ScoredId& c : st->c) {
    if (c.score >= threshold) out.hits.push_back(c);
  }
  SortByScoreDesc(&out.hits);
  if (params.max_tokens > 0 && out.hits.size() > params.max_tokens) {
    out.hits.resize(params.max_tokens);
  }
  // Coded views: re-score the head of the critical set against exact fp32 so
  // the attention weights downstream see exact inner products for the tokens
  // that dominate the softmax.
  out.stats.dist_comps += RerankTopHits(view, q, &out.hits);
  return out;
}

}  // namespace

SearchResult DiprsSearch(const AdjacencyGraph& graph, const ScoringView& vectors,
                         uint32_t entry, const float* q, const DiprParams& params,
                         const IdFilter& filter, const DiprsHints& hints,
                         VisitedSet* visited) {
  SearchResult empty;
  if (graph.size() == 0) return empty;

  VisitedSet local;
  if (visited == nullptr) visited = &local;
  visited->Resize(graph.size());
  visited->Reset();

  DiprsState st;
  st.beta = params.beta;
  st.l0 = params.l0;
  st.max_explored = hints.max_explored;
  st.best_ip = hints.prior_best_ip;

  const QueryScorer scorer(vectors, q);

  // Line 1: initialize C with the start key. If the entry fails the
  // predicate, BFS through the graph (bounded) until a few passing seeds are
  // found.
  visited->Visit(entry);
  if (filter.Pass(entry)) {
    const float ip = scorer.Score(entry);
    st.stats.dist_comps++;
    st.c.push_back({entry, ip});
    if (ip > st.best_ip) st.best_ip = ip;
  } else {
    std::deque<uint32_t> bfs{entry};
    const size_t kSeedTarget = 4;
    const size_t kBfsBudget = 4096;
    size_t popped = 0;
    while (!bfs.empty() && st.c.size() < kSeedTarget && popped < kBfsBudget) {
      const uint32_t u = bfs.front();
      bfs.pop_front();
      ++popped;
      for (uint32_t v : graph.Neighbors(u)) {
        if (!visited->Visit(v)) continue;
        if (filter.Pass(v)) {
          const float ip = scorer.Score(v);
          st.stats.dist_comps++;
          st.c.push_back({v, ip});
          if (ip > st.best_ip) st.best_ip = ip;
        } else {
          bfs.push_back(v);
        }
      }
    }
    if (st.c.empty()) return empty;  // Predicate selects nothing reachable.
  }

  // Lines 3-7: sweep C in insertion order; C grows during the sweep.
  //
  // Bridged expansion through filtered-out nodes (§7.1, after ACORN [49]): a
  // neighbor v failing the predicate becomes a "bridge" whose own
  // neighborhood is inspected, breadth-first with a bounded drain per
  // candidate, so connectivity survives even low-selectivity predicates
  // (e.g. a 20% reuse ratio) without scanning the whole graph. Without a
  // filter no node is a bridge, so the queue (which allocates on
  // construction) is never built.
  std::optional<std::deque<uint32_t>> bridges;
  if (filter.enabled()) bridges.emplace();
  const size_t kBridgeDrainPerHop = 48;
  for (size_t i = 0; i < st.c.size(); ++i) {
    if (hints.max_explored > 0 && st.c.size() >= hints.max_explored) break;
    const uint32_t u = st.c[i].id;
    st.stats.hops++;
    for (uint32_t v : graph.Neighbors(u)) {
      if (!visited->Visit(v)) continue;
      if (filter.Pass(v)) {
        const float ip = scorer.Score(v);
        st.stats.dist_comps++;
        TryAppend(v, ip, &st);
      } else {
        bridges->push_back(v);
      }
    }
    if (!bridges) continue;
    size_t drained = 0;
    while (!bridges->empty() && drained < kBridgeDrainPerHop) {
      const uint32_t b = bridges->front();
      bridges->pop_front();
      ++drained;
      st.stats.hops++;
      for (uint32_t w : graph.Neighbors(b)) {
        if (!visited->Visit(w)) continue;
        if (filter.Pass(w)) {
          const float ip = scorer.Score(w);
          st.stats.dist_comps++;
          TryAppend(w, ip, &st);
        } else {
          bridges->push_back(w);
        }
      }
    }
  }

  // Lines 8-9: keep candidates within beta of the best inner product found.
  return Finalize(&st, params, vectors, q);
}

}  // namespace alaya
