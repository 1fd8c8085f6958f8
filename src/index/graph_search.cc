#include "src/index/graph_search.h"

#include <algorithm>
#include <queue>

#include "src/common/bounded_heap.h"

namespace alaya {

namespace {

struct MaxFirst {
  bool operator()(const ScoredId& a, const ScoredId& b) const {
    return a.score < b.score;  // priority_queue pops the largest score.
  }
};

}  // namespace

SearchResult GraphBeamSearch(const AdjacencyGraph& graph,
                             const ScoringView& vectors, uint32_t entry,
                             const float* q, size_t ef, VisitedSet* visited) {
  SearchResult out;
  if (graph.size() == 0 || ef == 0) return out;

  VisitedSet local;
  if (visited == nullptr) visited = &local;
  visited->Resize(graph.size());
  visited->Reset();

  const QueryScorer scorer(vectors, q);

  // Classic two-heap beam search: `frontier` holds nodes to expand (best
  // first); `results` keeps the ef best scored nodes seen so far.
  std::priority_queue<ScoredId, std::vector<ScoredId>, MaxFirst> frontier;
  TopKMaxHeap results(ef);

  const float entry_score = scorer.Score(entry);
  out.stats.dist_comps++;
  visited->Visit(entry);
  frontier.push({entry, entry_score});
  results.Push(entry, entry_score);

  while (!frontier.empty()) {
    const ScoredId cur = frontier.top();
    frontier.pop();
    if (results.full() && cur.score < results.MinRetained()) break;
    out.stats.hops++;
    for (uint32_t v : graph.Neighbors(cur.id)) {
      if (!visited->Visit(v)) continue;
      const float score = scorer.Score(v);
      out.stats.dist_comps++;
      if (results.WouldAccept(score)) {
        results.Push(v, score);
        frontier.push({v, score});
      }
    }
  }

  out.hits = results.TakeSortedDesc();
  out.stats.dist_comps += RerankTopHits(vectors, q, &out.hits);
  return out;
}

}  // namespace alaya
