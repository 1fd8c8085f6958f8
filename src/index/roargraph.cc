#include "src/index/roargraph.h"

#include <algorithm>
#include <deque>
#include <mutex>

#include "src/common/vector_codec.h"
#include "src/index/graph_search.h"
#include "src/query/diprs.h"

namespace alaya {

RoarGraph::RoarGraph(VectorSetView keys, const RoarGraphOptions& options)
    : keys_(keys), options_(options) {}

RoarGraph::~RoarGraph() = default;

Status RoarGraph::BuildFromQueries(VectorSetView queries) {
  if (queries.d != keys_.d) {
    return Status::InvalidArgument("query/key dimension mismatch");
  }
  BipartiteKnnOptions knn_opts;
  knn_opts.k = options_.knn_per_query;
  knn_opts.pool = options_.pool;
  knn_opts.sequential = options_.sequential;
  auto query_knn = ExactBipartiteKnn(keys_, queries, knn_opts);
  return BuildFromBipartite(query_knn);
}

Status RoarGraph::BuildFromBipartite(
    const std::vector<std::vector<ScoredId>>& query_knn) {
  if (keys_.n == 0) return Status::InvalidArgument("no key vectors to index");
  graph_.Reset(static_cast<uint32_t>(keys_.n), options_.max_degree);

  // Entry point: the max-norm key. Greedy MIPS search provably starts well
  // from high-norm points, and attention-sink keys have large norms.
  float best_norm = -1.f;
  for (uint32_t i = 0; i < keys_.n; ++i) {
    const float n2 = Kernels().dot(keys_.Vec(i), keys_.Vec(i), keys_.d);
    if (n2 > best_norm) {
      best_norm = n2;
      entry_ = i;
    }
  }

  ProjectBipartite(query_knn);
  EnhanceConnectivity();
  BuildCodedStore();
  built_ = true;
  return Status::Ok();
}

Status RoarGraph::ExtendFromBase(const RoarGraph& base, size_t base_count) {
  if (!base.built()) return Status::FailedPrecondition("base RoarGraph not built");
  if (base.keys_.d != keys_.d) {
    return Status::InvalidArgument("base/extended key dimension mismatch");
  }
  if (base.size() < base_count || base_count == 0 || base_count > keys_.n) {
    return Status::InvalidArgument(
        "base graph must cover at least the first base_count keys");
  }

  // Adopt the base adjacency for the shared prefix. A base larger than
  // base_count is the partial-reuse case: only its first base_count keys are
  // our tokens, so edges into [base_count, base.size()) are dropped instead
  // of rebuilding the prefix graph from scratch; the connectivity pass below
  // repairs any prefix node the truncation orphans.
  const bool partial_prefix = base.size() > base_count;
  graph_.Reset(static_cast<uint32_t>(keys_.n), options_.max_degree);
  std::vector<uint32_t> nbrs;
  for (uint32_t u = 0; u < base_count; ++u) {
    auto span = base.graph_.Neighbors(u);
    nbrs.clear();
    for (uint32_t v : span) {
      if (v < base_count) nbrs.push_back(v);
    }
    graph_.SetNeighbors(u, nbrs);
  }
  if (base.entry_ < base_count) {
    entry_ = base.entry_;
  } else {
    // The base's max-norm entry lives outside the shared prefix; recompute
    // over the keys we actually kept.
    entry_ = 0;
    float best_norm = -1.f;
    for (uint32_t i = 0; i < base_count; ++i) {
      const float n2 = Kernels().dot(keys_.Vec(i), keys_.Vec(i), keys_.d);
      if (n2 > best_norm) {
        best_norm = n2;
        entry_ = i;
      }
    }
  }
  float entry_norm = Kernels().dot(keys_.Vec(entry_), keys_.Vec(entry_), keys_.d);

  // Insert the suffix keys one at a time: beam-search the growing graph for
  // each new key, expand the hits by one hop, and diversity-prune exactly like
  // a projection candidate list. Reverse edges are best-effort (a saturated
  // neighbor is skipped); the connectivity pass below repairs any node that is
  // left unreachable.
  VisitedSet visited(keys_.n);
  std::vector<uint32_t> candidates;
  for (uint32_t u = static_cast<uint32_t>(base_count); u < keys_.n; ++u) {
    SearchResult res = GraphBeamSearch(graph_, keys_, entry_, keys_.Vec(u),
                                       options_.ef_enhance, &visited);
    candidates.clear();
    for (const ScoredId& hit : res.hits) {
      if (hit.id == u) continue;
      candidates.push_back(hit.id);
      for (uint32_t v : graph_.Neighbors(hit.id)) {
        if (v != u) candidates.push_back(v);
      }
    }
    PruneNode(u, &candidates);
    for (uint32_t v : graph_.Neighbors(u)) graph_.AddEdge(v, u);
    // Preserve the max-norm entry invariant as the key set grows.
    const float n2 = Kernels().dot(keys_.Vec(u), keys_.Vec(u), keys_.d);
    if (n2 > entry_norm) {
      entry_norm = n2;
      entry_ = u;
    }
  }
  built_ = true;  // EnhanceConnectivity's beam searches need a built graph.
  if (keys_.n > base_count || partial_prefix) EnhanceConnectivity();
  BuildCodedStore();
  return Status::Ok();
}

Status RoarGraph::AdoptGraph(AdjacencyGraph&& graph) {
  if (graph.size() != keys_.n) {
    return Status::InvalidArgument("adopted graph size does not match keys");
  }
  graph_ = std::move(graph);
  float best_norm = -1.f;
  for (uint32_t i = 0; i < keys_.n; ++i) {
    const float n2 = Kernels().dot(keys_.Vec(i), keys_.Vec(i), keys_.d);
    if (n2 > best_norm) {
      best_norm = n2;
      entry_ = i;
    }
  }
  BuildCodedStore();
  built_ = true;
  return Status::Ok();
}

void RoarGraph::BuildCodedStore() { coded_.Encode(keys_, options_.codec); }

void RoarGraph::ProjectBipartite(const std::vector<std::vector<ScoredId>>& query_knn) {
  // Stage (2): keys co-retrieved by one query become candidate neighbors.
  // The pivot (top-1) connects to the rest of the list, and consecutive
  // ranks chain together, mirroring RoarGraph's bipartite projection.
  std::vector<std::vector<uint32_t>> candidates(keys_.n);
  for (const auto& lst : query_knn) {
    if (lst.size() < 2) continue;
    const uint32_t pivot = lst[0].id;
    for (size_t j = 1; j < lst.size(); ++j) {
      candidates[pivot].push_back(lst[j].id);
      candidates[lst[j].id].push_back(pivot);
      if (j + 1 < lst.size()) {
        candidates[lst[j].id].push_back(lst[j + 1].id);
        candidates[lst[j + 1].id].push_back(lst[j].id);
      }
    }
  }

  auto prune_one = [&](size_t u) {
    PruneNode(static_cast<uint32_t>(u), &candidates[u]);
  };
  if (options_.sequential) {
    for (size_t u = 0; u < keys_.n; ++u) prune_one(u);
  } else {
    ThreadPool* pool = options_.pool != nullptr ? options_.pool : &ThreadPool::Global();
    pool->ParallelFor(0, keys_.n, prune_one);
  }

  // Reverse edges (best-effort: skipped when the target is full).
  for (uint32_t u = 0; u < keys_.n; ++u) {
    for (uint32_t v : graph_.Neighbors(u)) graph_.AddEdge(v, u);
  }
}

void RoarGraph::PruneNode(uint32_t u, std::vector<uint32_t>* candidates) {
  auto& cand = *candidates;
  std::sort(cand.begin(), cand.end());
  cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
  std::erase(cand, u);
  if (cand.empty()) {
    graph_.SetNeighbors(u, {});
    return;
  }

  // Diversity pruning on key-space L2 (Vamana robust prune): keep candidate c
  // unless an already-kept neighbor s is alpha-times closer to c than u is.
  const KernelOps& ops = Kernels();
  std::vector<ScoredId> by_dist;
  by_dist.reserve(cand.size());
  for (uint32_t c : cand) {
    by_dist.push_back({c, -ops.l2sq(keys_.Vec(u), keys_.Vec(c), keys_.d)});
  }
  SortByScoreDesc(&by_dist);  // Closest first (scores are negated distances).

  std::vector<uint32_t> kept;
  const float alpha2 = options_.prune_alpha * options_.prune_alpha;
  for (const ScoredId& c : by_dist) {
    if (kept.size() >= options_.max_degree) break;
    const float du = -c.score;
    bool occluded = false;
    for (uint32_t s : kept) {
      const float ds = ops.l2sq(keys_.Vec(s), keys_.Vec(c.id), keys_.d);
      if (ds * alpha2 < du) {
        occluded = true;
        break;
      }
    }
    if (!occluded) kept.push_back(c.id);
  }
  graph_.SetNeighbors(u, kept);
}

void RoarGraph::ForceEdge(uint32_t u, uint32_t v) {
  if (graph_.AddEdge(u, v)) return;
  // Full: replace the last slot (the least-diverse survivor of pruning).
  std::vector<uint32_t> nbrs(graph_.Neighbors(u).begin(), graph_.Neighbors(u).end());
  if (nbrs.empty()) return;
  nbrs.back() = v;
  graph_.SetNeighbors(u, nbrs);
}

void RoarGraph::EnhanceConnectivity() {
  // Stage (3): make every node reachable from the entry point. Nodes missed by
  // the projection are attached near their approximate nearest reachable
  // neighbor (found by beam search from the entry). Attaching prefers nodes
  // with spare out-degree; when an edge must be force-replaced, the evicted
  // edge can orphan a subtree, so the pass runs to a fixpoint.
  VisitedSet visited(keys_.n);
  std::vector<bool> reached(keys_.n, false);
  auto bfs_from = [&](uint32_t root) {
    std::deque<uint32_t> queue;
    if (!reached[root]) {
      reached[root] = true;
      queue.push_back(root);
    }
    while (!queue.empty()) {
      const uint32_t u = queue.front();
      queue.pop_front();
      for (uint32_t v : graph_.Neighbors(u)) {
        if (!reached[v]) {
          reached[v] = true;
          queue.push_back(v);
        }
      }
    }
  };

  const int kMaxRounds = 16;
  for (int round = 0; round < kMaxRounds; ++round) {
    std::fill(reached.begin(), reached.end(), false);
    bfs_from(entry_);
    bool complete = true;
    for (uint32_t u = 0; u < keys_.n; ++u) {
      if (reached[u]) continue;
      complete = false;
      // Beam search stays inside the reached component (it starts at entry).
      SearchResult res = GraphBeamSearch(graph_, keys_, entry_, keys_.Vec(u),
                                         options_.ef_enhance, &visited);
      uint32_t attach = entry_;
      bool attach_has_room = graph_.degree(entry_) < graph_.max_degree();
      for (const ScoredId& hit : res.hits) {
        if (hit.id == u || !reached[hit.id]) continue;
        if (graph_.degree(hit.id) < graph_.max_degree()) {
          attach = hit.id;
          attach_has_room = true;
          break;
        }
        if (attach == entry_ && !attach_has_room) attach = hit.id;
      }
      if (attach_has_room) {
        graph_.AddEdge(attach, u);
      } else {
        ForceEdge(attach, u);
      }
      bfs_from(u);  // u's out-edges may reach other stragglers.
    }
    if (complete) return;
  }
}

double RoarGraph::ReachableFraction() const {
  if (keys_.n == 0) return 1.0;
  std::vector<bool> reached(keys_.n, false);
  std::deque<uint32_t> queue{entry_};
  reached[entry_] = true;
  size_t count = 1;
  while (!queue.empty()) {
    const uint32_t u = queue.front();
    queue.pop_front();
    for (uint32_t v : graph_.Neighbors(u)) {
      if (!reached[v]) {
        reached[v] = true;
        ++count;
        queue.push_back(v);
      }
    }
  }
  return static_cast<double>(count) / static_cast<double>(keys_.n);
}

Status RoarGraph::SearchTopK(const float* q, const TopKParams& params,
                             SearchResult* out, const IdFilter& filter) const {
  if (q == nullptr || out == nullptr) return Status::InvalidArgument("null arg");
  if (!built_) return Status::FailedPrecondition("RoarGraph not built");
  *out = GraphBeamSearch(graph_, scoring(), entry_, q, params.EffectiveEf(), nullptr);
  if (out->hits.size() > params.k) out->hits.resize(params.k);
  if (filter.enabled()) {
    std::erase_if(out->hits, [&](const ScoredId& h) { return !filter.Pass(h.id); });
  }
  return Status::Ok();
}

Status RoarGraph::SearchDipr(const float* q, const DiprParams& params,
                             SearchResult* out, const IdFilter& filter) const {
  if (q == nullptr || out == nullptr) return Status::InvalidArgument("null arg");
  if (!built_) return Status::FailedPrecondition("RoarGraph not built");
  *out = DiprsSearch(graph_, scoring(), entry_, q, params, filter);
  return Status::Ok();
}

}  // namespace alaya
