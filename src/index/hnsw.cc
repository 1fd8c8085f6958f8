#include "src/index/hnsw.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "src/common/bounded_heap.h"
#include "src/common/vector_codec.h"
#include "src/common/visited_set.h"
#include "src/index/graph_search.h"
#include "src/query/diprs.h"

namespace alaya {

Hnsw::Hnsw(VectorSetView view, const HnswOptions& options)
    : view_(view),
      options_(options),
      rng_(options.seed),
      base_(static_cast<uint32_t>(view.n), options.m * 2) {}

Hnsw::~Hnsw() = default;

float Hnsw::Score(const float* a, const float* b) const {
  if (options_.metric == GraphMetric::kInnerProduct) return Kernels().dot(a, b, view_.d);
  return -Kernels().l2sq(a, b, view_.d);
}

Status Hnsw::Build() {
  if (view_.d == 0) return Status::InvalidArgument("dimension is zero");
  for (uint32_t id = next_id_; id < view_.n; ++id) InsertNode(id);
  return Status::Ok();
}

Status Hnsw::AppendNewVectors(VectorSetView grown_view) {
  if (grown_view.d != view_.d && next_id_ > 0) {
    return Status::InvalidArgument("dimension mismatch on append");
  }
  if (grown_view.n < next_id_) {
    return Status::InvalidArgument("grown view smaller than inserted set");
  }
  view_ = grown_view;
  while (base_.size() < view_.n) base_.AddNode();
  return Build();
}

std::span<const uint32_t> Hnsw::NeighborsAt(uint32_t u, int level) const {
  if (level == 0) return base_.Neighbors(u);
  const auto& m = upper_[static_cast<size_t>(level - 1)];
  auto it = m.find(u);
  if (it == m.end()) return {};
  return {it->second.data(), it->second.size()};
}

std::vector<ScoredId> Hnsw::SearchLevel(const float* q, uint32_t entry, size_t ef,
                                        int level, SearchStats* stats) const {
  struct MaxFirst {
    bool operator()(const ScoredId& a, const ScoredId& b) const {
      return a.score < b.score;
    }
  };
  std::priority_queue<ScoredId, std::vector<ScoredId>, MaxFirst> frontier;
  TopKMaxHeap results(ef);
  VisitedSet visited(next_id_ == 0 ? 1 : next_id_);
  visited.Reset();

  const float es = Score(q, view_.Vec(entry));
  if (stats) stats->dist_comps++;
  visited.Visit(entry);
  frontier.push({entry, es});
  results.Push(entry, es);

  while (!frontier.empty()) {
    const ScoredId cur = frontier.top();
    frontier.pop();
    if (results.full() && cur.score < results.MinRetained()) break;
    if (stats) stats->hops++;
    for (uint32_t v : NeighborsAt(cur.id, level)) {
      if (!visited.Visit(v)) continue;
      const float s = Score(q, view_.Vec(v));
      if (stats) stats->dist_comps++;
      if (results.WouldAccept(s)) {
        results.Push(v, s);
        frontier.push({v, s});
      }
    }
  }
  return results.TakeSortedDesc();
}

std::vector<uint32_t> Hnsw::SelectNeighbors(uint32_t node,
                                            const std::vector<ScoredId>& candidates,
                                            uint32_t max_links) const {
  // Heuristic from the HNSW paper: take candidates best-first, but skip any
  // candidate that is closer to an already-selected neighbor than to the new
  // node — this keeps edges pointing in diverse directions.
  std::vector<uint32_t> selected;
  selected.reserve(max_links);
  for (const ScoredId& c : candidates) {
    if (selected.size() >= max_links) break;
    if (c.id == node) continue;
    bool keep = true;
    for (uint32_t s : selected) {
      const float cand_to_sel = Score(view_.Vec(c.id), view_.Vec(s));
      if (cand_to_sel > c.score) {  // c.score == Score(node, c).
        keep = false;
        break;
      }
    }
    if (keep) selected.push_back(c.id);
  }
  // Backfill with skipped candidates if diversity left slots empty.
  if (selected.size() < max_links) {
    for (const ScoredId& c : candidates) {
      if (selected.size() >= max_links) break;
      if (c.id == node) continue;
      if (std::find(selected.begin(), selected.end(), c.id) == selected.end()) {
        selected.push_back(c.id);
      }
    }
  }
  return selected;
}

void Hnsw::PruneOverflow(uint32_t u, int level, uint32_t max_links) {
  std::span<const uint32_t> nbrs = NeighborsAt(u, level);
  if (nbrs.size() <= max_links) return;
  std::vector<ScoredId> scored;
  scored.reserve(nbrs.size());
  for (uint32_t v : nbrs) scored.push_back({v, Score(view_.Vec(u), view_.Vec(v))});
  SortByScoreDesc(&scored);
  std::vector<uint32_t> kept = SelectNeighbors(u, scored, max_links);
  if (level == 0) {
    base_.SetNeighbors(u, kept);
  } else {
    upper_[static_cast<size_t>(level - 1)][u] = std::move(kept);
  }
}

void Hnsw::InsertNode(uint32_t id) {
  const double unif = std::max(rng_.Uniform(), 1e-12);
  const int level =
      static_cast<int>(-std::log(unif) / std::log(static_cast<double>(options_.m)));
  levels_.push_back(level);
  while (static_cast<int>(upper_.size()) < level) upper_.emplace_back();
  next_id_ = id + 1;

  if (id == 0) {
    entry_ = 0;
    max_level_ = level;
    return;
  }

  const float* vec = view_.Vec(id);
  uint32_t cur = entry_;
  // Greedy descent through levels above the node's level.
  for (int l = max_level_; l > level; --l) {
    bool improved = true;
    float cur_score = Score(vec, view_.Vec(cur));
    while (improved) {
      improved = false;
      for (uint32_t v : NeighborsAt(cur, l)) {
        const float s = Score(vec, view_.Vec(v));
        if (s > cur_score) {
          cur_score = s;
          cur = v;
          improved = true;
        }
      }
    }
  }

  // Connect on levels [min(level, max_level_) .. 0].
  for (int l = std::min(level, max_level_); l >= 0; --l) {
    auto candidates = SearchLevel(vec, cur, options_.ef_construction, l, nullptr);
    const uint32_t cap = (l == 0) ? options_.m * 2 : options_.m;
    std::vector<uint32_t> selected = SelectNeighbors(id, candidates, cap);
    if (l == 0) {
      base_.SetNeighbors(id, selected);
    } else {
      upper_[static_cast<size_t>(l - 1)][id] = selected;
    }
    for (uint32_t v : selected) {
      if (l == 0) {
        if (!base_.AddEdge(v, id)) {
          // Neighbor is full: re-select its best cap edges including us.
          std::vector<ScoredId> vn;
          for (uint32_t w : base_.Neighbors(v)) {
            vn.push_back({w, Score(view_.Vec(v), view_.Vec(w))});
          }
          vn.push_back({id, Score(view_.Vec(v), vec)});
          SortByScoreDesc(&vn);
          base_.SetNeighbors(v, SelectNeighbors(v, vn, cap));
        }
      } else {
        auto& lst = upper_[static_cast<size_t>(l - 1)][v];
        if (std::find(lst.begin(), lst.end(), id) == lst.end()) lst.push_back(id);
        if (lst.size() > options_.m) PruneOverflow(v, l, options_.m);
      }
    }
    if (!candidates.empty()) cur = candidates.front().id;
  }

  if (level > max_level_) {
    max_level_ = level;
    entry_ = id;
  }
}

uint32_t Hnsw::EntryPoint(const float* q) const {
  if (next_id_ == 0) return 0;
  uint32_t cur = entry_;
  for (int l = max_level_; l >= 1; --l) {
    bool improved = true;
    float cur_score = Score(q, view_.Vec(cur));
    while (improved) {
      improved = false;
      for (uint32_t v : NeighborsAt(cur, l)) {
        const float s = Score(q, view_.Vec(v));
        if (s > cur_score) {
          cur_score = s;
          cur = v;
          improved = true;
        }
      }
    }
  }
  return cur;
}

uint64_t Hnsw::MemoryBytes() const {
  uint64_t bytes = base_.MemoryBytes() + levels_.capacity() * sizeof(int);
  for (const auto& level : upper_) {
    bytes += level.size() *
             (sizeof(uint32_t) + sizeof(std::vector<uint32_t>) + 16 /* bucket cost */);
    for (const auto& [id, lst] : level) bytes += lst.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

Status Hnsw::SearchTopK(const float* q, const TopKParams& params,
                        SearchResult* out) const {
  if (q == nullptr || out == nullptr) return Status::InvalidArgument("null arg");
  if (next_id_ == 0) {
    out->Clear();
    return Status::Ok();
  }
  out->Clear();
  SearchStats stats;
  const uint32_t ep = EntryPoint(q);
  if (options_.metric == GraphMetric::kInnerProduct) {
    *out = GraphBeamSearch(base_, view_, ep, q, params.EffectiveEf(), nullptr);
  } else {
    out->hits = SearchLevel(q, ep, params.EffectiveEf(), 0, &out->stats);
  }
  out->stats += stats;
  if (out->hits.size() > params.k) out->hits.resize(params.k);
  return Status::Ok();
}

Status Hnsw::SearchDipr(const float* q, const DiprParams& params,
                        SearchResult* out) const {
  if (q == nullptr || out == nullptr) return Status::InvalidArgument("null arg");
  if (options_.metric != GraphMetric::kInnerProduct) {
    return Status::NotSupported("DIPR requires an inner-product graph");
  }
  out->Clear();
  if (next_id_ == 0) return Status::Ok();
  *out = DiprsSearch(base_, view_, EntryPoint(q), q, params);
  return Status::Ok();
}

Status Hnsw::SearchTopKFiltered(const float* q, const TopKParams& params,
                                const IdFilter& filter, SearchResult* out) const {
  ALAYA_RETURN_IF_ERROR(SearchTopK(q, params, out));
  if (filter.enabled()) {
    std::erase_if(out->hits, [&](const ScoredId& h) { return !filter.Pass(h.id); });
  }
  return Status::Ok();
}

Status Hnsw::SearchDiprFiltered(const float* q, const DiprParams& params,
                                const IdFilter& filter, SearchResult* out) const {
  if (q == nullptr || out == nullptr) return Status::InvalidArgument("null arg");
  if (options_.metric != GraphMetric::kInnerProduct) {
    return Status::NotSupported("DIPR requires an inner-product graph");
  }
  out->Clear();
  if (next_id_ == 0) return Status::Ok();
  *out = DiprsSearchFiltered(base_, view_, EntryPoint(q), q, params, filter);
  return Status::Ok();
}

}  // namespace alaya
