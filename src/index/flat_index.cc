#include "src/index/flat_index.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "src/common/bounded_heap.h"
#include "src/common/vector_codec.h"

namespace alaya {

Status FlatIndex::SearchTopK(const float* q, const TopKParams& params,
                             SearchResult* out, const IdFilter& filter) const {
  if (q == nullptr || out == nullptr) {
    return Status::InvalidArgument("null query/output");
  }
  out->Clear();
  TopKMaxHeap heap(params.k);
  const size_t limit = filter.enabled()
                           ? std::min<size_t>(view_.n, filter.prefix_len)
                           : view_.n;
  for (uint32_t i = 0; i < limit; ++i) {
    heap.Push(i, Kernels().dot(q, view_.Vec(i), view_.d));
  }
  out->stats.dist_comps += limit;
  out->hits = heap.TakeSortedDesc();
  return Status::Ok();
}

Status FlatIndex::SearchDipr(const float* q, const DiprParams& params,
                             SearchResult* out, const IdFilter& filter) const {
  return SearchDipr(std::span<const float* const>(&q, 1), params, out, filter);
}

Status FlatIndex::SearchDipr(std::span<const float* const> qs,
                             const DiprParams& params, SearchResult* outs,
                             const IdFilter& filter) const {
  if (outs == nullptr) return Status::InvalidArgument("null output");
  for (const float* q : qs) {
    if (q == nullptr) return Status::InvalidArgument("null query");
  }
  if (params.beta < 0.f) return Status::InvalidArgument("beta must be >= 0");
  const size_t limit = filter.enabled()
                           ? std::min<size_t>(view_.n, filter.prefix_len)
                           : view_.n;
  for (size_t j = 0; j < qs.size(); ++j) {
    outs[j].Clear();
    outs[j].stats.dist_comps += limit;
  }

  // One pass: keep each query's running max and every row within beta of it.
  // The running max never exceeds the final max, so the candidates are a
  // superset of the exact DIPR set { i : score_i >= max - beta }, which the
  // final filter cuts out. (A flat scan computes DIPR exactly — it is the
  // ground-truth oracle the tests use to validate graph-based DIPRS.)
  const KernelOps& ops = Kernels();
  std::vector<float> best(qs.size(), -std::numeric_limits<float>::infinity());
  std::vector<float> cut(qs.size(), -std::numeric_limits<float>::infinity());
  for (uint32_t i = 0; i < limit; ++i) {
    const float* row = view_.Vec(i);
    for (size_t j = 0; j < qs.size(); ++j) {
      const float s = ops.dot(qs[j], row, view_.d);
      if (s > best[j]) {
        best[j] = s;
        cut[j] = s - params.beta;
      }
      if (s >= cut[j]) outs[j].hits.push_back({i, s});
    }
  }
  for (size_t j = 0; j < qs.size(); ++j) {
    std::vector<ScoredId>& hits = outs[j].hits;
    std::erase_if(hits, [t = cut[j]](const ScoredId& h) { return h.score < t; });
    SortByScoreDesc(&hits);
    if (params.max_tokens > 0 && hits.size() > params.max_tokens) {
      hits.resize(params.max_tokens);
    }
  }
  return Status::Ok();
}

}  // namespace alaya
