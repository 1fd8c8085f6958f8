// DIPRS: approximate processing of the Dynamic Inner-Product Range query
// (paper §6.1.3, Algorithm 1).
//
// DIPR(q, beta) returns every key whose inner product with q is within beta of
// the maximum (Definition 3) — the number of returned critical tokens is
// dynamic, adapting per head and per task (Observations I & II). DIPRS walks a
// graph index with an unordered variable-capacity candidate list:
//   (i)  below capacity threshold l0, explore unconditionally (escape local
//        maxima quickly);
//   (ii) beyond l0, append only candidates within beta of the best-so-far
//        inner product (prune non-critical explorations).
#pragma once

#include <limits>

#include "src/common/vector_codec.h"
#include "src/common/visited_set.h"
#include "src/index/graph_common.h"
#include "src/index/index.h"

namespace alaya {

/// Optional accelerators for DIPRS.
struct DiprsHints {
  /// Window-caching enhancement (§7.1): best inner product among the cached
  /// initial+last window tokens, which holds the global maximum ~98% of the
  /// time; seeding the threshold with it prunes exploration immediately.
  float prior_best_ip = -std::numeric_limits<float>::infinity();
  /// Safety cap on candidate-list growth (0 = unbounded).
  size_t max_explored = 0;
};

/// Algorithm 1. Returns the critical token set c_K, best-first.
///
/// `vectors` is a ScoringView: a bare VectorSetView scores exactly on fp32
/// (every historical call site); attaching a CodedVectorSet traverses on the
/// quantized codes and re-scores the top rerank_k survivors against fp32.
///
/// An enabled `filter` gives attribute-filtered DIPRS for partial context
/// reuse (§7.1): only tokens passing it are candidates; traversal additionally
/// inspects 2-hop neighbors through filtered-out nodes (ACORN-style) so graph
/// connectivity survives the predicate. A disabled filter passes every node,
/// so the walk reduces to the unfiltered Algorithm 1.
SearchResult DiprsSearch(const AdjacencyGraph& graph, const ScoringView& vectors,
                         uint32_t entry, const float* q, const DiprParams& params,
                         const IdFilter& filter = {},
                         const DiprsHints& hints = DiprsHints{},
                         VisitedSet* visited = nullptr);

}  // namespace alaya
