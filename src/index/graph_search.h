// Generic best-first (beam) search over an adjacency graph, maximizing inner
// product. Used by RoarGraph construction (suffix insertion, connectivity
// enhancement) and its top-k query. DIPR queries walk the graph with DIPRS
// instead (src/query/diprs.h).
#pragma once

#include "src/common/vector_codec.h"
#include "src/common/visited_set.h"
#include "src/index/graph_common.h"
#include "src/index/index.h"

namespace alaya {

/// Classic ef-bounded beam search: returns the ef best candidates found,
/// sorted by descending inner product. `visited` may be nullptr (a local set
/// is used); passing one amortizes allocation across queries.
///
/// `vectors` is a ScoringView: pass a bare VectorSetView for exact fp32
/// scoring (every historical call site), or attach a CodedVectorSet to
/// traverse on quantized codes with the top rerank_k hits re-scored against
/// fp32 before returning.
SearchResult GraphBeamSearch(const AdjacencyGraph& graph,
                             const ScoringView& vectors, uint32_t entry,
                             const float* q, size_t ef,
                             VisitedSet* visited = nullptr);

}  // namespace alaya
