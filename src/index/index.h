// Search parameter/result types shared by the three index classes.
//
// The query optimizer (Fig. 8) chooses among three index classes:
//   - kFlat:   scan all keys (sequential memory access, O(n))   -> FlatIndex
//   - kCoarse: block-grained selection, blocks cached on (simulated) GPU
//                                                                -> CoarseIndex
//   - kFine:   per-key graph index, searched on CPU              -> RoarGraph
//
// Each index answers only the queries Table 4 allows it: all three have
// SearchTopK, and only flat and fine have SearchDipr. Every search takes an
// optional trailing IdFilter (attribute filtering, §7.1).
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/vec_math.h"
#include "src/index/vector_set.h"

namespace alaya {

/// Index classes as named in the paper (Table 4).
enum class IndexClass : int { kFlat = 0, kCoarse = 1, kFine = 2 };

const char* IndexClassName(IndexClass c);

/// Counters accumulated during one search.
struct SearchStats {
  uint64_t dist_comps = 0;  ///< Rows scored (inner products evaluated).
  uint64_t hops = 0;        ///< Graph nodes expanded.
  uint64_t appended = 0;    ///< Candidates appended (DIPRS list growth).
  /// Exact fp32 inner products a flat scan spent after its int8 pass, on the
  /// rows that pass could not rule out (0 for a plain fp32 scan).
  uint64_t rescored = 0;

  SearchStats& operator+=(const SearchStats& o) {
    dist_comps += o.dist_comps;
    hops += o.hops;
    appended += o.appended;
    rescored += o.rescored;
    return *this;
  }
};

/// Parameters for top-k retrieval.
struct TopKParams {
  size_t k = 100;
  /// Beam width for graph search (>= k); ignored by flat/coarse indices.
  size_t ef = 0;

  size_t EffectiveEf() const { return ef >= k ? ef : k; }
};

/// Parameters for the DIPR query (Definition 3): return every key whose inner
/// product is within beta of the maximum.
struct DiprParams {
  float beta = 50.0f;
  /// Capacity threshold l0 of Algorithm 1 (exploration floor).
  size_t l0 = 64;
  /// Hard cap on returned tokens (0 = unlimited); guards worst-case latency.
  size_t max_tokens = 0;
};

/// Optional predicate restricting which token ids may be returned
/// (attribute filtering for partial context reuse, §7.1).
struct IdFilter {
  /// Tokens with id < prefix_len pass. prefix_len == UINT32_MAX disables.
  uint32_t prefix_len = UINT32_MAX;

  bool Pass(uint32_t id) const { return id < prefix_len; }
  bool enabled() const { return prefix_len != UINT32_MAX; }
};

/// Search output: retained (id, score) pairs, best-first.
struct SearchResult {
  std::vector<ScoredId> hits;
  SearchStats stats;

  void Clear() {
    hits.clear();
    stats = SearchStats{};
  }
};

}  // namespace alaya
