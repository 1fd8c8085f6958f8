// Flat index: exhaustive scan over all key vectors (Table 4 "Flat").
//
// Less efficient than a graph for small k, but sequential access makes it the
// better plan when many critical tokens are needed: the optimizer answers
// layer 0's DIPR with it, because that layer needs a large dynamic critical
// set (Fig. 5).
#pragma once

#include <span>

#include "src/common/status.h"
#include "src/index/index.h"

namespace alaya {

class FlatIndex {
 public:
  /// The index holds a *view*: the caller (KV cache) owns the vectors and must
  /// outlive the index. Flat scans always see the current view.
  explicit FlatIndex(VectorSetView view) : view_(view) {}

  /// Rebinds to a grown vector set (cheap; flat index has no state to update).
  void Rebind(VectorSetView view) { view_ = view; }

  size_t size() const { return view_.n; }

  /// Exact top-k over the keys passing `filter`.
  Status SearchTopK(const float* q, const TopKParams& params, SearchResult* out,
                    const IdFilter& filter = {}) const;
  /// Exact DIPR over the keys passing `filter` (the oracle graph DIPRS is
  /// tested against). The one-query case of the multi-query scan below.
  Status SearchDipr(const float* q, const DiprParams& params, SearchResult* out,
                    const IdFilter& filter = {}) const;
  /// Exact DIPR for every query in `qs` from one pass over the keys: each key
  /// row is scored against all queries while it is in cache, so query heads
  /// that share a KV head stream its keys once. `outs[j]` receives query j's
  /// result, identical to a one-query call.
  Status SearchDipr(std::span<const float* const> qs, const DiprParams& params,
                    SearchResult* outs, const IdFilter& filter = {}) const;

 private:
  VectorSetView view_;
};

}  // namespace alaya
