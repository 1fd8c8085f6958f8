// Flat index: exhaustive scan over all key vectors (Table 4 "Flat").
//
// Less efficient than a graph for small k, but sequential access makes it the
// better plan when many critical tokens are needed (the optimizer uses it for
// layer 1, Fig. 8).
#pragma once

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
  /// tested against).
  Status SearchDipr(const float* q, const DiprParams& params, SearchResult* out,
                    const IdFilter& filter = {}) const;

 private:
  VectorSetView view_;
};

}  // namespace alaya
