// Flat index: exhaustive scan over all key vectors (Table 4 "Flat").
//
// Less efficient than a graph for small k, but sequential access makes it the
// better plan when many critical tokens are needed: the optimizer answers
// layer 0's DIPR with it, because that layer needs a large dynamic critical
// set (Fig. 5).
//
// Exact DIPR comes in two forms with one answer. Without a sidecar the scan
// scores every fp32 key (the oracle the tests hold graph DIPRS and the coded
// scan to). With an int8 sidecar of the keys (stored contexts carry one per
// layer-0 KV head) it scores the codes against an int16 copy of each query,
// keeps every row a certified error bound cannot rule out, and rescores only
// those in fp32: hit ids, scores and order equal the fp32 scan's bit for bit.
#pragma once

#include <span>

#include "src/common/status.h"
#include "src/common/vector_codec.h"
#include "src/index/index.h"

namespace alaya {

class FlatIndex {
 public:
  /// The index holds a *view*: the caller (KV cache) owns the vectors and must
  /// outlive the index. Flat scans always see the current view. `codes`, when
  /// given, is an int8 encoding of the same rows (CodedVectorSet::Encode) and
  /// must outlive the index too; DIPR then runs the coded scan. A sidecar of
  /// another codec, dimension or with fewer rows than a scan needs is ignored.
  explicit FlatIndex(VectorSetView view, const CodedVectorSet* codes = nullptr)
      : view_(view), codes_(codes) {}

  /// Rebinds to a grown vector set (cheap; flat index has no state to update).
  void Rebind(VectorSetView view) { view_ = view; }

  size_t size() const { return view_.n; }

  /// Exact top-k over the keys passing `filter`.
  Status SearchTopK(const float* q, const TopKParams& params, SearchResult* out,
                    const IdFilter& filter = {}) const;
  /// Exact DIPR over the keys passing `filter`. The one-query case of the
  /// multi-query scan below.
  Status SearchDipr(const float* q, const DiprParams& params, SearchResult* out,
                    const IdFilter& filter = {}) const;
  /// Exact DIPR for every query in `qs` from one pass over the keys (or their
  /// codes): each row is scored against all queries while it is in cache, so
  /// query heads that share a KV head stream its keys once. `outs[j]`
  /// receives query j's result, identical to a one-query call and to the
  /// fp32 scan. stats.dist_comps counts the rows scored; stats.rescored the
  /// fp32 dot products the coded scan spent on the rows it kept.
  Status SearchDipr(std::span<const float* const> qs, const DiprParams& params,
                    SearchResult* outs, const IdFilter& filter = {}) const;

 private:
  /// Largest head dimension the coded scan takes (see the bound in
  /// flat_index.cc); wider keys use the fp32 scan.
  static constexpr size_t kMaxCodedDim = 4096;

  bool UsesCodes(size_t limit) const;
  void ScanFp32(std::span<const float* const> qs, const DiprParams& params,
                SearchResult* outs, size_t limit) const;
  void ScanCoded(std::span<const float* const> qs, const DiprParams& params,
                 SearchResult* outs, size_t limit) const;

  VectorSetView view_;
  const CodedVectorSet* codes_ = nullptr;
};

}  // namespace alaya
