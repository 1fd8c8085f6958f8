#include "src/index/flat_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/common/bounded_heap.h"

namespace alaya {

namespace {

/// One query's running DIPR state over rows offered in ascending id order:
/// keeps every row within beta of the running max. The running max never
/// exceeds the final max, so the candidates are a superset of the exact DIPR
/// set { i : score_i >= max - beta }, which Finish cuts out.
struct DiprRun {
  float best = -std::numeric_limits<float>::infinity();
  float cut = -std::numeric_limits<float>::infinity();

  void Offer(uint32_t id, float s, float beta, std::vector<ScoredId>* hits) {
    if (s > best) {
      best = s;
      cut = s - beta;
    }
    if (s >= cut) hits->push_back({id, s});
  }

  void Finish(const DiprParams& params, std::vector<ScoredId>* hits) const {
    std::erase_if(*hits, [t = cut](const ScoredId& h) { return h.score < t; });
    SortByScoreDesc(hits);
    if (params.max_tokens > 0 && hits->size() > params.max_tokens) {
      hits->resize(params.max_tokens);
    }
  }
};

// --- The coded scan's keep bound --------------------------------------------
//
// For a query q and a key row k (both fp32), D = Kernels().dot(q, k) is the
// score the fp32 scan reports and P = Σ q_j·k_j its exact value. The sidecar
// holds codes c with params (s, z); k̂ = s·(c − z) is the decoded row and
// ρ >= max_j |k_j − k̂_j| (CodedVectorSet::max_residual). The query is
// rounded to q ≈ t·q̂ (QuantizeQueryInt16) with residual e = q − t·q̂. The
// kernel returns S = Σ q̂_j·c_j exactly, which fixes the approximate score
//   A = t·Σ q̂_j·k̂_j = t·s·(S − z·Σ q̂_j)
// without rounding it: rows compare through S alone, A_a − A_b =
// t·s·(S_a − S_b). Since P − A = Σ q_j·(k_j − k̂_j) + Σ e_j·k̂_j, and D − P is
// the dot's own rounding, |D − A| <= E with
//   E = ‖q‖₁·ρ          key rounding (ρ ≈ s/2: the encode rounds to nearest)
//     + ‖e‖₁·(M + ρ)    query rounding; M = max |k| over the set, and
//                       |k̂_j| <= M + ρ
//     + γ_d·‖q‖₁·M      fp32 dot rounding: every kernel sums the d products
//                       in a tree where no product passes more than d
//                       roundings (one multiply or FMA, then additions), so
//                       |D − P| <= γ_d·Σ|q_j·k_j|, γ_d = d·u / (1 − d·u),
//                       u = 2^-24 (Higham, Accuracy and Stability of
//                       Numerical Algorithms, §3.1).
//
// A row is kept when A_i + E >= max_r (A_r − E) − β. Let D* = max_r D_r, the
// fp32 scan's maximum. Every A_r − E <= D_r <= D*, so the right side is at
// most D* − β; a row of the fp32 DIPR set has D_i >= D* − β and
// A_i + E >= D_i, so it is kept, and so is the argmax. Rescoring the kept
// rows with the same Kernels().dot finds D* and the cut D* − β again: the
// hits, their scores and their order equal the fp32 scan's.
//
// In kernel units the test reads S_max − S_i <= T, T = (2E + β) / (t·s). t·s
// is exact in double, and E's inputs carry relative error <= (d + 1)·2^-53,
// so the computed T is within (d + 8)·2^-53·T of the exact one: under one
// unit for d <= kMaxCodedDim and T <= 2^33 (S spans less than 2^32, so a
// larger T keeps every row anyway). Rounding T up and adding one unit keeps
// at least the rows the exact test keeps. A zero or non-finite query, scale
// or bound keeps every row, which makes the scan the fp32 scan itself.

/// The lowest kernel sum query `qq` keeps given the best sum `s_max`.
/// INT32_MIN keeps every row (no kernel sum reaches it: |S| < 2^31 − 1).
int32_t KeepFloor(const Int16Query& qq, const CodedVectorSet& codes, size_t d,
                  float beta, int32_t s_max) {
  constexpr double kUnitRoundoff = 0x1p-24;
  constexpr int32_t kKeepAll = std::numeric_limits<int32_t>::min();
  const double rho = codes.max_residual();
  const double m = codes.max_abs();
  const double gamma =
      static_cast<double>(d) * kUnitRoundoff / (1 - static_cast<double>(d) * kUnitRoundoff);
  const double e = qq.l1 * rho + qq.err_l1 * (m + rho) + gamma * qq.l1 * m;
  const double units = (2 * e + static_cast<double>(beta)) /
                       (static_cast<double>(qq.step) *
                        static_cast<double>(codes.params().scale));
  if (!(units <= 0x1p33)) return kKeepAll;  // Also NaN (a zero step).
  const int64_t floor =
      static_cast<int64_t>(s_max) - (static_cast<int64_t>(std::ceil(units)) + 1);
  return static_cast<int32_t>(std::max<int64_t>(floor, kKeepAll));
}

/// Rows ahead of the rescore whose fp32 keys are prefetched.
constexpr size_t kPrefetchRows = 4;

}  // namespace

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
  if (UsesCodes(limit)) {
    ScanCoded(qs, params, outs, limit);
  } else {
    ScanFp32(qs, params, outs, limit);
  }
  return Status::Ok();
}

bool FlatIndex::UsesCodes(size_t limit) const {
  return codes_ != nullptr && codes_->codec() == VectorCodec::kInt8 && limit > 0 &&
         codes_->size() >= limit && codes_->dim() == view_.d && view_.d > 0 &&
         view_.d <= kMaxCodedDim;
}

void FlatIndex::ScanFp32(std::span<const float* const> qs, const DiprParams& params,
                         SearchResult* outs, size_t limit) const {
  const KernelOps& ops = Kernels();
  std::vector<DiprRun> runs(qs.size());
  for (uint32_t i = 0; i < limit; ++i) {
    const float* row = view_.Vec(i);
    for (size_t j = 0; j < qs.size(); ++j) {
      runs[j].Offer(i, ops.dot(qs[j], row, view_.d), params.beta, &outs[j].hits);
    }
  }
  for (size_t j = 0; j < qs.size(); ++j) runs[j].Finish(params, &outs[j].hits);
}

void FlatIndex::ScanCoded(std::span<const float* const> qs, const DiprParams& params,
                          SearchResult* outs, size_t limit) const {
  const KernelOps& ops = Kernels();
  const size_t d = view_.d;
  const size_t nq = qs.size();

  // Score: one pass over the codes for every query of the group.
  std::vector<int16_t> qcodes(nq * d);
  std::vector<Int16Query> quant(nq);
  for (size_t j = 0; j < nq; ++j) {
    quant[j] = QuantizeQueryInt16(qs[j], d, qcodes.data() + j * d);
  }
  std::vector<int32_t> sums(nq * limit);
  ops.matvec_i8i16(codes_->I8Row(0), limit, d, qcodes.data(), nq, sums.data());

  // Keep: each query's floor under its own best sum; a row is rescored when
  // any query keeps it.
  std::vector<int32_t> floor(nq);
  std::vector<uint8_t> keep(limit, 0);
  for (size_t j = 0; j < nq; ++j) {
    const int32_t* s = sums.data() + j * limit;
    int32_t s_max = std::numeric_limits<int32_t>::min();
    for (size_t i = 0; i < limit; ++i) s_max = std::max(s_max, s[i]);
    const int32_t f = KeepFloor(quant[j], *codes_, d, params.beta, s_max);
    for (size_t i = 0; i < limit; ++i) keep[i] |= s[i] >= f ? 1 : 0;
    floor[j] = f;
  }
  std::vector<uint32_t> kept;
  for (uint32_t i = 0; i < limit; ++i) {
    if (keep[i] != 0) kept.push_back(i);
  }

  // Rescore the kept rows in fp32, ascending, each row once for the group.
  const size_t row_bytes = d * sizeof(float);
  std::vector<DiprRun> runs(nq);
  for (size_t r = 0; r < kept.size(); ++r) {
    if (r + kPrefetchRows < kept.size()) {
      const char* ahead = reinterpret_cast<const char*>(view_.Vec(kept[r + kPrefetchRows]));
      for (size_t off = 0; off < row_bytes; off += 64) __builtin_prefetch(ahead + off);
    }
    const uint32_t i = kept[r];
    const float* row = view_.Vec(i);
    for (size_t j = 0; j < nq; ++j) {
      if (sums[j * limit + i] < floor[j]) continue;
      ++outs[j].stats.rescored;
      runs[j].Offer(i, ops.dot(qs[j], row, d), params.beta, &outs[j].hits);
    }
  }
  for (size_t j = 0; j < nq; ++j) runs[j].Finish(params, &outs[j].hits);
}

}  // namespace alaya
