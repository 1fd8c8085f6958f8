// The native data-centric attention engine (§7.2): partial attention is
// computed on each device where its KV partition resides (GPU window + local
// tail, CPU retrieved tokens), then aggregated — instead of gathering the
// retrieved KV onto one device first.
#pragma once

#include <cstdint>
#include <span>

#include "src/attention/partial_softmax.h"
#include "src/common/vec_math.h"
#include "src/index/vector_set.h"

namespace alaya {

/// One contiguous-or-sparse slice of a head's KV cache living on one device.
struct KvPartition {
  VectorSetView keys;
  VectorSetView values;
  /// When non-empty, only these token ids participate; otherwise the whole
  /// range [range_begin, range_end) does.
  std::span<const uint32_t> ids;
  uint32_t range_begin = 0;
  uint32_t range_end = 0;
  /// When non-empty, scores[i] = Kernels().dot(q, keys.Vec(ids[i]), d) was
  /// already computed (a flat scan's exact hit scores): the logits come from
  /// it and the key rows are not read again.
  std::span<const float> scores = {};
};

/// Per-call accounting.
struct AttentionStats {
  uint64_t tokens_attended = 0;
  uint64_t flops = 0;
};

/// Computes one head's partial attention over a partition, folding results
/// into `state`. `scale` is 1/sqrt(d) (Eq. 1). Returns tokens processed.
size_t AccumulatePartition(const float* q, const KvPartition& part, float scale,
                           PartialAttention* state);

/// Exact full attention over keys/values [0, n) for one head: the reference
/// the paper's "Full Attention" rows use. out has head_dim floats.
void FullAttentionHead(const float* q, VectorSetView keys, VectorSetView values,
                       size_t n, float* out, AttentionStats* stats = nullptr);

/// Sparse attention over an explicit token id set (plus nothing else).
void SparseAttentionHead(const float* q, VectorSetView keys, VectorSetView values,
                         std::span<const uint32_t> ids, float* out,
                         AttentionStats* stats = nullptr);

/// Exact attention-score vector (softmax over all n logits) for analysis
/// (Fig. 5's per-head critical-set sizes). scores must hold n floats.
void ExactAttentionScores(const float* q, VectorSetView keys, size_t n,
                          float* scores);

}  // namespace alaya
