#include "src/attention/attention_engine.h"

#include "src/common/vector_codec.h"

#include <cmath>

namespace alaya {

size_t AccumulatePartition(const float* q, const KvPartition& part, float scale,
                           PartialAttention* state) {
  const size_t d = part.keys.d;
  const KernelOps& ops = Kernels();  // Hoisted: one dispatch for the loop.
  size_t count = 0;
  if (!part.scores.empty()) {
    for (size_t i = 0; i < part.ids.size(); ++i) {
      state->Accumulate(part.scores[i] * scale, part.values.Vec(part.ids[i]));
      ++count;
    }
  } else if (!part.ids.empty()) {
    for (uint32_t id : part.ids) {
      const float logit = ops.dot(q, part.keys.Vec(id), d) * scale;
      state->Accumulate(logit, part.values.Vec(id));
      ++count;
    }
  } else {
    for (uint32_t id = part.range_begin; id < part.range_end; ++id) {
      const float logit = ops.dot(q, part.keys.Vec(id), d) * scale;
      state->Accumulate(logit, part.values.Vec(id));
      ++count;
    }
  }
  return count;
}

void FullAttentionHead(const float* q, VectorSetView keys, VectorSetView values,
                       size_t n, float* out, AttentionStats* stats) {
  const size_t d = keys.d;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  PartialAttention state(d);
  KvPartition all{keys, values, {}, 0, static_cast<uint32_t>(n)};
  const size_t count = AccumulatePartition(q, all, scale, &state);
  state.Finalize(out);
  if (stats != nullptr) {
    stats->tokens_attended += count;
    stats->flops += static_cast<uint64_t>(count) * d * 4;
  }
}

void SparseAttentionHead(const float* q, VectorSetView keys, VectorSetView values,
                         std::span<const uint32_t> ids, float* out,
                         AttentionStats* stats) {
  const size_t d = keys.d;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  PartialAttention state(d);
  KvPartition part{keys, values, ids, 0, 0};
  const size_t count = AccumulatePartition(q, part, scale, &state);
  state.Finalize(out);
  if (stats != nullptr) {
    stats->tokens_attended += count;
    stats->flops += static_cast<uint64_t>(count) * d * 4;
  }
}

void ExactAttentionScores(const float* q, VectorSetView keys, size_t n,
                          float* scores) {
  const size_t d = keys.d;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const KernelOps& ops = Kernels();
  for (size_t i = 0; i < n; ++i) {
    scores[i] = ops.dot(q, keys.Vec(static_cast<uint32_t>(i)), d) * scale;
  }
  SoftmaxInPlace(scores, n);
}

}  // namespace alaya
