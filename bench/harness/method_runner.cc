#include "bench/harness/method_runner.h"

#include <algorithm>
#include <cmath>

#include "src/attention/attention_engine.h"
#include "src/common/timer.h"

namespace alaya {

Status MethodRunner::Prepare(const SyntheticContext& context, SimEnvironment* env,
                             const Context* imported) {
  context_ = &context;
  env_ = env != nullptr ? env : &SimEnvironment::Global();
  imported_ = imported;
  const ModelConfig& m = model_;

  if (spec_.kind == MethodSpec::Kind::kTopK &&
      (imported == nullptr || !imported->HasFineIndices())) {
    return Status::FailedPrecondition("Top-k needs the imported context's fine indices");
  }
  if (spec_.kind == MethodSpec::Kind::kInfLlm) {
    coarse_.clear();
    CoarseIndexOptions copts;
    copts.block_size = spec_.infllm_block;
    copts.rep_kind = BlockRepKind::kSalient;
    copts.reps_per_block = 4;
    for (uint32_t layer = 0; layer < m.num_layers; ++layer) {
      for (uint32_t h = 0; h < m.num_kv_heads; ++h) {
        coarse_.push_back(
            std::make_unique<CoarseIndex>(context.kv().Keys(layer, h), copts));
      }
    }
  }
  return Status::Ok();
}

uint64_t MethodRunner::GpuBytes() const {
  if (context_ == nullptr) return 0;
  const size_t n = context_->num_tokens();
  const uint64_t per_token = model_.KvBytesPerToken();
  switch (spec_.kind) {
    case MethodSpec::Kind::kFullAttention:
      return static_cast<uint64_t>(n) * per_token;
    case MethodSpec::Kind::kStreamingLlm:
    case MethodSpec::Kind::kTopK:
      // Top-k's graph index and offloaded KV live on CPU: only the window is
      // on device, as for StreamingLLM.
      return window_.Size(n) * per_token;
    case MethodSpec::Kind::kInfLlm: {
      uint64_t reps = 0;
      for (const auto& c : coarse_) reps += c->MemoryBytes();
      // Representatives (at deployed precision) + cached blocks + window.
      return reps / 2 +
             (window_.Size(n) + spec_.infllm_cache_tokens) * per_token;
    }
  }
  return 0;
}

Status MethodRunner::AttendHead(uint32_t layer, uint32_t q_head, const float* q,
                                float* out, MethodHeadStats* stats) {
  if (context_ == nullptr) return Status::FailedPrecondition("Prepare() not called");
  const ModelConfig& m = model_;
  const uint32_t kv_head = m.KvHeadForQuery(q_head);
  const size_t d = m.head_dim;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  VectorSetView keys = context_->kv().Keys(layer, kv_head);
  VectorSetView values = context_->kv().Values(layer, kv_head);
  const size_t n = keys.n;
  const CostModel& cost = env_->cost_model();

  MethodHeadStats local;
  WallTimer wall;

  if (spec_.kind == MethodSpec::Kind::kFullAttention) {
    AttentionStats astats;
    FullAttentionHead(q, keys, values, n, out, &astats);
    local.attended = astats.tokens_attended;
    local.cpu_seconds = 0;  // Runs on GPU in deployment; host time not charged.
    local.gpu_ctx_seconds =
        cost.HfDecodeAttentionSeconds(static_cast<uint64_t>(n) * 2 * d *
                                      m.bytes_per_scalar);
    if (stats != nullptr) *stats = local;
    return Status::Ok();
  }

  // Window partition (device-resident for every sparse method).
  std::vector<uint32_t> window_ids;
  window_.CollectIds(n, &window_ids);

  // Retrieval (InfLLM: coarse blocks; Top-k: the fine graph), minus hits the
  // window already holds. StreamingLLM attends the window only.
  std::vector<uint32_t> retrieved_ids;
  if (spec_.kind != MethodSpec::Kind::kStreamingLlm) {
    SearchResult res;
    if (spec_.kind == MethodSpec::Kind::kInfLlm) {
      const TopKParams params{spec_.infllm_cache_tokens, 0};
      ALAYA_RETURN_IF_ERROR(coarse_[static_cast<size_t>(layer) * m.num_kv_heads + kv_head]
                                ->SearchTopK(q, params, &res));
    } else {
      const TopKParams params{spec_.k, std::max<size_t>(spec_.k, 64)};
      ALAYA_RETURN_IF_ERROR(
          imported_->FineIndex(layer, q_head)->SearchTopK(q, params, &res));
    }
    for (const ScoredId& h : res.hits) {
      if (!window_.Contains(h.id, n)) retrieved_ids.push_back(h.id);
    }
  }
  local.retrieved = retrieved_ids.size();

  // Data-centric partial attention: retrieved tokens where the KV lives (CPU
  // for fine methods, GPU for InfLLM's cached blocks), window on GPU; exact
  // flash-style merge.
  PartialAttention merged(d);
  PartialAttention window_part(d);
  if (!window_ids.empty()) {
    KvPartition part{keys, values, window_ids, 0, 0};
    local.attended += AccumulatePartition(q, part, scale, &window_part);
  }
  PartialAttention retrieved_part(d);
  if (!retrieved_ids.empty()) {
    KvPartition part{keys, values, retrieved_ids, 0, 0};
    local.attended += AccumulatePartition(q, part, scale, &retrieved_part);
  }
  merged.Merge(window_part);
  merged.Merge(retrieved_part);
  merged.Finalize(out);

  local.cpu_seconds = wall.ElapsedSeconds();
  const uint64_t window_bytes =
      static_cast<uint64_t>(window_ids.size()) * 2 * d * m.bytes_per_scalar;
  local.gpu_fixed_seconds += cost.GpuMemoryStreamSeconds(window_bytes);
  // The flash-style partial-result merge ships (d+2) floats across PCIe.
  local.gpu_fixed_seconds += cost.TransferSeconds((d + 2) * sizeof(float));
  if (spec_.kind == MethodSpec::Kind::kInfLlm) {
    // Blocks are GPU-cached: attention over them is device work, not host.
    const uint64_t blk_bytes =
        static_cast<uint64_t>(retrieved_ids.size()) * 2 * d * m.bytes_per_scalar;
    local.gpu_fixed_seconds += cost.GpuMemoryStreamSeconds(blk_bytes);
    local.cpu_seconds *= 0.1;  // Only block scoring is host-side.
  }

  if (stats != nullptr) *stats = local;
  return Status::Ok();
}

}  // namespace alaya
