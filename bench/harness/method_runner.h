// The baseline attention methods compared in §9.1 (Table 5 / Fig. 9), sharing
// one runner so differences are purely algorithmic:
//   - Full Attention: attends everything (GPU, HF-eager cost model);
//   - StreamingLLM:   window tokens only;
//   - InfLLM:         coarse block retrieval, blocks cached on GPU;
//   - Top-k:          RoarGraph top-k on CPU (RetrievalAttention-style).
// AlayaDB's own DIPRS rows do not run here: they run through Session, the
// path that serves (inference_sim.h, SessionSource).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/attention/window_cache.h"
#include "src/core/context_store.h"
#include "src/device/device.h"
#include "src/index/coarse_index.h"
#include "src/llm/qkv_generator.h"

namespace alaya {

struct MethodSpec {
  enum class Kind { kFullAttention, kStreamingLlm, kInfLlm, kTopK };
  Kind kind = Kind::kFullAttention;
  std::string label = "Full Attention";
  /// [initial + last] device-cached window.
  WindowConfig window{128, 512};
  /// Top-k retrieval budget (kTopK) — Table 5 uses 100 and 2000; the beam
  /// is max(k, 64) wide.
  size_t k = 100;
  /// InfLLM: block size and the device cache budget in tokens (= retrieval
  /// budget; more GPU memory buys more attended blocks — Fig. 9's x-axis).
  uint32_t infllm_block = 128;
  size_t infllm_cache_tokens = 4096;

  static MethodSpec Full() { return {}; }
  static MethodSpec Streaming(size_t window_tokens) {
    MethodSpec s;
    s.kind = Kind::kStreamingLlm;
    s.label = "StreamingLLM";
    s.window = WindowConfig{128, static_cast<uint32_t>(window_tokens)};
    return s;
  }
  static MethodSpec InfLlm(size_t cache_tokens, uint32_t recent = 4096) {
    MethodSpec s;
    s.kind = Kind::kInfLlm;
    s.label = "InfLLM";
    s.window = WindowConfig{128, recent};
    s.infllm_cache_tokens = cache_tokens;
    return s;
  }
  static MethodSpec TopK(size_t k) {
    MethodSpec s;
    s.kind = Kind::kTopK;
    s.label = "Top" + std::to_string(k);
    s.k = k;
    return s;
  }
};

/// Per-head-call accounting. Modeled device time is split by how it scales
/// when mapping bench geometry to full-model equivalents: work proportional to
/// the context length (full-attention KV streaming) vs fixed-size work
/// (window/cached-block attention, partial-result transfers).
struct MethodHeadStats {
  double cpu_seconds = 0;  ///< Measured host time (search + CPU attention).
  double gpu_ctx_seconds = 0;    ///< Charged device time, linear in context.
  double gpu_fixed_seconds = 0;  ///< Charged device time, context-independent.
  size_t retrieved = 0;
  size_t attended = 0;
};

class MethodRunner {
 public:
  MethodRunner(const ModelConfig& model, const MethodSpec& spec)
      : model_(model), spec_(spec), window_(spec.window) {}

  /// Builds whatever the method needs over the context KV (offline, like the
  /// paper: "the index of the input context is built in advance"). Top-k
  /// searches the fine indices of `imported` (ImportContext of `context`),
  /// the graphs AlayaDB's own rows search; the other methods ignore it.
  Status Prepare(const SyntheticContext& context, SimEnvironment* env,
                 const Context* imported = nullptr);

  /// Attends one (layer, q_head). q/out are head_dim floats.
  Status AttendHead(uint32_t layer, uint32_t q_head, const float* q, float* out,
                    MethodHeadStats* stats);

  /// Device-resident bytes of this method (KV at deployed precision + index
  /// structures that live on GPU). Model weights excluded.
  uint64_t GpuBytes() const;

  const MethodSpec& spec() const { return spec_; }

  /// Adjusts the top-k retrieval budget without rebuilding the prepared
  /// index (parameter sweeps, Table 3).
  void set_k(size_t k) { spec_.k = k; }

 private:
  ModelConfig model_;
  MethodSpec spec_;
  WindowCache window_;
  const SyntheticContext* context_ = nullptr;
  SimEnvironment* env_ = nullptr;
  const Context* imported_ = nullptr;
  std::vector<std::unique_ptr<CoarseIndex>> coarse_;  ///< [layer][kv_head] flattened.
};

}  // namespace alaya
