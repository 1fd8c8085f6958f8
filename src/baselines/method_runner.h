// The sparse-attention methods compared in §9.1 (Table 5 / Fig. 9), sharing
// one runner so differences are purely algorithmic:
//   - Full Attention: attends everything (GPU, HF-eager cost model);
//   - StreamingLLM:   window tokens only;
//   - InfLLM:         coarse block retrieval, blocks cached on GPU;
//   - Top-k:          RoarGraph top-k on CPU (RetrievalAttention-style);
//   - DIPRS:          the paper's dynamic inner-product range search.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/attention/window_cache.h"
#include "src/core/kv_cache.h"
#include "src/device/device.h"
#include "src/index/coarse_index.h"
#include "src/index/index_builder.h"
#include "src/index/roargraph.h"
#include "src/llm/qkv_generator.h"

namespace alaya {

struct MethodSpec {
  enum class Kind { kFullAttention, kStreamingLlm, kInfLlm, kTopK, kDiprs };
  Kind kind = Kind::kDiprs;
  std::string label = "DIPRS";
  /// [initial + last] device-cached window.
  WindowConfig window{128, 512};
  /// Top-k retrieval budget (kTopK) — Table 5 uses 100 and 2000.
  size_t k = 100;
  size_t ef = 0;  ///< Beam width (0 -> max(k, 64)).
  /// DIPR beta in raw inner-product units (z-band width * sqrt(d)).
  float beta = 16.0f;
  size_t dipr_l0 = 128;
  /// InfLLM: block size and the device cache budget in tokens (= retrieval
  /// budget; more GPU memory buys more attended blocks — Fig. 9's x-axis).
  uint32_t infllm_block = 128;
  size_t infllm_cache_tokens = 4096;

  static MethodSpec Full() {
    MethodSpec s;
    s.kind = Kind::kFullAttention;
    s.label = "Full Attention";
    return s;
  }
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
  static MethodSpec Diprs(float beta) {
    MethodSpec s;
    s.kind = Kind::kDiprs;
    s.label = "DIPRS";
    s.beta = beta;
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
  SearchStats search;
};

class MethodRunner {
 public:
  MethodRunner(const ModelConfig& model, const MethodSpec& spec)
      : model_(model), spec_(spec), window_(spec.window) {}

  /// Builds whatever the method needs over the context KV (offline, like the
  /// paper: "the index of the input context is built in advance").
  Status Prepare(const SyntheticContext& context, SimEnvironment* env,
                 const IndexBuildOptions& build_options = IndexBuildOptions{});

  /// Attends one (layer, q_head). q/out are head_dim floats.
  /// `used_ids` (optional) receives the non-window token ids attended —
  /// used by recovery-ratio analyses.
  Status AttendHead(uint32_t layer, uint32_t q_head, const float* q, float* out,
                    MethodHeadStats* stats, std::vector<uint32_t>* used_ids = nullptr);

  /// Device-resident bytes of this method (KV at deployed precision + index
  /// structures that live on GPU). Model weights excluded.
  uint64_t GpuBytes() const;

  const MethodSpec& spec() const { return spec_; }
  const ModelConfig& model() const { return model_; }

  /// Adjusts the top-k retrieval budget without rebuilding the prepared
  /// index (parameter sweeps, Table 3 / Fig. 6).
  void set_k(size_t k) {
    spec_.k = k;
    spec_.ef = 0;
  }
  /// Adjusts DIPR's beta on the prepared index.
  void set_beta(float beta) { spec_.beta = beta; }

 private:
  const RoarGraph* FineIndex(uint32_t layer, uint32_t q_head) const;

  ModelConfig model_;
  MethodSpec spec_;
  WindowCache window_;
  const SyntheticContext* context_ = nullptr;
  SimEnvironment* env_ = nullptr;
  std::vector<std::unique_ptr<RoarGraph>> fine_;      ///< [layer][kv_head] flattened.
  std::vector<std::unique_ptr<CoarseIndex>> coarse_;  ///< [layer][kv_head] flattened.
  IndexBuildStats build_stats_;
};

}  // namespace alaya
