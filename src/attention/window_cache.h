// Window caching (§7.1): the initial and most recent tokens stay in (simulated)
// GPU memory. These tokens (i) always participate in attention — they carry
// outsized attention mass (attention sinks + locality) — and (ii) seed the
// DIPRS pruning threshold, since the max-inner-product key falls inside the
// window ~98% of the time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/vector_codec.h"
#include "src/device/memory_tracker.h"
#include "src/index/vector_set.h"

namespace alaya {

struct WindowConfig {
  uint32_t initial_tokens = 128;
  uint32_t recent_tokens = 512;
};

/// Stateless helper describing which token ids of a length-n context are
/// window-resident, plus the DIPRS prior computation.
class WindowCache {
 public:
  explicit WindowCache(const WindowConfig& config) : config_(config) {}

  const WindowConfig& config() const { return config_; }

  /// Is token id inside the window of a length-n context?
  bool Contains(uint32_t id, size_t n) const {
    if (id < config_.initial_tokens) return true;
    const uint32_t recent_begin =
        n > config_.recent_tokens ? static_cast<uint32_t>(n - config_.recent_tokens) : 0;
    return id >= recent_begin && id < n;
  }

  /// Number of window tokens for a length-n context.
  size_t Size(size_t n) const {
    return std::min<size_t>(n, config_.initial_tokens) +
           (n > config_.initial_tokens
                ? std::min<size_t>(n - config_.initial_tokens, config_.recent_tokens)
                : 0);
  }

  /// Appends the window token ids of a length-n context to `out`.
  void CollectIds(size_t n, std::vector<uint32_t>* out) const {
    const uint32_t init_end =
        static_cast<uint32_t>(std::min<size_t>(n, config_.initial_tokens));
    for (uint32_t i = 0; i < init_end; ++i) out->push_back(i);
    const uint32_t recent_begin = static_cast<uint32_t>(
        n > config_.recent_tokens ? n - config_.recent_tokens : 0);
    for (uint32_t i = std::max(recent_begin, init_end); i < n; ++i) out->push_back(i);
  }

  /// Max inner product of q against the window keys — the window-enhanced
  /// DIPRS prior (§7.1). Returns -inf on an empty window.
  float MaxWindowInnerProduct(const float* q, VectorSetView keys, size_t n) const {
    const KernelOps& ops = Kernels();
    float best = -1e30f;
    const uint32_t init_end =
        static_cast<uint32_t>(std::min<size_t>(n, config_.initial_tokens));
    for (uint32_t i = 0; i < init_end; ++i) {
      best = std::max(best, ops.dot(q, keys.Vec(i), keys.d));
    }
    const uint32_t recent_begin = static_cast<uint32_t>(
        n > config_.recent_tokens ? n - config_.recent_tokens : 0);
    for (uint32_t i = std::max(recent_begin, init_end); i < n; ++i) {
      best = std::max(best, ops.dot(q, keys.Vec(i), keys.d));
    }
    return best;
  }

  /// GPU bytes this window occupies for one layer's KV heads.
  uint64_t GpuBytes(size_t n, uint32_t num_kv_heads, uint32_t head_dim,
                    uint32_t bytes_per_scalar = 2) const {
    return static_cast<uint64_t>(Size(n)) * num_kv_heads * head_dim * 2 *
           bytes_per_scalar;
  }

 private:
  WindowConfig config_;
};

}  // namespace alaya
