// Coarse-grained block index (InfLLM / Quest / PQCache family, Table 4).
//
// Adjacent tokens are grouped into fixed-size blocks; each block is summarized
// by representative vectors. Retrieval scores blocks against the query and
// returns every token in the selected blocks. Blocks are cached in (simulated)
// GPU memory, so this index class trades memory for latency.
#pragma once

#include <memory>

#include "src/common/status.h"
#include "src/device/memory_tracker.h"
#include "src/index/index.h"

namespace alaya {

/// How a block is summarized.
enum class BlockRepKind : int {
  kMean = 0,    ///< Mean key vector (InfLLM-style single representative).
  kMinMax = 1,  ///< Per-dimension min/max planes; scores are upper bounds (Quest).
  kSalient = 2, ///< r highest-norm keys as representatives (InfLLM multi-rep).
};

struct CoarseIndexOptions {
  uint32_t block_size = 128;
  BlockRepKind rep_kind = BlockRepKind::kMean;
  /// Representatives per block for kSalient.
  uint32_t reps_per_block = 4;
  /// When set, block KV bytes are accounted as GPU-resident.
  MemoryTracker* gpu_memory = nullptr;
  /// Bytes per cached token (K + V in the deployed precision, bf16 = 4 bytes).
  uint32_t bytes_per_token_kv = 0;
};

/// Answers top-k only: DIPR needs per-key decisions, which block granularity
/// cannot provide (Table 4: coarse supports Top-k and Filter only), so there
/// is no SearchDipr.
class CoarseIndex {
 public:
  /// Builds block summaries over the given keys. The view must outlive the
  /// index (the KV cache owns the vectors).
  CoarseIndex(VectorSetView keys, const CoarseIndexOptions& options);
  ~CoarseIndex();

  size_t size() const { return keys_.n; }
  uint64_t MemoryBytes() const;

  /// Top-k semantics: selects ceil(k / block_size) best blocks among those
  /// whose first token passes `filter` and returns all of their passing
  /// tokens (so |hits| is k rounded up to block granularity).
  Status SearchTopK(const float* q, const TopKParams& params, SearchResult* out,
                    const IdFilter& filter = {}) const;

  size_t num_blocks() const { return num_blocks_; }
  uint32_t block_size() const { return options_.block_size; }

  /// Upper-bound (or representative) relevance score of block b for query q.
  float BlockScore(const float* q, size_t b) const;

 private:
  void Build();

  VectorSetView keys_;
  CoarseIndexOptions options_;
  size_t num_blocks_ = 0;
  /// kMean: [num_blocks, d]; kMinMax: [num_blocks, 2d] (min then max);
  /// kSalient: [num_blocks, reps_per_block * d].
  std::vector<float> reps_;
  MemoryReservation gpu_reservation_;
};

}  // namespace alaya
