#include "src/index/coarse_index.h"

#include <algorithm>
#include <cstring>

#include "src/common/bounded_heap.h"
#include "src/common/vector_codec.h"

namespace alaya {

CoarseIndex::CoarseIndex(VectorSetView keys, const CoarseIndexOptions& options)
    : keys_(keys), options_(options) {
  Build();
  if (options_.gpu_memory != nullptr) {
    // The deployed system keeps representatives and the block KV data on GPU.
    uint64_t bytes = MemoryBytes();
    if (options_.bytes_per_token_kv > 0) {
      bytes += static_cast<uint64_t>(keys_.n) * options_.bytes_per_token_kv;
    }
    gpu_reservation_ = MemoryReservation(options_.gpu_memory, bytes);
  }
}

CoarseIndex::~CoarseIndex() = default;

void CoarseIndex::Build() {
  const size_t b = options_.block_size;
  num_blocks_ = (keys_.n + b - 1) / b;
  const size_t d = keys_.d;
  switch (options_.rep_kind) {
    case BlockRepKind::kMean: {
      reps_.assign(num_blocks_ * d, 0.f);
      for (size_t blk = 0; blk < num_blocks_; ++blk) {
        float* rep = reps_.data() + blk * d;
        const size_t lo = blk * b;
        const size_t hi = std::min(keys_.n, lo + b);
        for (size_t i = lo; i < hi; ++i) {
          Kernels().axpy(rep, keys_.Vec(static_cast<uint32_t>(i)), d, 1.0f);
        }
        if (hi > lo) Kernels().scale(rep, d, 1.0f / static_cast<float>(hi - lo));
      }
      break;
    }
    case BlockRepKind::kMinMax: {
      reps_.assign(num_blocks_ * 2 * d, 0.f);
      for (size_t blk = 0; blk < num_blocks_; ++blk) {
        float* mn = reps_.data() + blk * 2 * d;
        float* mx = mn + d;
        const size_t lo = blk * b;
        const size_t hi = std::min(keys_.n, lo + b);
        std::memcpy(mn, keys_.Vec(static_cast<uint32_t>(lo)), d * sizeof(float));
        std::memcpy(mx, keys_.Vec(static_cast<uint32_t>(lo)), d * sizeof(float));
        for (size_t i = lo + 1; i < hi; ++i) {
          const float* v = keys_.Vec(static_cast<uint32_t>(i));
          for (size_t j = 0; j < d; ++j) {
            mn[j] = std::min(mn[j], v[j]);
            mx[j] = std::max(mx[j], v[j]);
          }
        }
      }
      break;
    }
    case BlockRepKind::kSalient: {
      const size_t r = options_.reps_per_block;
      reps_.assign(num_blocks_ * r * d, 0.f);
      for (size_t blk = 0; blk < num_blocks_; ++blk) {
        const size_t lo = blk * b;
        const size_t hi = std::min(keys_.n, lo + b);
        // Pick the r largest-norm keys in the block as representatives.
        TopKMaxHeap heap(r);
        for (size_t i = lo; i < hi; ++i) {
          const float* v = keys_.Vec(static_cast<uint32_t>(i));
          heap.Push(static_cast<uint32_t>(i), Kernels().dot(v, v, d));
        }
        auto picks = heap.TakeSortedDesc();
        for (size_t j = 0; j < picks.size(); ++j) {
          std::memcpy(reps_.data() + (blk * r + j) * d, keys_.Vec(picks[j].id),
                      d * sizeof(float));
        }
        // Duplicate the last pick into unused slots for short blocks.
        for (size_t j = picks.size(); j < r && !picks.empty(); ++j) {
          std::memcpy(reps_.data() + (blk * r + j) * d,
                      keys_.Vec(picks.back().id), d * sizeof(float));
        }
      }
      break;
    }
  }
}

uint64_t CoarseIndex::MemoryBytes() const { return reps_.capacity() * sizeof(float); }

float CoarseIndex::BlockScore(const float* q, size_t blk) const {
  const size_t d = keys_.d;
  switch (options_.rep_kind) {
    case BlockRepKind::kMean:
      return Kernels().dot(q, reps_.data() + blk * d, d);
    case BlockRepKind::kMinMax: {
      // Quest upper bound: max over the box corners, separable per dimension.
      const float* mn = reps_.data() + blk * 2 * d;
      const float* mx = mn + d;
      float s = 0.f;
      for (size_t j = 0; j < d; ++j) {
        s += std::max(q[j] * mn[j], q[j] * mx[j]);
      }
      return s;
    }
    case BlockRepKind::kSalient: {
      const size_t r = options_.reps_per_block;
      float best = -1e30f;
      for (size_t j = 0; j < r; ++j) {
        best = std::max(best, Kernels().dot(q, reps_.data() + (blk * r + j) * d, d));
      }
      return best;
    }
  }
  return 0.f;
}

Status CoarseIndex::SearchTopK(const float* q, const TopKParams& params,
                               SearchResult* out, const IdFilter& filter) const {
  if (q == nullptr || out == nullptr) {
    return Status::InvalidArgument("null query/output");
  }
  out->Clear();
  if (keys_.n == 0) return Status::Ok();
  const size_t b = options_.block_size;
  const size_t want_blocks =
      std::min(num_blocks_, (params.k + b - 1) / b);

  TopKMaxHeap block_heap(want_blocks);
  for (size_t blk = 0; blk < num_blocks_; ++blk) {
    const uint32_t first_id = static_cast<uint32_t>(blk * b);
    if (filter.enabled() && !filter.Pass(first_id)) continue;
    block_heap.Push(static_cast<uint32_t>(blk), BlockScore(q, blk));
    out->stats.dist_comps++;
  }

  auto blocks = block_heap.TakeSortedDesc();
  for (const auto& blk_hit : blocks) {
    const size_t lo = static_cast<size_t>(blk_hit.id) * b;
    const size_t hi = std::min(keys_.n, lo + b);
    for (size_t i = lo; i < hi; ++i) {
      if (filter.enabled() && !filter.Pass(static_cast<uint32_t>(i))) continue;
      // Tokens inherit their block's score; exact per-token scores are
      // computed later by the attention engine anyway.
      out->hits.push_back({static_cast<uint32_t>(i), blk_hit.score});
    }
  }
  return Status::Ok();
}

}  // namespace alaya
