// Bounded top-k heaps over (id, score) pairs.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

#include "src/common/vec_math.h"

namespace alaya {

/// Keeps the k largest-scoring entries seen so far (min-heap of size <= k).
class TopKMaxHeap {
 public:
  explicit TopKMaxHeap(size_t k) : k_(k) { heap_.reserve(k + 1); }

  /// Offers an entry; returns true if it was retained.
  bool Push(uint32_t id, float score) {
    if (k_ == 0) return false;
    if (heap_.size() < k_) {
      heap_.push_back({id, score});
      std::push_heap(heap_.begin(), heap_.end(), MinCmp);
      return true;
    }
    if (score <= heap_.front().score) return false;
    std::pop_heap(heap_.begin(), heap_.end(), MinCmp);
    heap_.back() = {id, score};
    std::push_heap(heap_.begin(), heap_.end(), MinCmp);
    return true;
  }

  /// Smallest retained score; only valid when full().
  float MinRetained() const {
    assert(!heap_.empty());
    return heap_.front().score;
  }

  bool full() const { return heap_.size() >= k_; }
  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  /// Would an entry with this score be admitted?
  bool WouldAccept(float score) const {
    return k_ > 0 && (!full() || score > heap_.front().score);
  }

  /// Extracts contents sorted by descending score (heap is consumed).
  std::vector<ScoredId> TakeSortedDesc() {
    std::vector<ScoredId> out = std::move(heap_);
    SortByScoreDesc(&out);
    return out;
  }

  const std::vector<ScoredId>& raw() const { return heap_; }

 private:
  static bool MinCmp(const ScoredId& a, const ScoredId& b) { return a.score > b.score; }

  size_t k_;
  std::vector<ScoredId> heap_;
};

}  // namespace alaya
