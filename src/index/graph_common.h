// Fixed-max-degree adjacency storage: the fine index's (RoarGraph) graph,
// walked by beam search (graph_search.h) and DIPRS (src/query/diprs.h).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace alaya {

/// Flat adjacency with a uniform degree cap R. Node ids are dense [0, n).
/// Thread-safety: concurrent reads are safe; writers must synchronize.
class AdjacencyGraph {
 public:
  AdjacencyGraph() = default;
  AdjacencyGraph(uint32_t n, uint32_t max_degree) { Reset(n, max_degree); }

  void Reset(uint32_t n, uint32_t max_degree) {
    n_ = n;
    r_ = max_degree;
    degrees_.assign(n, 0);
    adj_.assign(static_cast<size_t>(n) * r_, 0);
  }

  std::span<const uint32_t> Neighbors(uint32_t u) const {
    assert(u < n_);
    return {adj_.data() + static_cast<size_t>(u) * r_, degrees_[u]};
  }

  /// Adds edge u->v if capacity remains and it is not a duplicate/self-loop.
  bool AddEdge(uint32_t u, uint32_t v) {
    assert(u < n_ && v < n_);
    if (u == v) return false;
    uint32_t& deg = degrees_[u];
    if (deg >= r_) return false;
    uint32_t* nbrs = adj_.data() + static_cast<size_t>(u) * r_;
    for (uint32_t i = 0; i < deg; ++i) {
      if (nbrs[i] == v) return false;
    }
    nbrs[deg++] = v;
    return true;
  }

  /// Replaces u's neighbor list (truncated at R).
  void SetNeighbors(uint32_t u, const std::vector<uint32_t>& list) {
    assert(u < n_);
    uint32_t deg = static_cast<uint32_t>(list.size() > r_ ? r_ : list.size());
    uint32_t* nbrs = adj_.data() + static_cast<size_t>(u) * r_;
    for (uint32_t i = 0; i < deg; ++i) nbrs[i] = list[i];
    degrees_[u] = deg;
  }

  uint32_t degree(uint32_t u) const { return degrees_[u]; }
  uint32_t max_degree() const { return r_; }
  uint32_t size() const { return n_; }

  uint64_t MemoryBytes() const {
    return adj_.capacity() * sizeof(uint32_t) + degrees_.capacity() * sizeof(uint32_t);
  }

  /// Number of directed edges.
  uint64_t EdgeCount() const {
    uint64_t e = 0;
    for (uint32_t d : degrees_) e += d;
    return e;
  }

 private:
  uint32_t n_ = 0;
  uint32_t r_ = 0;
  std::vector<uint32_t> degrees_;
  std::vector<uint32_t> adj_;
};

}  // namespace alaya
