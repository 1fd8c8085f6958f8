#include "src/index/knn_graph.h"

#include "src/common/bounded_heap.h"
#include "src/common/vector_codec.h"

namespace alaya {

std::vector<std::vector<ScoredId>> ExactBipartiteKnn(VectorSetView keys,
                                                     VectorSetView queries,
                                                     const BipartiteKnnOptions& options) {
  std::vector<std::vector<ScoredId>> out(queries.n);
  if (keys.n == 0 || queries.n == 0) return out;

  auto compute_one = [&](size_t qi) {
    TopKMaxHeap heap(options.k);
    const float* q = queries.Vec(static_cast<uint32_t>(qi));
    for (uint32_t i = 0; i < keys.n; ++i) {
      heap.Push(i, Kernels().dot(q, keys.Vec(i), keys.d));
    }
    out[qi] = heap.TakeSortedDesc();
  };

  if (options.sequential) {
    for (size_t qi = 0; qi < queries.n; ++qi) compute_one(qi);
  } else {
    ThreadPool* pool = options.pool != nullptr ? options.pool : &ThreadPool::Global();
    pool->ParallelFor(0, queries.n, compute_one);
  }
  return out;
}

}  // namespace alaya
