// Dense float vector helpers used throughout attention computation and
// vector search. The BLAS-1 primitives themselves (dot, l2sq, axpy, scale,
// matvec) live in the runtime-dispatched kernel table: call them through
// `Kernels()` (src/common/vector_codec.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace alaya {

/// Euclidean norm ||a||.
float Norm(const float* a, size_t d);

/// Normalizes a to unit length in place (no-op on the zero vector).
void NormalizeInPlace(float* a, size_t d);

/// Cosine similarity; 0 when either vector is zero.
float CosineSim(const float* a, const float* b, size_t d);

/// In-place numerically-stable softmax over n scores.
void SoftmaxInPlace(float* scores, size_t n);

/// Stable softmax given precomputed max; returns sum of exp(scores[i] - max).
/// scores are transformed to exp(scores[i] - max) in place.
float ExpShiftInPlace(float* scores, size_t n, float max_value);

/// Index of the maximum element (first on ties); n must be > 0.
size_t ArgMax(const float* a, size_t n);

/// Relative L2 error ||a - b|| / max(||b||, eps).
float RelativeError(const float* a, const float* b, size_t d, float eps = 1e-12f);

/// A trivially-copyable (id, score) pair used in search results everywhere.
struct ScoredId {
  uint32_t id;
  float score;
};

/// Sorts (in place) by descending score, tie-break ascending id.
void SortByScoreDesc(std::vector<ScoredId>* v);

}  // namespace alaya
