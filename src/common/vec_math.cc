#include "src/common/vec_math.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/common/vector_codec.h"

namespace alaya {

float Norm(const float* a, size_t d) { return std::sqrt(Kernels().dot(a, a, d)); }

void NormalizeInPlace(float* a, size_t d) {
  const float n = Norm(a, d);
  if (n > 0.f) Kernels().scale(a, d, 1.0f / n);
}

float CosineSim(const float* a, const float* b, size_t d) {
  const float na = Norm(a, d);
  const float nb = Norm(b, d);
  if (na == 0.f || nb == 0.f) return 0.f;
  return Kernels().dot(a, b, d) / (na * nb);
}

void SoftmaxInPlace(float* scores, size_t n) {
  if (n == 0) return;
  const float m = scores[ArgMax(scores, n)];
  float sum = ExpShiftInPlace(scores, n, m);
  if (sum <= 0.f) sum = 1.f;
  const float inv = 1.0f / sum;
  for (size_t i = 0; i < n; ++i) scores[i] *= inv;
}

float ExpShiftInPlace(float* scores, size_t n, float max_value) {
  float sum = 0.f;
  for (size_t i = 0; i < n; ++i) {
    scores[i] = std::exp(scores[i] - max_value);
    sum += scores[i];
  }
  return sum;
}

size_t ArgMax(const float* a, size_t n) {
  assert(n > 0);
  size_t best = 0;
  for (size_t i = 1; i < n; ++i) {
    if (a[i] > a[best]) best = i;
  }
  return best;
}

float RelativeError(const float* a, const float* b, size_t d, float eps) {
  float num = 0.f, den = 0.f;
  for (size_t i = 0; i < d; ++i) {
    const float t = a[i] - b[i];
    num += t * t;
    den += b[i] * b[i];
  }
  return std::sqrt(num) / std::max(std::sqrt(den), eps);
}

void SortByScoreDesc(std::vector<ScoredId>* v) {
  std::sort(v->begin(), v->end(), [](const ScoredId& a, const ScoredId& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  });
}

}  // namespace alaya
