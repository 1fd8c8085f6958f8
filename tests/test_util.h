// Shared fixtures for index/query tests: planted MIPS data where the
// ground-truth critical set is known by construction.
#pragma once

#include <vector>

#include "src/common/rng.h"
#include "src/common/vec_math.h"
#include "src/common/vector_codec.h"
#include "src/index/vector_set.h"

namespace alaya {
namespace testutil {

/// A key set with a planted "critical cone": `critical` ids have inner product
/// with `query` in [ip_min, ip_max]; background keys score well below.
struct PlantedMips {
  VectorSet keys;
  std::vector<float> query;
  std::vector<uint32_t> critical;
  float ip_min = 0, ip_max = 0;

  PlantedMips(size_t n, size_t d, size_t n_critical, uint64_t seed, float q_norm = 40.f,
              float band = 0.25f)
      : keys(d), query(d) {
    Rng rng(seed);
    // Query direction.
    std::vector<float> dir(d);
    rng.FillGaussian(dir.data(), d);
    NormalizeInPlace(dir.data(), d);
    for (size_t i = 0; i < d; ++i) query[i] = dir[i] * q_norm;

    // Critical ids: spread across the range.
    std::vector<size_t> picks = rng.SampleWithoutReplacement(n, n_critical);
    critical.assign(picks.begin(), picks.end());
    std::sort(critical.begin(), critical.end());

    std::vector<bool> is_critical(n, false);
    for (uint32_t id : critical) is_critical[id] = true;

    ip_max = q_norm;
    ip_min = q_norm * (1.f - band);
    std::vector<float> v(d);
    for (size_t i = 0; i < n; ++i) {
      if (is_critical[i]) {
        // cos in [1-band, 1].
        const float cos_t = (1.f - band) + band * rng.UniformFloat();
        std::vector<float> noise(d);
        rng.FillGaussian(noise.data(), d);
        const float proj = Kernels().dot(noise.data(), dir.data(), d);
        Kernels().axpy(noise.data(), dir.data(), d, -proj);
        NormalizeInPlace(noise.data(), d);
        const float sin_t = std::sqrt(std::max(0.f, 1.f - cos_t * cos_t));
        for (size_t j = 0; j < d; ++j) v[j] = cos_t * dir[j] + sin_t * noise[j];
      } else {
        rng.FillGaussian(v.data(), d);
        NormalizeInPlace(v.data(), d);
        // Background: ip ~ N(0, 0.4*q_norm/sqrt(d)).
        Kernels().scale(v.data(), d, 0.4f);
      }
      keys.Append(v.data());
    }
  }

  /// Fraction of the critical set present in `hits`.
  double Recall(const std::vector<ScoredId>& hits) const {
    std::vector<bool> found(keys.size(), false);
    for (const auto& h : hits) found[h.id] = true;
    size_t hit = 0;
    for (uint32_t id : critical) {
      if (found[id]) ++hit;
    }
    return critical.empty() ? 1.0
                            : static_cast<double>(hit) /
                                  static_cast<double>(critical.size());
  }
};

/// Exact top-k by inner product.
inline std::vector<ScoredId> BruteTopK(VectorSetView view, const float* q, size_t k) {
  std::vector<ScoredId> all;
  for (uint32_t i = 0; i < view.n; ++i) {
    all.push_back({i, Kernels().dot(q, view.Vec(i), view.d)});
  }
  SortByScoreDesc(&all);
  if (all.size() > k) all.resize(k);
  return all;
}

/// Training queries around the planted direction (for RoarGraph builds).
inline VectorSet MakeTrainingQueries(const PlantedMips& data, size_t count,
                                     uint64_t seed, float jitter = 0.3f) {
  const size_t d = data.keys.dim();
  VectorSet out(d);
  Rng rng(seed);
  std::vector<float> q(d);
  for (size_t i = 0; i < count; ++i) {
    for (size_t j = 0; j < d; ++j) {
      q[j] = data.query[j] + jitter * Norm(data.query.data(), d) /
                                 std::sqrt(static_cast<float>(d)) *
                                 rng.GaussianFloat();
    }
    out.Append(q.data());
  }
  return out;
}

}  // namespace testutil
}  // namespace alaya
