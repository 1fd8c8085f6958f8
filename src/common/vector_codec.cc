#include "src/common/vector_codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define ALAYA_X86 1
#elif defined(__ARM_NEON) || defined(__aarch64__)
#include <arm_neon.h>
#define ALAYA_NEON 1
#endif

namespace alaya {

const char* VectorCodecName(VectorCodec c) {
  switch (c) {
    case VectorCodec::kFp32:
      return "fp32";
    case VectorCodec::kFp16:
      return "fp16";
    case VectorCodec::kInt8:
      return "int8";
  }
  return "unknown";
}

size_t CodecBytesPerScalar(VectorCodec c) {
  switch (c) {
    case VectorCodec::kFp16:
      return 2;
    case VectorCodec::kInt8:
      return 1;
    case VectorCodec::kFp32:
    default:
      return 4;
  }
}

// --- IEEE binary16 conversions (scalar, round-to-nearest-even) -------------

uint16_t Fp16FromFloat(float x) {
  uint32_t f;
  std::memcpy(&f, &x, sizeof(f));
  const uint32_t sign = (f >> 16) & 0x8000u;
  f &= 0x7FFFFFFFu;
  if (f > 0x7F800000u) return static_cast<uint16_t>(sign | 0x7E00u);  // NaN.
  if (f >= 0x38800000u) {
    // Normal half range (or overflow): drop 13 mantissa bits with RNE.
    const uint32_t rounded = f + 0xFFFu + ((f >> 13) & 1u);
    if (rounded >= 0x47800000u) return static_cast<uint16_t>(sign | 0x7C00u);
    return static_cast<uint16_t>(sign | ((rounded - 0x38000000u) >> 13));
  }
  if (f < 0x33000000u) return static_cast<uint16_t>(sign);  // Below 2^-25 -> 0.
  // Subnormal half: mantissa becomes value / 2^-24, rounded to nearest even.
  const uint32_t shift = 126u - (f >> 23);  // In [14, 24].
  const uint32_t m = (f & 0x7FFFFFu) | 0x800000u;
  const uint32_t bias = ((1u << shift) >> 1) - 1u + ((m >> shift) & 1u);
  return static_cast<uint16_t>(sign | ((m + bias) >> shift));
}

float Fp16ToFloat(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  uint32_t exp = (h >> 10) & 0x1Fu;
  uint32_t mant = h & 0x3FFu;
  uint32_t f;
  if (exp == 0) {
    if (mant == 0) {
      f = sign;
    } else {
      int e = -1;
      do {
        mant <<= 1;
        ++e;
      } while (!(mant & 0x400u));
      f = sign | ((112u - static_cast<uint32_t>(e)) << 23) | ((mant & 0x3FFu) << 13);
    }
  } else if (exp == 0x1Fu) {
    f = sign | 0x7F800000u | (mant << 13);
  } else {
    f = sign | ((exp + 112u) << 23) | (mant << 13);
  }
  float out;
  std::memcpy(&out, &f, sizeof(out));
  return out;
}

// --- Scalar reference kernels ----------------------------------------------
// The fp32 loops are the historical vec_math.cc implementations, moved here
// verbatim: the scalar dispatch level is bit-exact with what every caller
// computed before the kernel table existed.

namespace {

float DotScalar(const float* a, const float* b, size_t d) {
  float s0 = 0.f, s1 = 0.f, s2 = 0.f, s3 = 0.f;
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  float s = s0 + s1 + s2 + s3;
  for (; i < d; ++i) s += a[i] * b[i];
  return s;
}

float L2SqScalar(const float* a, const float* b, size_t d) {
  float s = 0.f;
  for (size_t i = 0; i < d; ++i) {
    const float t = a[i] - b[i];
    s += t * t;
  }
  return s;
}

void AxpyScalar(float* y, const float* x, size_t d, float alpha) {
  for (size_t i = 0; i < d; ++i) y[i] += alpha * x[i];
}

void ScaleScalar(float* a, size_t d, float s) {
  for (size_t i = 0; i < d; ++i) a[i] *= s;
}

void MatVecScalar(const float* m, size_t rows, size_t d, const float* v,
                  float* out) {
  for (size_t i = 0; i < rows; ++i) out[i] = DotScalar(m + i * d, v, d);
}

float DotF16Scalar(const float* q, const uint16_t* c, size_t d) {
  float s0 = 0.f, s1 = 0.f, s2 = 0.f, s3 = 0.f;
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    s0 += q[i] * Fp16ToFloat(c[i]);
    s1 += q[i + 1] * Fp16ToFloat(c[i + 1]);
    s2 += q[i + 2] * Fp16ToFloat(c[i + 2]);
    s3 += q[i + 3] * Fp16ToFloat(c[i + 3]);
  }
  float s = s0 + s1 + s2 + s3;
  for (; i < d; ++i) s += q[i] * Fp16ToFloat(c[i]);
  return s;
}

float DotI8Scalar(const float* q, const int8_t* c, size_t d) {
  float s0 = 0.f, s1 = 0.f, s2 = 0.f, s3 = 0.f;
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    s0 += q[i] * static_cast<float>(c[i]);
    s1 += q[i + 1] * static_cast<float>(c[i + 1]);
    s2 += q[i + 2] * static_cast<float>(c[i + 2]);
    s3 += q[i + 3] * static_cast<float>(c[i + 3]);
  }
  float s = s0 + s1 + s2 + s3;
  for (; i < d; ++i) s += q[i] * static_cast<float>(c[i]);
  return s;
}

void MatVecI8I16Scalar(const int8_t* codes, size_t rows, size_t d,
                       const int16_t* qs, size_t nq, int32_t* out) {
  for (size_t j = 0; j < nq; ++j) {
    const int16_t* q = qs + j * d;
    for (size_t i = 0; i < rows; ++i) {
      const int8_t* c = codes + i * d;
      int32_t s = 0;
      for (size_t k = 0; k < d; ++k) s += int32_t{q[k]} * int32_t{c[k]};
      out[j * rows + i] = s;
    }
  }
}

constexpr KernelOps kScalarOps = {
    DotScalar,    L2SqScalar,   AxpyScalar,  ScaleScalar,       MatVecScalar,
    DotF16Scalar, DotI8Scalar,  MatVecI8I16Scalar, "scalar",
};

// --- AVX2 / FMA / F16C kernels ---------------------------------------------

#if defined(ALAYA_X86)

__attribute__((target("avx"))) inline float HSum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

__attribute__((target("avx2,fma"))) float DotAvx2(const float* a, const float* b,
                                                  size_t d) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= d; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8),
                           acc1);
  }
  for (; i + 8 <= d; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
  }
  float s = HSum256(_mm256_add_ps(acc0, acc1));
  for (; i < d; ++i) s += a[i] * b[i];
  return s;
}

__attribute__((target("avx2,fma"))) float L2SqAvx2(const float* a, const float* b,
                                                   size_t d) {
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m256 t = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_fmadd_ps(t, t, acc);
  }
  float s = HSum256(acc);
  for (; i < d; ++i) {
    const float t = a[i] - b[i];
    s += t * t;
  }
  return s;
}

__attribute__((target("avx2,fma"))) void AxpyAvx2(float* y, const float* x,
                                                  size_t d, float alpha) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    _mm256_storeu_ps(y + i,
                     _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < d; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2"))) void ScaleAvx2(float* a, size_t d, float s) {
  const __m256 vs = _mm256_set1_ps(s);
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    _mm256_storeu_ps(a + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (; i < d; ++i) a[i] *= s;
}

__attribute__((target("avx2,fma"))) void MatVecAvx2(const float* m, size_t rows,
                                                    size_t d, const float* v,
                                                    float* out) {
  for (size_t i = 0; i < rows; ++i) out[i] = DotAvx2(m + i * d, v, d);
}

__attribute__((target("avx2,fma,f16c"))) float DotF16Avx2(const float* q,
                                                          const uint16_t* c,
                                                          size_t d) {
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m256 cf = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(c + i)));
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(q + i), cf, acc);
  }
  float s = HSum256(acc);
  for (; i < d; ++i) s += q[i] * Fp16ToFloat(c[i]);
  return s;
}

__attribute__((target("avx2,fma"))) float DotI8Avx2(const float* q, const int8_t* c,
                                                    size_t d) {
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(c + i));
    const __m256 cf = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(q + i), cf, acc);
  }
  float s = HSum256(acc);
  for (; i < d; ++i) s += q[i] * static_cast<float>(c[i]);
  return s;
}

#define ALAYA_AVX2_INLINE __attribute__((target("avx2"), always_inline)) inline

ALAYA_AVX2_INLINE int32_t HSumEpi32(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

/// {Σ lanes of a0, of a1, of a2, of a3}.
ALAYA_AVX2_INLINE __m128i HSum4Epi32(__m256i a0, __m256i a1, __m256i a2, __m256i a3) {
  const __m256i h =
      _mm256_hadd_epi32(_mm256_hadd_epi32(a0, a1), _mm256_hadd_epi32(a2, a3));
  return _mm_add_epi32(_mm256_castsi256_si128(h), _mm256_extracti128_si256(h, 1));
}

/// 16 int8 codes widened to int16.
ALAYA_AVX2_INLINE __m256i WidenI8(const int8_t* c) {
  return _mm256_cvtepi8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(c)));
}

/// acc + pairwise int32 sums of c * q over 16 int16 elements (exact).
ALAYA_AVX2_INLINE __m256i MaddI16(__m256i acc, __m256i c, const int16_t* q) {
  return _mm256_add_epi32(
      acc, _mm256_madd_epi16(c, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q))));
}

/// Σ q[t] * c[t] over t in [from, d): the tail past the last 16-wide chunk.
inline int32_t DotI8I16Tail(const int8_t* c, const int16_t* q, size_t from, size_t d) {
  int32_t s = 0;
  for (size_t t = from; t < d; ++t) s += int32_t{q[t]} * int32_t{c[t]};
  return s;
}

/// One query q0 (kPair false) or a pair q0, q1 against every row. Four rows
/// go at once, each 16-code chunk widened once and multiplied into both
/// queries, with one horizontal reduction per four rows; every accumulator
/// is a named register, so nothing spills.
template <bool kPair>
__attribute__((target("avx2"))) void MatVecI8I16Avx2Block(const int8_t* codes, size_t rows,
                                                          size_t d, const int16_t* q0,
                                                          int32_t* out0, const int16_t* q1,
                                                          int32_t* out1) {
  const size_t d16 = d & ~size_t{15};
  size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    const int8_t* c = codes + i * d;
    __m256i a0 = _mm256_setzero_si256(), a1 = a0, a2 = a0, a3 = a0;
    __m256i b0 = a0, b1 = a0, b2 = a0, b3 = a0;
    for (size_t k = 0; k < d16; k += 16) {
      const __m256i c0 = WidenI8(c + k), c1 = WidenI8(c + d + k);
      const __m256i c2 = WidenI8(c + 2 * d + k), c3 = WidenI8(c + 3 * d + k);
      a0 = MaddI16(a0, c0, q0 + k);
      a1 = MaddI16(a1, c1, q0 + k);
      a2 = MaddI16(a2, c2, q0 + k);
      a3 = MaddI16(a3, c3, q0 + k);
      if constexpr (kPair) {
        b0 = MaddI16(b0, c0, q1 + k);
        b1 = MaddI16(b1, c1, q1 + k);
        b2 = MaddI16(b2, c2, q1 + k);
        b3 = MaddI16(b3, c3, q1 + k);
      }
    }
    __m128i sa = HSum4Epi32(a0, a1, a2, a3);
    if (d16 < d) {
      sa = _mm_add_epi32(sa, _mm_setr_epi32(DotI8I16Tail(c, q0, d16, d),
                                            DotI8I16Tail(c + d, q0, d16, d),
                                            DotI8I16Tail(c + 2 * d, q0, d16, d),
                                            DotI8I16Tail(c + 3 * d, q0, d16, d)));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out0 + i), sa);
    if constexpr (kPair) {
      __m128i sb = HSum4Epi32(b0, b1, b2, b3);
      if (d16 < d) {
        sb = _mm_add_epi32(sb, _mm_setr_epi32(DotI8I16Tail(c, q1, d16, d),
                                              DotI8I16Tail(c + d, q1, d16, d),
                                              DotI8I16Tail(c + 2 * d, q1, d16, d),
                                              DotI8I16Tail(c + 3 * d, q1, d16, d)));
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out1 + i), sb);
    }
  }
  for (; i < rows; ++i) {
    const int8_t* c = codes + i * d;
    __m256i a = _mm256_setzero_si256(), b = a;
    for (size_t k = 0; k < d16; k += 16) {
      const __m256i cw = WidenI8(c + k);
      a = MaddI16(a, cw, q0 + k);
      if constexpr (kPair) b = MaddI16(b, cw, q1 + k);
    }
    out0[i] = HSumEpi32(a) + DotI8I16Tail(c, q0, d16, d);
    if constexpr (kPair) out1[i] = HSumEpi32(b) + DotI8I16Tail(c, q1, d16, d);
  }
}

__attribute__((target("avx2"))) void MatVecI8I16Avx2(const int8_t* codes,
                                                     size_t rows, size_t d,
                                                     const int16_t* qs, size_t nq,
                                                     int32_t* out) {
  size_t j = 0;
  for (; j + 2 <= nq; j += 2) {
    MatVecI8I16Avx2Block<true>(codes, rows, d, qs + j * d, out + j * rows,
                               qs + (j + 1) * d, out + (j + 1) * rows);
  }
  if (j < nq) {
    MatVecI8I16Avx2Block<false>(codes, rows, d, qs + j * d, out + j * rows, nullptr,
                                nullptr);
  }
}

constexpr KernelOps kAvx2Ops = {
    DotAvx2,    L2SqAvx2,  AxpyAvx2,        ScaleAvx2, MatVecAvx2,
    DotF16Avx2, DotI8Avx2, MatVecI8I16Avx2, "avx2",
};

#endif  // ALAYA_X86

// --- NEON kernels (arm64 baseline: no runtime probe needed) ----------------

#if defined(ALAYA_NEON)

inline float HSum128(float32x4_t v) { return vaddvq_f32(v); }

float DotNeon(const float* a, const float* b, size_t d) {
  float32x4_t acc0 = vdupq_n_f32(0.f);
  float32x4_t acc1 = vdupq_n_f32(0.f);
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
  }
  for (; i + 4 <= d; i += 4) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
  }
  float s = HSum128(vaddq_f32(acc0, acc1));
  for (; i < d; ++i) s += a[i] * b[i];
  return s;
}

float L2SqNeon(const float* a, const float* b, size_t d) {
  float32x4_t acc = vdupq_n_f32(0.f);
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const float32x4_t t = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    acc = vfmaq_f32(acc, t, t);
  }
  float s = HSum128(acc);
  for (; i < d; ++i) {
    const float t = a[i] - b[i];
    s += t * t;
  }
  return s;
}

void AxpyNeon(float* y, const float* x, size_t d, float alpha) {
  const float32x4_t va = vdupq_n_f32(alpha);
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    vst1q_f32(y + i, vfmaq_f32(vld1q_f32(y + i), va, vld1q_f32(x + i)));
  }
  for (; i < d; ++i) y[i] += alpha * x[i];
}

void ScaleNeon(float* a, size_t d, float s) {
  const float32x4_t vs = vdupq_n_f32(s);
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    vst1q_f32(a + i, vmulq_f32(vld1q_f32(a + i), vs));
  }
  for (; i < d; ++i) a[i] *= s;
}

void MatVecNeon(const float* m, size_t rows, size_t d, const float* v, float* out) {
  for (size_t i = 0; i < rows; ++i) out[i] = DotNeon(m + i * d, v, d);
}

float DotF16Neon(const float* q, const uint16_t* c, size_t d) {
  // FP16 *conversions* are ARMv8.0 baseline (vcvt_f32_f16).
  float32x4_t acc = vdupq_n_f32(0.f);
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const float32x4_t cf =
        vcvt_f32_f16(vreinterpret_f16_u16(vld1_u16(c + i)));
    acc = vfmaq_f32(acc, vld1q_f32(q + i), cf);
  }
  float s = HSum128(acc);
  for (; i < d; ++i) s += q[i] * Fp16ToFloat(c[i]);
  return s;
}

float DotI8Neon(const float* q, const int8_t* c, size_t d) {
  float32x4_t acc = vdupq_n_f32(0.f);
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const int16x8_t w = vmovl_s8(vld1_s8(c + i));
    acc = vfmaq_f32(acc, vld1q_f32(q + i),
                    vcvtq_f32_s32(vmovl_s16(vget_low_s16(w))));
    acc = vfmaq_f32(acc, vld1q_f32(q + i + 4),
                    vcvtq_f32_s32(vmovl_s16(vget_high_s16(w))));
  }
  float s = HSum128(acc);
  for (; i < d; ++i) s += q[i] * static_cast<float>(c[i]);
  return s;
}

template <size_t NB>
void MatVecI8I16BlockNeon(const int8_t* codes, size_t rows, size_t d,
                          const int16_t* qs, int32_t* out, size_t out_stride) {
  for (size_t i = 0; i < rows; ++i) {
    const int8_t* c = codes + i * d;
    int32x4_t acc[NB];
    for (size_t b = 0; b < NB; ++b) acc[b] = vdupq_n_s32(0);
    size_t k = 0;
    for (; k + 8 <= d; k += 8) {
      const int16x8_t cw = vmovl_s8(vld1_s8(c + k));
      for (size_t b = 0; b < NB; ++b) {
        const int16x8_t qv = vld1q_s16(qs + b * d + k);
        acc[b] = vmlal_s16(acc[b], vget_low_s16(cw), vget_low_s16(qv));
        acc[b] = vmlal_s16(acc[b], vget_high_s16(cw), vget_high_s16(qv));
      }
    }
    for (size_t b = 0; b < NB; ++b) {
      int32_t s = vaddvq_s32(acc[b]);
      for (size_t t = k; t < d; ++t) s += int32_t{qs[b * d + t]} * int32_t{c[t]};
      out[b * out_stride + i] = s;
    }
  }
}

void MatVecI8I16Neon(const int8_t* codes, size_t rows, size_t d, const int16_t* qs,
                     size_t nq, int32_t* out) {
  size_t j = 0;
  for (; j + 2 <= nq; j += 2) {
    MatVecI8I16BlockNeon<2>(codes, rows, d, qs + j * d, out + j * rows, rows);
  }
  if (j < nq) MatVecI8I16BlockNeon<1>(codes, rows, d, qs + j * d, out + j * rows, rows);
}

constexpr KernelOps kNeonOps = {
    DotNeon,    L2SqNeon,  AxpyNeon,        ScaleNeon, MatVecNeon,
    DotF16Neon, DotI8Neon, MatVecI8I16Neon, "neon",
};

#endif  // ALAYA_NEON

const KernelOps& ResolveKernels() {
#if defined(ALAYA_X86)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
      __builtin_cpu_supports("f16c")) {
    return kAvx2Ops;
  }
#elif defined(ALAYA_NEON)
  return kNeonOps;
#endif
  return kScalarOps;
}

}  // namespace

const KernelOps& Kernels() {
  static const KernelOps& ops = ResolveKernels();
  return ops;
}

const KernelOps& ScalarKernels() { return kScalarOps; }

const char* KernelDispatchLevel() { return Kernels().level; }

// --- int16 query quantization -----------------------------------------------

int32_t Int16QueryRange(size_t d) {
  constexpr int64_t kInt32Max = 2147483647;
  if (d == 0) return 32767;
  return static_cast<int32_t>(
      std::min<int64_t>(32767, kInt32Max / (128 * static_cast<int64_t>(d))));
}

Int16Query QuantizeQueryInt16(const float* q, size_t d, int16_t* out) {
  const int32_t range = Int16QueryRange(d);
  float amax = 0.f;
  for (size_t k = 0; k < d; ++k) amax = std::max(amax, std::fabs(q[k]));
  Int16Query r;
  r.step = amax / static_cast<float>(range);
  const bool usable = r.step > 0.f && std::isfinite(r.step);
  const float lim = static_cast<float>(range);
  for (size_t k = 0; k < d; ++k) {
    const float c = usable ? std::clamp(std::nearbyintf(q[k] / r.step), -lim, lim) : 0.f;
    out[k] = static_cast<int16_t>(c);
    // step * q̂ is exact in double (24-bit by 16-bit mantissas), so each
    // residual carries only the subtraction's rounding.
    r.l1 += std::fabs(static_cast<double>(q[k]));
    r.err_l1 += std::fabs(static_cast<double>(q[k]) -
                          static_cast<double>(r.step) * static_cast<double>(out[k]));
  }
  return r;
}

// --- Codec parameter fitting and in-place quantization ---------------------

CodecParams ComputeCodecParams(const float* data, size_t count, VectorCodec codec) {
  CodecParams p;
  if (codec != VectorCodec::kInt8 || count == 0) return p;
  float lo = data[0], hi = data[0];
  for (size_t i = 1; i < count; ++i) {
    lo = std::min(lo, data[i]);
    hi = std::max(hi, data[i]);
  }
  const float range = hi - lo;
  p.scale = range > 1e-30f ? range / 255.f : 1.f;
  p.zero_point = -128.f - lo / p.scale;
  return p;
}

namespace {

inline int8_t EncodeI8(float x, const CodecParams& p) {
  const float c = std::nearbyintf(x / p.scale + p.zero_point);
  return static_cast<int8_t>(std::clamp(c, -128.f, 127.f));
}

inline float DecodeI8(int8_t c, const CodecParams& p) {
  return p.scale * (static_cast<float>(c) - p.zero_point);
}

}  // namespace

void QuantizeRows(float* data, size_t n, size_t d, VectorCodec codec,
                  CodecParams* params, bool reuse_params) {
  const size_t count = n * d;
  if (codec == VectorCodec::kFp32 || count == 0) {
    if (params != nullptr && !reuse_params) *params = CodecParams{};
    return;
  }
  if (codec == VectorCodec::kFp16) {
    for (size_t i = 0; i < count; ++i) data[i] = Fp16ToFloat(Fp16FromFloat(data[i]));
    if (params != nullptr && !reuse_params) *params = CodecParams{};
    return;
  }
  CodecParams p = (reuse_params && params != nullptr)
                      ? *params
                      : ComputeCodecParams(data, count, codec);
  for (size_t i = 0; i < count; ++i) data[i] = DecodeI8(EncodeI8(data[i], p), p);
  if (params != nullptr) *params = p;
}

// --- CodedVectorSet ---------------------------------------------------------

void CodedVectorSet::Encode(VectorSetView src, VectorCodec codec) {
  EncodeWithParams(src, codec,
                   ComputeCodecParams(src.data, src.n * src.d, codec));
}

void CodedVectorSet::EncodeWithParams(VectorSetView src, VectorCodec codec,
                                      CodecParams params) {
  codec_ = codec;
  params_ = params;
  n_ = 0;
  d_ = src.d;
  max_residual_ = 0;
  max_abs_ = 0;
  f16_.clear();
  i8_.clear();
  if (codec == VectorCodec::kFp32) return;  // Empty set == "score on fp32".
  n_ = src.n;
  const size_t count = src.n * src.d;
  if (codec == VectorCodec::kFp16) {
    f16_.resize(count);
    for (size_t i = 0; i < count; ++i) f16_[i] = Fp16FromFloat(src.data[i]);
  } else {
    i8_.resize(count);
    // Residual r = x − s·(c − z), evaluated as fl(x − fl(s·fl(c − z))) in
    // double. Each step rounds by at most 2^-53 relative, so the exact
    // residual is within |r̃|·2^-52 + |k̂|·2^-51 of the computed one
    // (k̂ = s·(c − z), |k̂| <= |x| + |r|); padding the maximum by
    // 2^-50·(max|r̃| + max|x|) covers that for every element.
    const double s = params_.scale, z = params_.zero_point;
    double rmax = 0, xmax = 0;
    for (size_t i = 0; i < count; ++i) {
      const int8_t c = EncodeI8(src.data[i], params_);
      i8_[i] = c;
      const double x = src.data[i];
      rmax = std::max(rmax, std::fabs(x - s * (static_cast<double>(c) - z)));
      xmax = std::max(xmax, std::fabs(x));
    }
    max_residual_ = rmax + 0x1p-50 * (rmax + xmax);
    max_abs_ = xmax;
  }
}

void CodedVectorSet::DecodeRow(uint32_t id, float* out) const {
  switch (codec_) {
    case VectorCodec::kFp16: {
      const uint16_t* row = F16Row(id);
      for (size_t i = 0; i < d_; ++i) out[i] = Fp16ToFloat(row[i]);
      return;
    }
    case VectorCodec::kInt8: {
      const int8_t* row = I8Row(id);
      for (size_t i = 0; i < d_; ++i) out[i] = DecodeI8(row[i], params_);
      return;
    }
    case VectorCodec::kFp32:
      return;  // Nothing stored; the fp32 source is authoritative.
  }
}

// --- Query scoring ----------------------------------------------------------

QueryScorer::QueryScorer(const ScoringView& view, const float* q)
    : q_(q),
      d_(view.d()),
      fp32_(view.fp32),
      coded_(view.coded),
      codec_(view.coded_active() ? view.coded->codec() : VectorCodec::kFp32),
      ops_(&Kernels()) {
  if (codec_ == VectorCodec::kInt8) {
    float s = 0.f;
    for (size_t i = 0; i < d_; ++i) s += q[i];
    q_sum_ = s;
  }
}

size_t RerankTopHits(const ScoringView& view, const float* q,
                     std::vector<ScoredId>* hits) {
  if (!view.coded_active() || view.rerank_k == 0 || hits->empty()) return 0;
  const KernelOps& ops = Kernels();
  const size_t k = std::min(view.rerank_k, hits->size());
  for (size_t i = 0; i < k; ++i) {
    (*hits)[i].score = ops.dot(q, view.fp32.Vec((*hits)[i].id), view.fp32.d);
  }
  std::sort(hits->begin(), hits->begin() + static_cast<ptrdiff_t>(k),
            [](const ScoredId& a, const ScoredId& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;
            });
  return k;
}

}  // namespace alaya
