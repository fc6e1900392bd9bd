// Shared 8-lane vector helpers for the hot paths: the GEMM dot kernels
// (tensor/matrix.cpp), the top-k threshold scans, and the accumulator adds.
// One home for the GCC/Clang portable vector-extension idiom — GCC 12's SLP
// pass does not vectorize the equivalent scalar stripe code — with a guarded
// x86 movemask fast path: extracting a per-lane predicate through memcpy
// costs ~7 uops per 8 lanes, while vmovmskps is one, and the threshold scan
// tests a predicate for every 8 entries it touches. Non-x86 GNU targets take
// the memcpy reduction; non-GNU compilers compile the callers' scalar
// branches only (FEDSPARSE_VEC_EXT stays undefined).
#pragma once

#if defined(__GNUC__) || defined(__clang__)
#define FEDSPARSE_VEC_EXT 1

#include <cstdint>
#include <cstring>

#if defined(__AVX__)
#include <immintrin.h>
#endif

namespace fedsparse::util::vec {

inline constexpr std::size_t kLanes = 8;
typedef float v8sf __attribute__((vector_size(kLanes * sizeof(float))));
typedef std::int32_t v8si __attribute__((vector_size(kLanes * sizeof(std::int32_t))));

inline v8sf load8(const float* p) {
  v8sf v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store8(float* p, v8sf v) { std::memcpy(p, &v, sizeof v); }

/// |x| per lane (clears the sign bit; exact for every value incl. NaN).
inline v8sf abs8(v8sf x) {
  v8si b;
  std::memcpy(&b, &x, sizeof b);
  b &= 0x7fffffff;
  std::memcpy(&x, &b, sizeof x);
  return x;
}

/// Lane-wise maximum. NaN handling follows the ternary select (a > NaN is
/// false, so a NaN in `b` wins the lane) — callers that must not lose NaNs
/// reduce over abs_bits8 instead.
inline v8sf max8(v8sf a, v8sf b) { return a > b ? a : b; }

/// |x| bit patterns per lane, as signed ints. Absolute-value bits fit the
/// positive signed range, IEEE bit order equals magnitude order for non-NaN
/// values, and NaN payloads rank strictly above +inf's bits — so a signed
/// lane max over these never silently drops a NaN the way a float max does.
inline v8si abs_bits8(v8sf x) {
  v8si b;
  std::memcpy(&b, &x, sizeof b);
  b &= 0x7fffffff;
  return b;
}

/// Lane-wise signed-integer maximum.
inline v8si max8i(v8si a, v8si b) { return a > b ? a : b; }

/// Horizontal maximum of the 8 signed-int lanes.
inline std::int32_t reduce_max8i(v8si v) {
  std::int32_t l[kLanes];
  std::memcpy(l, &v, sizeof l);
  const std::int32_t a = l[0] > l[1] ? l[0] : l[1];
  const std::int32_t b = l[2] > l[3] ? l[2] : l[3];
  const std::int32_t c = l[4] > l[5] ? l[4] : l[5];
  const std::int32_t d = l[6] > l[7] ? l[6] : l[7];
  const std::int32_t ab = a > b ? a : b;
  const std::int32_t cd = c > d ? c : d;
  return ab > cd ? ab : cd;
}

/// One bit per lane of a comparison result (bit j set iff lane j is true).
inline int lane_mask(v8si m) {
#if defined(__AVX__)
  return _mm256_movemask_ps(_mm256_castsi256_ps(reinterpret_cast<__m256i>(m)));
#else
  std::int32_t w[kLanes];
  std::memcpy(w, &m, sizeof w);
  int mask = 0;
  for (std::size_t j = 0; j < kLanes; ++j) mask |= (w[j] != 0) << j;
  return mask;
#endif
}

/// True when any lane of a comparison result is set.
inline bool any_lane(v8si m) {
#if defined(__AVX__)
  return lane_mask(m) != 0;
#else
  std::int64_t w[4];
  std::memcpy(w, &m, sizeof w);
  return ((w[0] | w[1]) | (w[2] | w[3])) != 0;
#endif
}

}  // namespace fedsparse::util::vec
#endif  // GNUC || clang
