// AVX2 backend: 256-bit logic + VPSHUFB nibble-LUT popcount (Mula's method,
// the VPSHUFB scheme from the hardware-HDC literature) reduced with
// _mm256_sad_epu8 into four 64-bit lane sums. This TU is compiled with
// -mavx2 only (see src/core/CMakeLists.txt); it must never be entered on a
// CPU without AVX2 — dispatch guarantees that via __builtin_cpu_supports.
//
// Bit-identity with the scalar backend:
//   * logic/popcount/hamming kernels are integer-exact;
//   * add_xor_weighted and bundle_words build ±weight by XORing the IEEE
//     sign bit (exact negation) and perform exactly one rounded add per
//     dimension and slot, in slot order, the same as the scalar two-entry
//     select table;
//   * threshold_words and bundle_words use ordered > / == compares against
//     +0.0, identical to the scalar comparisons.

#if defined(HDFACE_KERNEL_AVX2)

#include <immintrin.h>

#include <bit>
#include <cstdint>

#include "core/kernels/backends.hpp"
#include "core/kernels/select_rotated.hpp"

namespace hdface::core::kernels::detail {
namespace {

// Pointer reinterpretation here is the intrinsic load/store ABI for packed
// word arrays; the bytes are reinterpreted as themselves.
inline __m256i load256(const std::uint64_t* p) {
  // hdlint: allow(reinterpret-cast) — unaligned SIMD load of uint64 words
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void store256(std::uint64_t* p, __m256i v) {
  // hdlint: allow(reinterpret-cast) — unaligned SIMD store of uint64 words
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

// Per-64-bit-lane popcount of v: VPSHUFB nibble lookup, byte sums folded
// with SAD against zero.
inline __m256i popcount_lanes(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1,
                       2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                         _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

inline std::uint64_t hsum_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<std::uint64_t>(_mm_extract_epi64(sum, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(sum, 1));
}

void xor_words_avx2(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store256(dst + i, _mm256_xor_si256(load256(a + i), load256(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] ^ b[i];
}

void and_words_avx2(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store256(dst + i, _mm256_and_si256(load256(a + i), load256(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] & b[i];
}

void or_words_avx2(const std::uint64_t* a, const std::uint64_t* b,
                   std::uint64_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store256(dst + i, _mm256_or_si256(load256(a + i), load256(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] | b[i];
}

void not_words_avx2(const std::uint64_t* a, std::uint64_t* dst,
                    std::size_t n) {
  const __m256i ones = _mm256_set1_epi64x(-1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store256(dst + i, _mm256_xor_si256(load256(a + i), ones));
  }
  for (; i < n; ++i) dst[i] = ~a[i];
}

std::uint64_t popcount_words_avx2(const std::uint64_t* a, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(acc, popcount_lanes(load256(a + i)));
  }
  std::uint64_t total = hsum_epi64(acc);
  for (; i < n; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(a[i]));
  }
  return total;
}

std::uint64_t hamming_words_avx2(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x0 = _mm256_xor_si256(load256(a + i), load256(b + i));
    const __m256i x1 =
        _mm256_xor_si256(load256(a + i + 4), load256(b + i + 4));
    acc = _mm256_add_epi64(
        acc, _mm256_add_epi64(popcount_lanes(x0), popcount_lanes(x1)));
  }
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(
        acc, popcount_lanes(_mm256_xor_si256(load256(a + i), load256(b + i))));
  }
  std::uint64_t total = hsum_epi64(acc);
  for (; i < n; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(a[i] ^ b[i]));
  }
  return total;
}

void hamming_block_avx2(const std::uint64_t* query, const std::uint64_t* block,
                        std::size_t words, std::size_t count,
                        std::size_t stride, std::uint64_t* out) {
  // Four prototype lanes per vector; the PrototypeBlock stride is a multiple
  // of 8, so reading lanes [c, c+4) never leaves the (zero-padded) row.
  std::size_t c = 0;
  for (; c < count; c += 4) {
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t w = 0; w < words; ++w) {
      const __m256i q = _mm256_set1_epi64x(
          static_cast<long long>(query[w]));
      const __m256i p = load256(block + w * stride + c);
      acc = _mm256_add_epi64(acc, popcount_lanes(_mm256_xor_si256(q, p)));
    }
    alignas(32) std::uint64_t lanes[4];
    store256(lanes, acc);
    const std::size_t take = count - c < 4 ? count - c : 4;
    for (std::size_t j = 0; j < take; ++j) out[c + j] = lanes[j];
  }
}

void add_xor_weighted_avx2(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t dim, double weight, double* counts) {
  const __m256d wv = _mm256_set1_pd(weight);
  const __m256i lane_shift = _mm256_setr_epi64x(0, 1, 2, 3);
  const std::size_t full_words = dim / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    // Invert so a set sign bit means "subtract weight" (xor bit was 0).
    std::uint64_t xinv = ~(a[w] ^ b[w]);
    double* c = counts + w * 64;
    for (std::size_t g = 0; g < 64; g += 4, xinv >>= 4) {
      const __m256i bits =
          _mm256_srlv_epi64(_mm256_set1_epi64x(static_cast<long long>(xinv)),
                            lane_shift);
      const __m256i sign = _mm256_slli_epi64(bits, 63);
      const __m256d addend = _mm256_xor_pd(wv, _mm256_castsi256_pd(sign));
      _mm256_storeu_pd(c + g, _mm256_add_pd(_mm256_loadu_pd(c + g), addend));
    }
  }
  const std::size_t rem = dim - full_words * 64;
  if (rem != 0) {
    const double sel[2] = {-weight, weight};
    std::uint64_t x = a[full_words] ^ b[full_words];
    double* c = counts + full_words * 64;
    for (std::size_t bit = 0; bit < rem; ++bit, x >>= 1) {
      c[bit] += sel[x & 1ULL];
    }
  }
}

std::size_t threshold_words_avx2(const double* counts, std::size_t dim,
                                 std::uint64_t* out_words) {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t zeros = 0;
  const std::size_t full_words = dim / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    const double* c = counts + w * 64;
    std::uint64_t word = 0;
    for (std::size_t g = 0; g < 64; g += 4) {
      const __m256d v = _mm256_loadu_pd(c + g);
      const int gt = _mm256_movemask_pd(_mm256_cmp_pd(v, zero, _CMP_GT_OQ));
      const int eq = _mm256_movemask_pd(_mm256_cmp_pd(v, zero, _CMP_EQ_OQ));
      word |= static_cast<std::uint64_t>(gt) << g;
      zeros += static_cast<std::size_t>(std::popcount(
          static_cast<unsigned>(eq)));
    }
    out_words[w] = word;
  }
  const std::size_t rem = dim - full_words * 64;
  if (rem != 0) {
    const double* c = counts + full_words * 64;
    std::uint64_t word = 0;
    for (std::size_t bit = 0; bit < rem; ++bit) {
      word |= static_cast<std::uint64_t>(c[bit] > 0.0) << bit;
      zeros += static_cast<std::size_t>(c[bit] == 0.0);
    }
    out_words[full_words] = word;
  }
  return zeros;
}

void bundle_words_avx2(const std::uint64_t* const* a,
                       const std::uint64_t* const* b, const double* weights,
                       std::size_t slots, std::size_t word_lo,
                       std::size_t word_hi, std::uint64_t* out_words,
                       std::uint64_t* zero_masks) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  for (std::size_t w = word_lo; w < word_hi; ++w) {
    std::uint64_t word = 0;
    std::uint64_t zeros = 0;
    // Half a word (32 counters, eight registers) per pass over the slots, so
    // the counters stay in registers; each counter still sees its adds in
    // slot order.
    for (std::size_t half = 0; half < 64; half += 32) {
      __m256d c[8];
      for (auto& v : c) v = zero;
      for (std::size_t s = 0; s < slots; ++s) {
        const __m256i x = _mm256_set1_epi64x(
            static_cast<long long>(a[s][w] ^ b[s][w]));
        const __m256d pos = _mm256_set1_pd(weights[s]);
        const __m256d neg = _mm256_xor_pd(pos, sign);
        for (std::size_t g = 0; g < 8; ++g) {
          // Lane l's sign bit becomes bit (half + 4g + l) of the XOR, which
          // blendv reads to pick +w.
          const __m256i shift = _mm256_sub_epi64(
              _mm256_set1_epi64x(static_cast<long long>(63 - half - 4 * g)),
              lane);
          const __m256d pick = _mm256_castsi256_pd(_mm256_sllv_epi64(x, shift));
          c[g] = _mm256_add_pd(c[g], _mm256_blendv_pd(neg, pos, pick));
        }
      }
      for (std::size_t g = 0; g < 8; ++g) {
        const int gt = _mm256_movemask_pd(_mm256_cmp_pd(c[g], zero, _CMP_GT_OQ));
        const int eq = _mm256_movemask_pd(_mm256_cmp_pd(c[g], zero, _CMP_EQ_OQ));
        word |= static_cast<std::uint64_t>(gt) << (half + 4 * g);
        zeros |= static_cast<std::uint64_t>(eq) << (half + 4 * g);
      }
    }
    out_words[w] = word;
    zero_masks[w] = zeros;
  }
}

// select_rotated's vector traits (see select_rotated.hpp).
struct Avx2Vec {
  using Vec = __m256i;
  static constexpr std::size_t kWords = 4;
  static Vec load(const std::uint64_t* p) { return load256(p); }
  // The straddling vector: lanes [0, len) are the view's last len words,
  // the rest its first words. One 32-bit index rotates both the entry's
  // last and first full vectors into place, and a lane blend joins them.
  static Vec load_wrapped(const std::uint64_t* words, std::size_t s,
                          std::size_t n) {
    const auto len = static_cast<long long>(n - s);
    const __m256i idx = _mm256_and_si256(
        _mm256_add_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                         _mm256_set1_epi32(static_cast<int>(8 - 2 * len))),
        _mm256_set1_epi32(7));
    const __m256i tail = _mm256_permutevar8x32_epi32(load256(words + n - 4), idx);
    const __m256i head = _mm256_permutevar8x32_epi32(load256(words), idx);
    const __m256i from_tail = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(len), _mm256_setr_epi64x(0, 1, 2, 3));
    return _mm256_blendv_epi8(head, tail, from_tail);
  }
  static Vec splat(std::uint64_t x) {
    return _mm256_set1_epi64x(static_cast<long long>(x));
  }
  static Vec bxor(Vec a, Vec b) { return _mm256_xor_si256(a, b); }
  static Vec select(Vec m, Vec p, Vec q) {
    return _mm256_or_si256(_mm256_and_si256(m, p), _mm256_andnot_si256(m, q));
  }
  static void store(std::uint64_t* p, Vec v) { store256(p, v); }
  static Vec zero() { return _mm256_setzero_si256(); }
  static Vec popcount_add(Vec acc, Vec v) {
    return _mm256_add_epi64(acc, popcount_lanes(v));
  }
  static std::uint64_t reduce(Vec acc) { return hsum_epi64(acc); }
};

// Prefix/range variant: a hamming_block over the words [word_lo, word_hi),
// run by this backend's own block kernel on offset pointers — bit-identity
// to scalar follows from the full kernel's.
void hamming_block_range_avx2(const std::uint64_t* query,
                              const std::uint64_t* block, std::size_t word_lo,
                              std::size_t word_hi, std::size_t count,
                              std::size_t stride, std::uint64_t* out) {
  hamming_block_avx2(query + word_lo, block + word_lo * stride,
                     word_hi - word_lo, count, stride, out);
}

}  // namespace

const KernelTable& avx2_table() {
  static const KernelTable table = {
      Backend::kAvx2,            &xor_words_avx2,
      &and_words_avx2,           &or_words_avx2,
      &not_words_avx2,           &popcount_words_avx2,
      &hamming_words_avx2,       &hamming_block_avx2,
      &hamming_block_range_avx2, &add_xor_weighted_avx2,
      &threshold_words_avx2,     &bundle_words_avx2,
      &select_rotated_simd<Avx2Vec>};
  return table;
}

}  // namespace hdface::core::kernels::detail

#endif  // HDFACE_KERNEL_AVX2
