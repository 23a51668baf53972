// AVX-512 backend: 512-bit logic with native per-lane popcount
// (_mm512_popcnt_epi64 / VPOPCNTQ, the avx512_vpopcntdq extension) — the
// associative-memory search of the paper as one wide data-parallel
// reduction. Compiled with -mavx512f -mavx512bw -mavx512vl
// -mavx512vpopcntdq only (src/core/CMakeLists.txt); dispatch only selects
// it when __builtin_cpu_supports reports all four features.
//
// Bit-identity with the scalar backend follows the same argument as the
// AVX2 TU: integer kernels are exact; add_xor_weighted and bundle_words
// sign-flip ±weight via the IEEE sign bit and round once per add, in slot
// order; threshold_words and bundle_words compare against +0.0 with
// ordered > / ==.

#if defined(HDFACE_KERNEL_AVX512)

#include <immintrin.h>

#include <bit>
#include <cstdint>

#include "core/kernels/backends.hpp"
#include "core/kernels/select_rotated.hpp"

namespace hdface::core::kernels::detail {
namespace {

inline __m512i load512(const std::uint64_t* p) {
  return _mm512_loadu_si512(p);
}

inline void store512(std::uint64_t* p, __m512i v) {
  _mm512_storeu_si512(p, v);
}

// Masked tail load/store: lanes past the mask read as zero / stay untouched.
inline __m512i load512_tail(const std::uint64_t* p, __mmask8 m) {
  return _mm512_maskz_loadu_epi64(m, p);
}

inline __mmask8 tail_mask(std::size_t lanes) {
  return static_cast<__mmask8>((1u << lanes) - 1u);
}

void xor_words_avx512(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store512(dst + i, _mm512_xor_si512(load512(a + i), load512(b + i)));
  }
  if (i < n) {
    const __mmask8 m = tail_mask(n - i);
    _mm512_mask_storeu_epi64(
        dst + i, m,
        _mm512_xor_si512(load512_tail(a + i, m), load512_tail(b + i, m)));
  }
}

void and_words_avx512(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store512(dst + i, _mm512_and_si512(load512(a + i), load512(b + i)));
  }
  if (i < n) {
    const __mmask8 m = tail_mask(n - i);
    _mm512_mask_storeu_epi64(
        dst + i, m,
        _mm512_and_si512(load512_tail(a + i, m), load512_tail(b + i, m)));
  }
}

void or_words_avx512(const std::uint64_t* a, const std::uint64_t* b,
                     std::uint64_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store512(dst + i, _mm512_or_si512(load512(a + i), load512(b + i)));
  }
  if (i < n) {
    const __mmask8 m = tail_mask(n - i);
    _mm512_mask_storeu_epi64(
        dst + i, m,
        _mm512_or_si512(load512_tail(a + i, m), load512_tail(b + i, m)));
  }
}

void not_words_avx512(const std::uint64_t* a, std::uint64_t* dst,
                      std::size_t n) {
  const __m512i ones = _mm512_set1_epi64(-1);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store512(dst + i, _mm512_xor_si512(load512(a + i), ones));
  }
  if (i < n) {
    const __mmask8 m = tail_mask(n - i);
    _mm512_mask_storeu_epi64(dst + i, m,
                             _mm512_xor_si512(load512_tail(a + i, m), ones));
  }
}

std::uint64_t popcount_words_avx512(const std::uint64_t* a, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(load512(a + i)));
  }
  if (i < n) {
    acc = _mm512_add_epi64(
        acc, _mm512_popcnt_epi64(load512_tail(a + i, tail_mask(n - i))));
  }
  return static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc));
}

std::uint64_t hamming_words_avx512(const std::uint64_t* a,
                                   const std::uint64_t* b, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i x0 = _mm512_xor_si512(load512(a + i), load512(b + i));
    const __m512i x1 =
        _mm512_xor_si512(load512(a + i + 8), load512(b + i + 8));
    acc = _mm512_add_epi64(acc, _mm512_add_epi64(_mm512_popcnt_epi64(x0),
                                                 _mm512_popcnt_epi64(x1)));
  }
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_epi64(
        acc,
        _mm512_popcnt_epi64(_mm512_xor_si512(load512(a + i), load512(b + i))));
  }
  if (i < n) {
    const __mmask8 m = tail_mask(n - i);
    acc = _mm512_add_epi64(
        acc, _mm512_popcnt_epi64(
                 _mm512_xor_si512(load512_tail(a + i, m),
                                  load512_tail(b + i, m))));
  }
  return static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc));
}

void hamming_block_avx512(const std::uint64_t* query,
                          const std::uint64_t* block, std::size_t words,
                          std::size_t count, std::size_t stride,
                          std::uint64_t* out) {
  // Eight prototype lanes per vector; the PrototypeBlock stride is a
  // multiple of 8, so lanes [c, c+8) never leave the (zero-padded) row.
  std::size_t c = 0;
  for (; c < count; c += 8) {
    __m512i acc = _mm512_setzero_si512();
    for (std::size_t w = 0; w < words; ++w) {
      const __m512i q =
          _mm512_set1_epi64(static_cast<long long>(query[w]));
      const __m512i p = load512(block + w * stride + c);
      acc = _mm512_add_epi64(acc,
                             _mm512_popcnt_epi64(_mm512_xor_si512(q, p)));
    }
    const std::size_t take = count - c < 8 ? count - c : 8;
    _mm512_mask_storeu_epi64(out + c, tail_mask(take), acc);
  }
}

void add_xor_weighted_avx512(const std::uint64_t* a, const std::uint64_t* b,
                             std::size_t dim, double weight, double* counts) {
  const __m512d wv = _mm512_set1_pd(weight);
  const __m512i lane_shift = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  const std::size_t full_words = dim / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    // Invert so a set sign bit means "subtract weight" (xor bit was 0).
    std::uint64_t xinv = ~(a[w] ^ b[w]);
    double* c = counts + w * 64;
    for (std::size_t g = 0; g < 64; g += 8, xinv >>= 8) {
      const __m512i bits = _mm512_srlv_epi64(
          _mm512_set1_epi64(static_cast<long long>(xinv)), lane_shift);
      const __m512i sign = _mm512_slli_epi64(bits, 63);
      // Sign flip in the integer domain (_mm512_xor_pd would pull in
      // AVX512DQ, which dispatch does not probe for).
      const __m512d addend = _mm512_castsi512_pd(
          _mm512_xor_si512(_mm512_castpd_si512(wv), sign));
      _mm512_storeu_pd(c + g, _mm512_add_pd(_mm512_loadu_pd(c + g), addend));
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

std::size_t threshold_words_avx512(const double* counts, std::size_t dim,
                                   std::uint64_t* out_words) {
  const __m512d zero = _mm512_setzero_pd();
  std::size_t zeros = 0;
  const std::size_t full_words = dim / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    const double* c = counts + w * 64;
    std::uint64_t word = 0;
    for (std::size_t g = 0; g < 64; g += 8) {
      const __m512d v = _mm512_loadu_pd(c + g);
      const __mmask8 gt = _mm512_cmp_pd_mask(v, zero, _CMP_GT_OQ);
      const __mmask8 eq = _mm512_cmp_pd_mask(v, zero, _CMP_EQ_OQ);
      word |= static_cast<std::uint64_t>(gt) << g;
      zeros += static_cast<std::size_t>(
          std::popcount(static_cast<unsigned>(eq)));
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

void bundle_words_avx512(const std::uint64_t* const* a,
                         const std::uint64_t* const* b, const double* weights,
                         std::size_t slots, std::size_t word_lo,
                         std::size_t word_hi, std::uint64_t* out_words,
                         std::uint64_t* zero_masks) {
  const __m512i sign = _mm512_set1_epi64(static_cast<long long>(1ULL << 63));
  const __m512d zero = _mm512_setzero_pd();
  for (std::size_t w = word_lo; w < word_hi; ++w) {
    // The word's 64 counters live in eight registers across every slot;
    // byte g of the XOR selects +w or −w for dimensions 8g..8g+7.
    __m512d c[8];
    for (auto& v : c) v = zero;
    for (std::size_t s = 0; s < slots; ++s) {
      const std::uint64_t x = a[s][w] ^ b[s][w];
      const __m512d pos = _mm512_set1_pd(weights[s]);
      // Sign flip in the integer domain (_mm512_xor_pd would pull in
      // AVX512DQ, which dispatch does not probe for).
      const __m512d neg = _mm512_castsi512_pd(
          _mm512_xor_si512(_mm512_castpd_si512(pos), sign));
      for (std::size_t g = 0; g < 8; ++g) {
        const auto k = static_cast<__mmask8>(x >> (8 * g));
        c[g] = _mm512_add_pd(c[g], _mm512_mask_blend_pd(k, neg, pos));
      }
    }
    std::uint64_t word = 0;
    std::uint64_t zeros = 0;
    for (std::size_t g = 0; g < 8; ++g) {
      const __mmask8 gt = _mm512_cmp_pd_mask(c[g], zero, _CMP_GT_OQ);
      const __mmask8 eq = _mm512_cmp_pd_mask(c[g], zero, _CMP_EQ_OQ);
      word |= static_cast<std::uint64_t>(gt) << (8 * g);
      zeros |= static_cast<std::uint64_t>(eq) << (8 * g);
    }
    out_words[w] = word;
    zero_masks[w] = zeros;
  }
}

// select_rotated's vector traits (see select_rotated.hpp).
struct Avx512Vec {
  using Vec = __m512i;
  static constexpr std::size_t kWords = 8;
  static Vec load(const std::uint64_t* p) { return load512(p); }
  // The straddling vector: lanes [0, len) are the view's last len words,
  // the rest its first words — one two-source permute of the entry's last
  // and first full vectors.
  static Vec load_wrapped(const std::uint64_t* words, std::size_t s,
                          std::size_t n) {
    const auto shift = static_cast<long long>(8 - (n - s));
    const __m512i idx = _mm512_add_epi64(
        _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7), _mm512_set1_epi64(shift));
    return _mm512_permutex2var_epi64(load512(words + n - 8), idx,
                                     load512(words));
  }
  static Vec splat(std::uint64_t x) {
    return _mm512_set1_epi64(static_cast<long long>(x));
  }
  static Vec bxor(Vec a, Vec b) { return _mm512_xor_si512(a, b); }
  // m ? p : q per bit (ternary-logic truth table 0xCA).
  static Vec select(Vec m, Vec p, Vec q) {
    return _mm512_ternarylogic_epi64(m, p, q, 0xCA);
  }
  static void store(std::uint64_t* p, Vec v) { store512(p, v); }
  static Vec zero() { return _mm512_setzero_si512(); }
  static Vec popcount_add(Vec acc, Vec v) {
    return _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  static std::uint64_t reduce(Vec acc) {
    alignas(64) std::uint64_t lanes[8];
    store512(lanes, acc);
    std::uint64_t total = 0;
    for (const std::uint64_t l : lanes) total += l;
    return total;
  }
};

}  // namespace

const KernelTable& avx512_table() {
  static const KernelTable table = {
      Backend::kAvx512,         &xor_words_avx512,
      &and_words_avx512,        &or_words_avx512,
      &not_words_avx512,        &popcount_words_avx512,
      &hamming_words_avx512,    &hamming_block_avx512,
      &add_xor_weighted_avx512, &threshold_words_avx512,
      &bundle_words_avx512,     &select_rotated_simd<Avx512Vec>};
  return table;
}

}  // namespace hdface::core::kernels::detail

#endif  // HDFACE_KERNEL_AVX512
