// NEON backend (aarch64): 128-bit logic with vcntq_u8 byte popcounts folded
// through the vpaddlq widening-add chain. Advanced SIMD is part of the
// aarch64 base ISA, so this TU needs no extra target flags and "compiled"
// implies "supported" (kernels.cpp::backend_supported).
//
// add_xor_weighted and threshold_words intentionally keep the scalar
// reference loops: at two doubles per vector the win is small. bundle_words
// keeps half a word of counters in registers; vnegq_f64 is an exact sign
// flip and each counter sees one rounded add per slot, in slot order, so it
// matches the scalar loop bit for bit.

#if defined(HDFACE_KERNEL_NEON)

#include <arm_neon.h>

#include <bit>
#include <cstdint>

#include "core/kernels/backends.hpp"
#include "core/kernels/select_rotated.hpp"

namespace hdface::core::kernels::detail {
namespace {

// uint64x2_t lane popcounts: per-byte counts widened 8→16→32→64.
inline uint64x2_t popcount_lanes(uint64x2_t v) {
  return vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(vreinterpretq_u8_u64(v)))));
}

void xor_words_neon(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, veorq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] ^ b[i];
}

void and_words_neon(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] & b[i];
}

void or_words_neon(const std::uint64_t* a, const std::uint64_t* b,
                   std::uint64_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vorrq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] | b[i];
}

void not_words_neon(const std::uint64_t* a, std::uint64_t* dst,
                    std::size_t n) {
  const uint64x2_t ones = vdupq_n_u64(~0ULL);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, veorq_u64(vld1q_u64(a + i), ones));
  }
  for (; i < n; ++i) dst[i] = ~a[i];
}

std::uint64_t popcount_words_neon(const std::uint64_t* a, std::size_t n) {
  uint64x2_t acc = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    acc = vaddq_u64(acc, popcount_lanes(vld1q_u64(a + i)));
  }
  std::uint64_t total = vaddvq_u64(acc);
  for (; i < n; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(a[i]));
  }
  return total;
}

std::uint64_t hamming_words_neon(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t n) {
  uint64x2_t acc = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    acc = vaddq_u64(
        acc, popcount_lanes(veorq_u64(vld1q_u64(a + i), vld1q_u64(b + i))));
  }
  std::uint64_t total = vaddvq_u64(acc);
  for (; i < n; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(a[i] ^ b[i]));
  }
  return total;
}

void hamming_block_neon(const std::uint64_t* query, const std::uint64_t* block,
                        std::size_t words, std::size_t count,
                        std::size_t stride, std::uint64_t* out) {
  // Two prototype lanes per vector; the PrototypeBlock stride is a multiple
  // of 8, so lanes [c, c+2) never leave the (zero-padded) row.
  std::size_t c = 0;
  for (; c < count; c += 2) {
    uint64x2_t acc = vdupq_n_u64(0);
    for (std::size_t w = 0; w < words; ++w) {
      const uint64x2_t q = vdupq_n_u64(query[w]);
      const uint64x2_t p = vld1q_u64(block + w * stride + c);
      acc = vaddq_u64(acc, popcount_lanes(veorq_u64(q, p)));
    }
    if (count - c >= 2) {
      vst1q_u64(out + c, acc);
    } else {
      out[c] = vgetq_lane_u64(acc, 0);
    }
  }
}

void add_xor_weighted_neon(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t dim, double weight, double* counts) {
  const double sel[2] = {-weight, weight};
  const std::size_t full_words = dim / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    std::uint64_t x = a[w] ^ b[w];
    double* c = counts + w * 64;
    for (std::size_t bit = 0; bit < 64; ++bit, x >>= 1) {
      c[bit] += sel[x & 1ULL];
    }
  }
  const std::size_t rem = dim - full_words * 64;
  if (rem != 0) {
    std::uint64_t x = a[full_words] ^ b[full_words];
    double* c = counts + full_words * 64;
    for (std::size_t bit = 0; bit < rem; ++bit, x >>= 1) {
      c[bit] += sel[x & 1ULL];
    }
  }
}

std::size_t threshold_words_neon(const double* counts, std::size_t dim,
                                 std::uint64_t* out_words) {
  std::size_t zeros = 0;
  const std::size_t full_words = dim / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    const double* c = counts + w * 64;
    std::uint64_t word = 0;
    for (std::size_t bit = 0; bit < 64; ++bit) {
      word |= static_cast<std::uint64_t>(c[bit] > 0.0) << bit;
      zeros += static_cast<std::size_t>(c[bit] == 0.0);
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

void bundle_words_neon(const std::uint64_t* const* a,
                       const std::uint64_t* const* b, const double* weights,
                       std::size_t slots, std::size_t word_lo,
                       std::size_t word_hi, std::uint64_t* out_words,
                       std::uint64_t* zero_masks) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  for (std::size_t w = word_lo; w < word_hi; ++w) {
    std::uint64_t word = 0;
    std::uint64_t zeros = 0;
    // Half a word (32 counters, sixteen registers) per pass over the slots,
    // so the counters stay in registers; each counter still sees its adds in
    // slot order.
    for (std::size_t half = 0; half < 64; half += 32) {
      float64x2_t c[16];
      for (auto& v : c) v = zero;
      for (std::size_t s = 0; s < slots; ++s) {
        const uint64x2_t x = vdupq_n_u64(a[s][w] ^ b[s][w]);
        const float64x2_t pos = vdupq_n_f64(weights[s]);
        const float64x2_t neg = vnegq_f64(pos);
        for (std::size_t g = 0; g < 16; ++g) {
          const std::size_t bit = half + 2 * g;
          const uint64x2_t lanes = vcombine_u64(vcreate_u64(1ULL << bit),
                                                vcreate_u64(1ULL << (bit + 1)));
          const uint64x2_t pick = vtstq_u64(x, lanes);
          c[g] = vaddq_f64(c[g], vbslq_f64(pick, pos, neg));
        }
      }
      for (std::size_t g = 0; g < 16; ++g) {
        const std::size_t bit = half + 2 * g;
        const uint64x2_t gt = vcgtq_f64(c[g], zero);
        const uint64x2_t eq = vceqq_f64(c[g], zero);
        word |= (vgetq_lane_u64(gt, 0) & 1ULL) << bit;
        word |= (vgetq_lane_u64(gt, 1) & 1ULL) << (bit + 1);
        zeros |= (vgetq_lane_u64(eq, 0) & 1ULL) << bit;
        zeros |= (vgetq_lane_u64(eq, 1) & 1ULL) << (bit + 1);
      }
    }
    out_words[w] = word;
    zero_masks[w] = zeros;
  }
}

// select_rotated's vector traits (see select_rotated.hpp).
struct NeonVec {
  using Vec = uint64x2_t;
  static constexpr std::size_t kWords = 2;
  static Vec load(const std::uint64_t* p) { return vld1q_u64(p); }
  // The straddling vector of a two-word width is always the view's last
  // word followed by its first.
  static Vec load_wrapped(const std::uint64_t* words, std::size_t /*s*/,
                          std::size_t n) {
    return vcombine_u64(vld1_u64(words + n - 1), vld1_u64(words));
  }
  static Vec splat(std::uint64_t x) { return vdupq_n_u64(x); }
  static Vec bxor(Vec a, Vec b) { return veorq_u64(a, b); }
  static Vec select(Vec m, Vec p, Vec q) { return vbslq_u64(m, p, q); }
  static void store(std::uint64_t* p, Vec v) { vst1q_u64(p, v); }
  static Vec zero() { return vdupq_n_u64(0); }
  static Vec popcount_add(Vec acc, Vec v) {
    return vaddq_u64(acc, popcount_lanes(v));
  }
  static std::uint64_t reduce(Vec acc) { return vaddvq_u64(acc); }
};

}  // namespace

const KernelTable& neon_table() {
  static const KernelTable table = {
      Backend::kNeon,         &xor_words_neon,
      &and_words_neon,        &or_words_neon,
      &not_words_neon,        &popcount_words_neon,
      &hamming_words_neon,    &hamming_block_neon,
      &add_xor_weighted_neon, &threshold_words_neon,
      &bundle_words_neon,     &select_rotated_simd<NeonVec>};
  return table;
}

}  // namespace hdface::core::kernels::detail

#endif  // HDFACE_KERNEL_NEON
