#include "core/kernels/kernels.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/kernels/backends.hpp"

namespace hdface::core::kernels {

namespace {

// --- scalar reference backend ----------------------------------------------
// Every SIMD backend is validated (tests/core/kernels_test) and CI-gated
// against these loops; keep them boring.

void xor_words_scalar(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] ^ b[i];
}

void and_words_scalar(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] & b[i];
}

void or_words_scalar(const std::uint64_t* a, const std::uint64_t* b,
                     std::uint64_t* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] | b[i];
}

void not_words_scalar(const std::uint64_t* a, std::uint64_t* dst,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = ~a[i];
}

std::uint64_t popcount_words_scalar(const std::uint64_t* a, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(a[i]));
  }
  return total;
}

std::uint64_t hamming_words_scalar(const std::uint64_t* a,
                                   const std::uint64_t* b, std::size_t n) {
  std::uint64_t total = 0;
  std::size_t i = 0;
  // Modest unroll so the reference backend is not a strawman baseline.
  for (; i + 4 <= n; i += 4) {
    total += static_cast<std::uint64_t>(std::popcount(a[i] ^ b[i])) +
             static_cast<std::uint64_t>(std::popcount(a[i + 1] ^ b[i + 1])) +
             static_cast<std::uint64_t>(std::popcount(a[i + 2] ^ b[i + 2])) +
             static_cast<std::uint64_t>(std::popcount(a[i + 3] ^ b[i + 3]));
  }
  for (; i < n; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(a[i] ^ b[i]));
  }
  return total;
}

void hamming_block_scalar(const std::uint64_t* query,
                          const std::uint64_t* block, std::size_t words,
                          std::size_t count, std::size_t stride,
                          std::uint64_t* out) {
  for (std::size_t c = 0; c < count; ++c) out[c] = 0;
  // Word-outer order streams the interleaved block front to back: one query
  // word is broadcast against `count` consecutive prototype words.
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t q = query[w];
    const std::uint64_t* row = block + w * stride;
    for (std::size_t c = 0; c < count; ++c) {
      out[c] += static_cast<std::uint64_t>(std::popcount(q ^ row[c]));
    }
  }
}

void hamming_block_range_scalar(const std::uint64_t* query,
                                const std::uint64_t* block, std::size_t word_lo,
                                std::size_t word_hi, std::size_t count,
                                std::size_t stride, std::uint64_t* out) {
  hamming_block_scalar(query + word_lo, block + word_lo * stride,
                       word_hi - word_lo, count, stride, out);
}

void add_xor_weighted_scalar(const std::uint64_t* a, const std::uint64_t* b,
                             std::size_t dim, double weight, double* counts) {
  // XOR bits are near-uniform, so a conditional here would mispredict ~50% of
  // the time; the two-entry table keeps the loop branch-free.
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

std::size_t threshold_words_scalar(const double* counts, std::size_t dim,
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

void bundle_words_scalar(const std::uint64_t* const* a,
                         const std::uint64_t* const* b, const double* weights,
                         std::size_t slots, std::size_t word_lo,
                         std::size_t word_hi, std::uint64_t* out_words,
                         std::uint64_t* zero_masks) {
  for (std::size_t w = word_lo; w < word_hi; ++w) {
    double c[64] = {};
    for (std::size_t s = 0; s < slots; ++s) {
      const double sel[2] = {-weights[s], weights[s]};
      std::uint64_t x = a[s][w] ^ b[s][w];
      for (std::size_t bit = 0; bit < 64; ++bit, x >>= 1) {
        c[bit] += sel[x & 1ULL];
      }
    }
    std::uint64_t word = 0;
    std::uint64_t zeros = 0;
    for (std::size_t bit = 0; bit < 64; ++bit) {
      word |= static_cast<std::uint64_t>(c[bit] > 0.0) << bit;
      zeros |= static_cast<std::uint64_t>(c[bit] == 0.0) << bit;
    }
    out_words[w] = word;
    zero_masks[w] = zeros;
  }
}

std::uint64_t select_rotated_scalar(const SelectOperands& op,
                                    std::uint64_t* dst, std::size_t n) {
  // Word i of a view is words[(i + offset) % n]; null words read as zero.
  const auto word = [n](const WordView& v, std::size_t i) -> std::uint64_t {
    if (v.words == nullptr) return 0;
    const std::size_t k = i + v.offset;
    return v.words[k >= n ? k - n : k];
  };
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t p = word(op.p1, i) ^ word(op.p2, i) ^ op.p_flip;
    const std::uint64_t q = word(op.q1, i) ^ word(op.q2, i) ^ op.q_flip;
    const std::uint64_t out = q ^ ((p ^ q) & word(op.m, i));
    dst[i] = out;
    total += static_cast<std::uint64_t>(std::popcount(out));
  }
  return total;
}

// --- dispatch state ---------------------------------------------------------
// All mutable state lives in function-local statics (hdlint: mutable-global).

std::atomic<int>& forced_slot() {
  static std::atomic<int> slot{-1};
  return slot;
}

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool cpu_has_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0 &&
         __builtin_cpu_supports("avx512vpopcntdq") != 0;
#else
  return false;
#endif
}

bool backend_compiled(Backend b) {
  for (const KernelTable* t : compiled_tables()) {
    if (t->backend == b) return true;
  }
  return false;
}

// Startup choice: env override when set, else the best CPU-supported backend
// (later enum values are wider ISAs; NEON never coexists with AVX).
const KernelTable* choose_auto_table() {
  // getenv is only hazardous concurrent with setenv/putenv, which nothing
  // in this codebase calls; the result is latched once behind the caller's
  // function-local static.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("HDFACE_KERNEL_BACKEND")) {
    if (*env != '\0') {
      const std::optional<Backend> parsed = parse_backend(env);
      if (parsed.has_value()) return &table_for(*parsed);
    }
  }
  const KernelTable* best = &scalar_table();
  for (const KernelTable* t : compiled_tables()) {
    if (backend_supported(t->backend)) best = t;
  }
  return best;
}

const KernelTable& auto_table() {
  static const KernelTable* const chosen = choose_auto_table();
  return *chosen;
}

}  // namespace

const KernelTable& scalar_table() {
  static const KernelTable table = {
      Backend::kScalar,            &xor_words_scalar,
      &and_words_scalar,           &or_words_scalar,
      &not_words_scalar,           &popcount_words_scalar,
      &hamming_words_scalar,       &hamming_block_scalar,
      &hamming_block_range_scalar, &add_xor_weighted_scalar,
      &threshold_words_scalar,     &bundle_words_scalar,
      &select_rotated_scalar};
  return table;
}

std::span<const KernelTable* const> compiled_tables() {
  static const std::vector<const KernelTable*> tables = [] {
    std::vector<const KernelTable*> out;
    out.push_back(&scalar_table());
#if defined(HDFACE_KERNEL_AVX2)
    out.push_back(&detail::avx2_table());
#endif
#if defined(HDFACE_KERNEL_AVX512)
    out.push_back(&detail::avx512_table());
#endif
#if defined(HDFACE_KERNEL_NEON)
    out.push_back(&detail::neon_table());
#endif
    return out;
  }();
  return {tables.data(), tables.size()};
}

bool backend_supported(Backend b) {
  switch (b) {
    case Backend::kScalar: return true;
    case Backend::kAvx2: return backend_compiled(b) && cpu_has_avx2();
    case Backend::kAvx512: return backend_compiled(b) && cpu_has_avx512();
    // The NEON TU is only compiled on aarch64 builds, where Advanced SIMD is
    // part of the base ISA — compiled implies supported.
    case Backend::kNeon: return backend_compiled(b);
  }
  return false;
}

const KernelTable& table_for(Backend b) {
  if (!backend_supported(b)) {
    throw std::invalid_argument(
        "kernel backend '" + std::string(backend_name(b)) +
        "' is not available on this build/CPU");
  }
  for (const KernelTable* t : compiled_tables()) {
    if (t->backend == b) return *t;
  }
  throw std::invalid_argument("kernel backend '" +
                              std::string(backend_name(b)) +
                              "' is not compiled into this binary");
}

const KernelTable& active() {
  const int forced = forced_slot().load(std::memory_order_acquire);
  if (forced >= 0) return table_for(static_cast<Backend>(forced));
  return auto_table();
}

void force_backend(std::optional<Backend> b) {
  if (b.has_value()) {
    (void)table_for(*b);  // validate before publishing
    forced_slot().store(static_cast<int>(*b), std::memory_order_release);
  } else {
    forced_slot().store(-1, std::memory_order_release);
  }
}

std::optional<Backend> forced_backend() {
  const int forced = forced_slot().load(std::memory_order_acquire);
  if (forced < 0) return std::nullopt;
  return static_cast<Backend>(forced);
}

std::optional<Backend> parse_backend(std::string_view name) {
  if (name.empty() || name == "auto") return std::nullopt;
  if (name == "scalar") return Backend::kScalar;
  if (name == "avx2") return Backend::kAvx2;
  if (name == "avx512") return Backend::kAvx512;
  if (name == "neon") return Backend::kNeon;
  throw std::invalid_argument("unknown kernel backend '" + std::string(name) +
                              "' (expected scalar|avx2|avx512|neon|auto)");
}

}  // namespace hdface::core::kernels
