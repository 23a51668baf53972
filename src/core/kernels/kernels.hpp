#pragma once

// Runtime-dispatched SIMD kernels for the packed-word hot loops.
//
// Every arithmetic primitive of the paper (§4) bottoms out in the same
// 64-bit-word loops — XOR+popcount similarity, weighted bundling, majority
// finalize — and after the cell-plane encode cache those loops *are* the
// runtime. This layer factors them into a table of free functions over raw
// word arrays with one reference implementation (scalar) plus optional
// SIMD backends (AVX2, AVX-512, NEON) compiled into their own translation
// units with the matching target flags and selected once at startup by a
// CPU feature probe.
//
// Contract — every backend is BIT-IDENTICAL to the scalar reference:
//   * integer kernels (popcount, hamming, bulk logic, select_rotated) are
//     trivially exact; select_rotated's rotated reads are address offsets
//     (word i of a view is words[(i + offset) % n]), never a reordering of
//     the arithmetic;
//   * add_xor_weighted adds exactly ±weight per dimension (an IEEE sign
//     flip is exact, and each counter sees one rounded add — the same
//     single rounding the scalar loop performs);
//   * bundle_words performs the same adds in the same order as
//     add_xor_weighted called once per slot on a zeroed counter (+0.0 then
//     ±weight per slot, slot order), only with the counters held in
//     registers, and thresholds them with the same compares;
//   * threshold_words and bundle_words only compare against zero (exact)
//     and leave the tie-breaking RNG draws to the caller so the draw order
//     is the scalar order (ascending dimension, zeros only).
// The op-counter charges are caller-side (hamming_many, Accumulator) and
// depend only on word/dimension counts, so switching backends never changes
// an op total either. This is what lets the determinism suites, the
// fault-injection goldens, and the scalar-vs-SIMD CI hash diff treat the
// backend as a pure performance knob. All kernels preserve the
// tail-word-zero invariant: they never read or write bits at or beyond
// `dim` other than as stored (callers keep tail bits zero).
//
// Selection order: HDFACE_KERNEL_BACKEND environment variable (scalar |
// avx2 | avx512 | neon | auto) when set, otherwise the best backend the
// CPU supports. Tests and benches can force any compiled backend for the
// current process via force_backend()/ScopedBackend.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "core/kernels/backend.hpp"

namespace hdface::core::kernels {

// A read-only view of n packed words read through a word rotation: word i
// of the view is words[(i + offset) % n], offset < n. A pooled Bernoulli
// mask is stored unrotated and drawn as such a view (the rotation is an
// address offset, never a copy); a plain array is a view with offset 0.
struct WordView {
  const std::uint64_t* words = nullptr;
  std::size_t offset = 0;
};

// Operands of select_rotated: two XOR pairs with constant flips and the
// selecting mask. A view with null words reads as zero (p2 and q2 only).
struct SelectOperands {
  WordView p1 = {};
  WordView p2 = {};
  std::uint64_t p_flip = 0;
  WordView q1 = {};
  WordView q2 = {};
  std::uint64_t q_flip = 0;
  WordView m = {};
};

// Kernel table: raw packed-word primitives. `n` is always a word count; all
// pointers may be unaligned to vector width (backends use unaligned loads)
// but must not alias across input/output except where noted.
struct KernelTable {
  Backend backend = Backend::kScalar;

  // dst[i] = a[i] OP b[i] for i < n. dst may alias a and/or b.
  void (*xor_words)(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* dst, std::size_t n);
  void (*and_words)(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* dst, std::size_t n);
  void (*or_words)(const std::uint64_t* a, const std::uint64_t* b,
                   std::uint64_t* dst, std::size_t n);
  // dst[i] = ~a[i] for i < n (caller re-imposes the tail mask). dst may
  // alias a.
  void (*not_words)(const std::uint64_t* a, std::uint64_t* dst, std::size_t n);

  // Σ popcount(a[i]) for i < n.
  std::uint64_t (*popcount_words)(const std::uint64_t* a, std::size_t n);

  // Σ popcount(a[i] ^ b[i]) for i < n.
  std::uint64_t (*hamming_words)(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t n);

  // SoA multi-prototype Hamming over a word-interleaved block (see
  // core::PrototypeBlock): out[c] = Σ_w popcount(query[w] ^
  // block[w * stride + c]) for c < count. stride ≥ count; the padding lanes
  // c ∈ [count, stride) may be read (they hold zeros) but are never written
  // to out.
  void (*hamming_block)(const std::uint64_t* query, const std::uint64_t* block,
                        std::size_t words, std::size_t count,
                        std::size_t stride, std::uint64_t* out);

  // Word-range (prefix) variant of hamming_block for the early-reject
  // cascade: out[c] = Σ_{w ∈ [word_lo, word_hi)} popcount(query[w] ^
  // block[w * stride + c]). `query` and `block` are the FULL vectors (the
  // kernel applies the word offset itself), so tiling [0, words) into
  // consecutive ranges sums to exactly the hamming_block result per lane.
  // Every backend delegates to its own hamming_block on offset pointers, so
  // range results are bit-identical to scalar by the same argument as the
  // full kernel. Requires word_lo ≤ word_hi ≤ words of the block.
  void (*hamming_block_range)(const std::uint64_t* query,
                              const std::uint64_t* block, std::size_t word_lo,
                              std::size_t word_hi, std::size_t count,
                              std::size_t stride, std::uint64_t* out);

  // Weighted-bundling hot loop: counts[i] += (bit i of a^b) ? +weight
  // : -weight for i < dim (the Accumulator::add_xor branchless ±weight
  // select). a and b hold ceil(dim/64) words; tail bits past dim are
  // ignored.
  void (*add_xor_weighted)(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t dim, double weight, double* counts);

  // Majority-threshold finalize: bit i of out_words = counts[i] > 0 for
  // i < dim; bits at/past dim stay untouched (caller provides zeroed words).
  // Returns the number of exact zeros so the caller can run the (rare)
  // scalar tie-break pass with its RNG in ascending-dimension order.
  std::size_t (*threshold_words)(const double* counts, std::size_t dim,
                                 std::uint64_t* out_words);

  // Register-blocked weighted bundle (the window-assembly hot loop): for
  // each word w in [word_lo, word_hi) and each of its 64 dimensions d,
  //   count_d = Σ_s (bit d of a[s][w] ^ b[s][w] ? +weights[s] : −weights[s])
  // summed in slot order s = 0..slots−1 starting from +0.0, exactly the adds
  // add_xor_weighted performs per slot. Writes out_words[w] = the bits with
  // count_d > 0 and zero_masks[w] = the bits with count_d == 0, so the
  // caller runs the tie-break draws from the masks in ascending dimension
  // order. a[s] and b[s] are full vectors (the kernel applies w); bits past
  // a caller's dim come out as computed from the stored (zero) tail bits, so
  // the caller masks them.
  void (*bundle_words)(const std::uint64_t* const* a,
                       const std::uint64_t* const* b, const double* weights,
                       std::size_t slots, std::size_t word_lo,
                       std::size_t word_hi, std::uint64_t* out_words,
                       std::uint64_t* zero_masks);

  // Fused select over rotated views (the batched cell encoder's one word
  // kernel): for i < n
  //   out[i] = m[i] ? (p1[i] ^ p2[i] ^ p_flip) : (q1[i] ^ q2[i] ^ q_flip)
  // bitwise, every operand read through its rotation. Writes out to dst and
  // returns Σ popcount(out[i]). dst may alias an operand whose offset is 0
  // (each word is read before it is written), never a rotated one. SIMD
  // backends run whole vectors when n is a multiple of their width — only
  // the one vector of a view that straddles its wrap is assembled specially
  // — and the scalar loop otherwise.
  std::uint64_t (*select_rotated)(const SelectOperands& op, std::uint64_t* dst,
                                  std::size_t n);
};

// The reference backend (always compiled).
const KernelTable& scalar_table();

// Every backend compiled into this binary, scalar first. A compiled backend
// may still be unsupported by the running CPU — check backend_supported().
std::span<const KernelTable* const> compiled_tables();

// True when the running CPU can execute the given backend's instructions
// (scalar is always true; a backend that was not compiled in is false).
bool backend_supported(Backend b);

// Table for one backend; throws std::invalid_argument when the backend is
// not compiled in or not supported by this CPU.
const KernelTable& table_for(Backend b);

// The active table: the forced backend if one is set, else the startup
// choice (HDFACE_KERNEL_BACKEND env override, falling back to the best
// CPU-supported backend). The first call performs the probe; an invalid or
// unsupported env value throws std::invalid_argument then.
const KernelTable& active();

// Force a backend for the whole process (nullopt returns to the automatic
// choice). Throws like table_for on an unusable backend. Not synchronized
// with in-flight kernel calls: set it only while no detector/encoder work
// is running (tests, bench setup).
void force_backend(std::optional<Backend> b);

// Currently forced backend, if any.
std::optional<Backend> forced_backend();

// Parse a backend name ("scalar", "avx2", "avx512", "neon"; exact,
// lowercase). Returns nullopt for "auto" or empty; throws
// std::invalid_argument on anything else.
std::optional<Backend> parse_backend(std::string_view name);

// RAII force/restore for tests and benches.
class ScopedBackend {
 public:
  explicit ScopedBackend(std::optional<Backend> b) : prev_(forced_backend()) {
    if (b.has_value()) force_backend(b);
  }
  ~ScopedBackend() { force_backend(prev_); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  std::optional<Backend> prev_;
};

}  // namespace hdface::core::kernels
