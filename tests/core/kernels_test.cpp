// Property suite for the runtime-dispatched kernel layer: every backend
// compiled into this binary (and supported by the running CPU) must be
// bit-identical to the scalar reference on random inputs, including
// dimensions not divisible by 64, word counts that misalign every vector
// width, and empty inputs. PrototypeBlock and the Accumulator/Hypervector
// rewiring are covered at the same level so a backend bug cannot hide
// behind the public wrappers.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/accumulator.hpp"
#include "core/hypervector.hpp"
#include "core/kernels/kernels.hpp"
#include "core/prototype_block.hpp"
#include "core/rng.hpp"

namespace kernels = hdface::core::kernels;
using hdface::core::Accumulator;
using hdface::core::Hypervector;
using hdface::core::OpCounter;
using hdface::core::OpKind;
using hdface::core::PrototypeBlock;
using hdface::core::Rng;

namespace {

std::vector<std::uint64_t> random_words(std::size_t n, Rng& rng) {
  std::vector<std::uint64_t> out(n);
  for (auto& w : out) w = rng.next();
  return out;
}

// Word counts that misalign every backend's vector width (AVX-512 is 8
// words, AVX2 is 4, NEON is 2), plus zero and a bulk size.
const std::size_t kWordCounts[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 160};

// Dimensions exercising every tail-remainder class mod 64 that matters,
// including dims smaller than one word and dims ≢ 0 (mod 64).
const std::size_t kDims[] = {1, 3, 63, 64, 65, 100, 127, 128, 129, 191, 2048, 2049};

std::vector<const kernels::KernelTable*> usable_backends() {
  std::vector<const kernels::KernelTable*> out;
  for (const kernels::KernelTable* t : kernels::compiled_tables()) {
    if (kernels::backend_supported(t->backend)) out.push_back(t);
  }
  return out;
}

}  // namespace

TEST(Kernels, ScalarTableIsAlwaysCompiledAndFirst) {
  const auto tables = kernels::compiled_tables();
  ASSERT_FALSE(tables.empty());
  EXPECT_EQ(tables.front()->backend, kernels::Backend::kScalar);
  EXPECT_TRUE(kernels::backend_supported(kernels::Backend::kScalar));
}

TEST(Kernels, ParseBackendRoundTripsAndRejectsUnknown) {
  EXPECT_EQ(kernels::parse_backend("scalar"), kernels::Backend::kScalar);
  EXPECT_EQ(kernels::parse_backend("avx2"), kernels::Backend::kAvx2);
  EXPECT_EQ(kernels::parse_backend("avx512"), kernels::Backend::kAvx512);
  EXPECT_EQ(kernels::parse_backend("neon"), kernels::Backend::kNeon);
  EXPECT_EQ(kernels::parse_backend("auto"), std::nullopt);
  EXPECT_EQ(kernels::parse_backend(""), std::nullopt);
  EXPECT_THROW((void)kernels::parse_backend("sse9"), std::invalid_argument);
}

TEST(Kernels, ForceBackendValidatesAndRestores) {
  kernels::ScopedBackend scoped(kernels::Backend::kScalar);
  EXPECT_EQ(kernels::forced_backend(), kernels::Backend::kScalar);
  EXPECT_EQ(kernels::active().backend, kernels::Backend::kScalar);
  if (!kernels::backend_supported(kernels::Backend::kNeon)) {
    EXPECT_THROW(kernels::force_backend(kernels::Backend::kNeon),
                 std::invalid_argument);
    // A failed force must not clobber the previous choice.
    EXPECT_EQ(kernels::forced_backend(), kernels::Backend::kScalar);
  }
}

TEST(Kernels, BulkLogicMatchesScalarOnAllBackends) {
  const kernels::KernelTable& ref = kernels::scalar_table();
  Rng rng(0xBEEF01);
  for (const kernels::KernelTable* t : usable_backends()) {
    for (const std::size_t n : kWordCounts) {
      const auto a = random_words(n, rng);
      const auto b = random_words(n, rng);
      std::vector<std::uint64_t> want(n), got(n);
      ref.xor_words(a.data(), b.data(), want.data(), n);
      t->xor_words(a.data(), b.data(), got.data(), n);
      EXPECT_EQ(want, got) << kernels::backend_name(t->backend) << " xor n=" << n;
      ref.and_words(a.data(), b.data(), want.data(), n);
      t->and_words(a.data(), b.data(), got.data(), n);
      EXPECT_EQ(want, got) << kernels::backend_name(t->backend) << " and n=" << n;
      ref.or_words(a.data(), b.data(), want.data(), n);
      t->or_words(a.data(), b.data(), got.data(), n);
      EXPECT_EQ(want, got) << kernels::backend_name(t->backend) << " or n=" << n;
      ref.not_words(a.data(), want.data(), n);
      t->not_words(a.data(), got.data(), n);
      EXPECT_EQ(want, got) << kernels::backend_name(t->backend) << " not n=" << n;
      // In-place (dst aliases a) must work: ^= uses it.
      auto inplace = a;
      t->xor_words(inplace.data(), b.data(), inplace.data(), n);
      ref.xor_words(a.data(), b.data(), want.data(), n);
      EXPECT_EQ(want, inplace)
          << kernels::backend_name(t->backend) << " xor-in-place n=" << n;
    }
  }
}

TEST(Kernels, PopcountAndHammingMatchScalarOnAllBackends) {
  const kernels::KernelTable& ref = kernels::scalar_table();
  Rng rng(0xBEEF02);
  for (const kernels::KernelTable* t : usable_backends()) {
    for (const std::size_t n : kWordCounts) {
      const auto a = random_words(n, rng);
      const auto b = random_words(n, rng);
      EXPECT_EQ(ref.popcount_words(a.data(), n), t->popcount_words(a.data(), n))
          << kernels::backend_name(t->backend) << " popcount n=" << n;
      EXPECT_EQ(ref.hamming_words(a.data(), b.data(), n),
                t->hamming_words(a.data(), b.data(), n))
          << kernels::backend_name(t->backend) << " hamming n=" << n;
    }
  }
}

TEST(Kernels, HammingBlockMatchesScalarOnAllBackends) {
  const kernels::KernelTable& ref = kernels::scalar_table();
  Rng rng(0xBEEF03);
  for (const kernels::KernelTable* t : usable_backends()) {
    for (const std::size_t words : {1u, 3u, 32u}) {
      for (const std::size_t count : {1u, 2u, 3u, 5u, 8u, 13u}) {
        const std::size_t stride = (count + 7) / 8 * 8;
        const auto query = random_words(words, rng);
        auto block = random_words(words * stride, rng);
        for (std::size_t w = 0; w < words; ++w) {  // zero the padding lanes
          for (std::size_t c = count; c < stride; ++c) block[w * stride + c] = 0;
        }
        std::vector<std::uint64_t> want(count), got(count);
        ref.hamming_block(query.data(), block.data(), words, count, stride,
                          want.data());
        t->hamming_block(query.data(), block.data(), words, count, stride,
                         got.data());
        EXPECT_EQ(want, got) << kernels::backend_name(t->backend) << " words="
                             << words << " count=" << count;
      }
    }
  }
}

TEST(Kernels, AddXorWeightedIsBitIdenticalAcrossBackends) {
  const kernels::KernelTable& ref = kernels::scalar_table();
  Rng rng(0xBEEF04);
  for (const kernels::KernelTable* t : usable_backends()) {
    for (const std::size_t dim : kDims) {
      const std::size_t nw = (dim + 63) / 64;
      const auto a = random_words(nw, rng);
      const auto b = random_words(nw, rng);
      // Accumulate several weighted rounds so rounding-order differences
      // (if a backend had any) would compound and surface.
      std::vector<double> want(dim, 0.0), got(dim, 0.0);
      for (const double w : {1.0, 0.37, -2.25, 1e-3}) {
        ref.add_xor_weighted(a.data(), b.data(), dim, w, want.data());
        t->add_xor_weighted(a.data(), b.data(), dim, w, got.data());
      }
      for (std::size_t i = 0; i < dim; ++i) {
        ASSERT_EQ(want[i], got[i])
            << kernels::backend_name(t->backend) << " dim=" << dim << " i=" << i;
      }
    }
  }
}

TEST(Kernels, ThresholdWordsMatchesScalarIncludingZeroCount) {
  const kernels::KernelTable& ref = kernels::scalar_table();
  Rng rng(0xBEEF05);
  for (const kernels::KernelTable* t : usable_backends()) {
    for (const std::size_t dim : kDims) {
      const std::size_t nw = (dim + 63) / 64;
      std::vector<double> counts(dim);
      for (auto& c : counts) {
        const std::uint64_t r = rng.below(5);
        c = r == 0 ? 0.0 : (r == 1 ? -1.5 : (r == 2 ? 2.0 : (r == 3 ? -0.25 : 0.75)));
      }
      std::vector<std::uint64_t> want(nw, 0), got(nw, 0);
      const std::size_t zw = ref.threshold_words(counts.data(), dim, want.data());
      const std::size_t zg = t->threshold_words(counts.data(), dim, got.data());
      EXPECT_EQ(zw, zg) << kernels::backend_name(t->backend) << " dim=" << dim;
      EXPECT_EQ(want, got) << kernels::backend_name(t->backend) << " dim=" << dim;
    }
  }
}

// --- select_rotated ----------------------------------------------------------

namespace {

// Word counts for the rotated select: multiples of every vector width (the
// whole-vector path, including n == the AVX-512 width) plus 9 and 17, which
// every SIMD backend hands to the scalar loop.
const std::size_t kRotatedWordCounts[] = {8, 16, 64, 9, 17};

// The definition select_rotated implements: word i of a view is
// words[(i + offset) % n], and null words read as zero.
std::uint64_t view_word(const kernels::WordView& v, std::size_t i,
                        std::size_t n) {
  return v.words == nullptr ? 0 : v.words[(i + v.offset) % n];
}

std::uint64_t select_by_definition(const kernels::SelectOperands& op,
                                   std::vector<std::uint64_t>& out,
                                   std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t p =
        view_word(op.p1, i, n) ^ view_word(op.p2, i, n) ^ op.p_flip;
    const std::uint64_t q =
        view_word(op.q1, i, n) ^ view_word(op.q2, i, n) ^ op.q_flip;
    const std::uint64_t m = view_word(op.m, i, n);
    out[i] = (p & m) | (q & ~m);
    total += static_cast<std::uint64_t>(std::popcount(out[i]));
  }
  return total;
}

}  // namespace

TEST(Kernels, SelectRotatedMatchesDefinitionOnAllBackends) {
  // Every view offset in [0, n) (each view walks the offsets at its own
  // stride, so every view meets every offset, straddling or not), both flip
  // values, and every p2/q2 presence, on every usable backend. The scalar
  // reference is itself checked against the % n definition.
  Rng rng(0xBEEF0A);
  for (const std::size_t n : kRotatedWordCounts) {
    const auto a = random_words(n, rng);
    const auto b = random_words(n, rng);
    const auto c = random_words(n, rng);
    const auto d = random_words(n, rng);
    const auto e = random_words(n, rng);
    for (const kernels::KernelTable* t : usable_backends()) {
      for (std::size_t k = 0; k < n; ++k) {
        for (const std::uint64_t flip : {0ULL, ~0ULL}) {
          for (std::size_t presence = 0; presence < 4; ++presence) {
            const kernels::SelectOperands op{
                .p1 = {a.data(), (k * 5 + 1) % n},
                .p2 = {presence & 1 ? b.data() : nullptr, (k * 3 + 2) % n},
                .p_flip = flip,
                .q1 = {c.data(), (k * 7 + 3) % n},
                .q2 = {presence & 2 ? d.data() : nullptr, k},
                .q_flip = ~flip,
                .m = {e.data(), (n - k) % n}};
            std::vector<std::uint64_t> want(n), got(n);
            const std::uint64_t pw = select_by_definition(op, want, n);
            const std::uint64_t pg = t->select_rotated(op, got.data(), n);
            EXPECT_EQ(pw, pg) << kernels::backend_name(t->backend) << " n=" << n
                              << " k=" << k << " presence=" << presence;
            EXPECT_EQ(want, got) << kernels::backend_name(t->backend)
                                 << " n=" << n << " k=" << k
                                 << " presence=" << presence;
          }
        }
      }
    }
  }
}

TEST(Kernels, SelectRotatedDstMayAliasAnUnrotatedOperand) {
  // The cell chain's bin-mean update writes into its own unrotated p1.
  Rng rng(0xBEEF0B);
  for (const std::size_t n : kRotatedWordCounts) {
    const auto mean = random_words(n, rng);
    const auto mid = random_words(n, rng);
    const auto mask = random_words(n, rng);
    for (const kernels::KernelTable* t : usable_backends()) {
      for (std::size_t k = 0; k < n; ++k) {
        const kernels::SelectOperands expect_op{
            .p1 = {mean.data()}, .q1 = {mid.data(), k},
            .m = {mask.data(), (k * 3 + 1) % n}};
        std::vector<std::uint64_t> want(n);
        const std::uint64_t pw = select_by_definition(expect_op, want, n);
        auto inplace = mean;
        kernels::SelectOperands op = expect_op;
        op.p1.words = inplace.data();
        const std::uint64_t pg = t->select_rotated(op, inplace.data(), n);
        EXPECT_EQ(pw, pg) << kernels::backend_name(t->backend) << " n=" << n
                          << " k=" << k;
        EXPECT_EQ(want, inplace) << kernels::backend_name(t->backend)
                                 << " n=" << n << " k=" << k;
      }
    }
  }
}

// --- bundle_words ------------------------------------------------------------

namespace {

// Oracle for bundle_words: add_xor_weighted per slot into zeroed counters,
// then threshold_words, with the zero mask read off the counters (the path
// every bundle took before the blocked kernel).
void bundle_by_add_xor(const std::vector<std::vector<std::uint64_t>>& a,
                       const std::vector<std::vector<std::uint64_t>>& b,
                       const std::vector<double>& weights, std::size_t words,
                       std::vector<std::uint64_t>& out,
                       std::vector<std::uint64_t>& zero_masks) {
  const kernels::KernelTable& ref = kernels::scalar_table();
  const std::size_t dim = words * 64;
  std::vector<double> counts(dim, 0.0);
  for (std::size_t s = 0; s < weights.size(); ++s) {
    ref.add_xor_weighted(a[s].data(), b[s].data(), dim, weights[s],
                         counts.data());
  }
  out.assign(words, 0);
  (void)ref.threshold_words(counts.data(), dim, out.data());
  zero_masks.assign(words, 0);
  for (std::size_t i = 0; i < dim; ++i) {
    if (counts[i] == 0.0) zero_masks[i / 64] |= 1ULL << (i % 64);
  }
}

}  // namespace

TEST(Kernels, BundleWordsMatchesAddXorWeightedThresholdOnAllBackends) {
  // 0, 1 and many slots, with and without exact-zero ties, over sub-ranges.
  Rng rng(0xBEEF0C);
  const std::size_t words = 9;
  for (const std::size_t slots : {0u, 1u, 2u, 6u, 33u, 40u}) {
    std::vector<std::vector<std::uint64_t>> a(slots), b(slots);
    std::vector<double> weights(slots);
    for (std::size_t s = 0; s < slots; ++s) {
      a[s] = random_words(words, rng);
      b[s] = random_words(words, rng);
      weights[s] = 0.02 + static_cast<double>(rng.below(1000)) / 997.0;
    }
    // Slot s votes against slot s − 1 (same weight) on the dimensions set in
    // `bits`, returning those counters from +0.0 to exactly +0.0.
    const auto cancel = [&](std::size_t s, std::uint64_t bits) {
      for (std::size_t w = 0; w < words; ++w) {
        a[s][w] = a[s - 1][w] ^ b[s - 1][w] ^ bits ^ b[s][w];
      }
      weights[s] = weights[s - 1];
    };
    if (slots == 2 || slots == 40) {
      for (std::size_t s = 1; s < slots; s += 2) cancel(s, ~0ULL);  // all ties
    }
    if (slots == 6) {  // ties on the low half of every word only
      cancel(1, ~0ULL);
      cancel(3, 0xFFFFFFFFULL);
      a[5] = a[4];
      b[5] = b[4];
      weights[5] = -weights[4];
    }
    std::vector<const std::uint64_t*> ap(slots), bp(slots);
    for (std::size_t s = 0; s < slots; ++s) {
      ap[s] = a[s].data();
      bp[s] = b[s].data();
    }
    std::vector<std::uint64_t> want, want_zeros;
    bundle_by_add_xor(a, b, weights, words, want, want_zeros);
    if (slots == 0 || slots == 2 || slots == 40) {
      ASSERT_EQ(want_zeros, std::vector<std::uint64_t>(words, ~0ULL));
    }
    if (slots == 6) {
      ASSERT_EQ(want_zeros, std::vector<std::uint64_t>(words, 0xFFFFFFFFULL));
    }
    for (const kernels::KernelTable* t : usable_backends()) {
      for (const auto& [lo, hi] : {std::pair<std::size_t, std::size_t>{0, words},
                                   {0, 1}, {3, 4}, {2, 7}, {8, 9}}) {
        std::vector<std::uint64_t> got(words, 0xDEAD), zeros(words, 0xBEEF);
        t->bundle_words(ap.data(), bp.data(), weights.data(), slots, lo, hi,
                        got.data(), zeros.data());
        for (std::size_t w = 0; w < words; ++w) {
          const bool in = w >= lo && w < hi;
          EXPECT_EQ(in ? want[w] : 0xDEAD, got[w])
              << kernels::backend_name(t->backend) << " slots=" << slots
              << " range=[" << lo << "," << hi << ") w=" << w;
          EXPECT_EQ(in ? want_zeros[w] : 0xBEEF, zeros[w])
              << kernels::backend_name(t->backend) << " slots=" << slots
              << " range=[" << lo << "," << hi << ") w=" << w << " (zeros)";
        }
      }
    }
  }
}

TEST(Kernels, HypervectorOpsIdenticalUnderEveryBackend) {
  // Drive the public wrappers (popcount, operators, hamming, threshold) with
  // each backend forced in turn; results must match the scalar-forced run.
  for (const std::size_t dim : {65u, 100u, 2048u}) {
    std::vector<Hypervector> per_backend_xor, per_backend_thr;
    std::vector<std::size_t> per_backend_pop, per_backend_ham;
    for (const kernels::KernelTable* t : usable_backends()) {
      kernels::ScopedBackend scoped(t->backend);
      Rng rng(0xBEEF06);
      const auto a = Hypervector::random(dim, rng);
      const auto b = Hypervector::random(dim, rng);
      per_backend_pop.push_back(a.popcount());
      per_backend_ham.push_back(hamming(a, b));
      per_backend_xor.push_back((a ^ b) | (~a & b));
      Accumulator acc(dim);
      acc.add_xor(a, b, 0.7);
      acc.add_xor(b, a, -1.3);
      Rng tie(0x7E7E);
      per_backend_thr.push_back(acc.threshold(tie));
    }
    for (std::size_t i = 1; i < per_backend_pop.size(); ++i) {
      EXPECT_EQ(per_backend_pop[0], per_backend_pop[i]) << "dim=" << dim;
      EXPECT_EQ(per_backend_ham[0], per_backend_ham[i]) << "dim=" << dim;
      EXPECT_EQ(per_backend_xor[0], per_backend_xor[i]) << "dim=" << dim;
      EXPECT_EQ(per_backend_thr[0], per_backend_thr[i]) << "dim=" << dim;
    }
  }
}

TEST(Kernels, ThresholdTieBreakRngStreamIsBackendInvariant) {
  // All-zero counts: every dimension draws the tie RNG; streams must align.
  const std::size_t dim = 130;  // ≢ 0 (mod 64)
  std::vector<Hypervector> results;
  for (const kernels::KernelTable* t : usable_backends()) {
    kernels::ScopedBackend scoped(t->backend);
    Accumulator acc(dim);
    Rng tie(0x11E5);
    results.push_back(acc.threshold(tie));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0], results[i]);
  }
}

TEST(PrototypeBlock, MatchesPerPrototypeHammingAndChargesIdentically) {
  Rng rng(0xB10C);
  for (const std::size_t dim : {63u, 128u, 300u}) {
    for (const std::size_t count : {1u, 2u, 7u, 9u}) {
      std::vector<Hypervector> protos;
      for (std::size_t c = 0; c < count; ++c) {
        protos.push_back(Hypervector::random(dim, rng));
      }
      const auto query = Hypervector::random(dim, rng);
      const PrototypeBlock block{std::span<const Hypervector>(protos)};
      EXPECT_EQ(block.count(), count);
      EXPECT_EQ(block.dim(), dim);
      EXPECT_EQ(block.stride() % 8, 0u);
      for (std::size_t c = 0; c < count; ++c) {
        EXPECT_EQ(block.get(c), protos[c]) << "c=" << c;
      }
      OpCounter aos_counter, soa_counter;
      const auto aos = hamming_many(
          query, std::span<const Hypervector>(protos), &aos_counter);
      const auto soa = block.hamming_many(query, &soa_counter);
      EXPECT_EQ(aos, soa) << "dim=" << dim << " count=" << count;
      // SoA padding lanes must not change what gets charged.
      EXPECT_EQ(aos_counter.get(OpKind::kWordLogic),
                soa_counter.get(OpKind::kWordLogic));
      EXPECT_EQ(aos_counter.get(OpKind::kPopcount),
                soa_counter.get(OpKind::kPopcount));
    }
  }
}

TEST(PrototypeBlock, BackendInvariantResults) {
  Rng rng(0xB10C2);
  std::vector<Hypervector> protos;
  for (std::size_t c = 0; c < 5; ++c) {
    protos.push_back(Hypervector::random(1000, rng));
  }
  const auto query = Hypervector::random(1000, rng);
  const PrototypeBlock block{std::span<const Hypervector>(protos)};
  std::vector<std::vector<std::size_t>> results;
  for (const kernels::KernelTable* t : usable_backends()) {
    kernels::ScopedBackend scoped(t->backend);
    results.push_back(block.hamming_many(query));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0], results[i]);
  }
}

TEST(PrototypeBlock, HammingManyRangeMatchesScalarOnAllBackends) {
  // The cascade's prefix distances: random [lo, hi) word ranges of random
  // blocks (dims off the word boundary, lane counts off the vector width),
  // every usable backend against the scalar backend's result.
  Rng rng(0xBEEF07);
  for (const std::size_t dim : {64u, 191u, 1088u, 2048u}) {
    for (const std::size_t count : {1u, 2u, 5u, 13u}) {
      std::vector<Hypervector> protos;
      for (std::size_t c = 0; c < count; ++c) {
        protos.push_back(Hypervector::random(dim, rng));
      }
      const PrototypeBlock block{std::span<const Hypervector>(protos)};
      const auto query = Hypervector::random(dim, rng);
      const std::size_t words = block.words();
      for (std::size_t trial = 0; trial < 8; ++trial) {
        const std::size_t lo = rng.below(words);
        const std::size_t hi = lo + 1 + rng.below(words - lo);
        std::vector<std::size_t> want(count);
        {
          kernels::ScopedBackend scalar(kernels::Backend::kScalar);
          block.hamming_many_range(query, lo, hi, want);
        }
        for (const kernels::KernelTable* t : usable_backends()) {
          kernels::ScopedBackend scoped(t->backend);
          std::vector<std::size_t> got(count);
          block.hamming_many_range(query, lo, hi, got);
          EXPECT_EQ(want, got)
              << kernels::backend_name(t->backend) << " dim=" << dim
              << " count=" << count << " range=[" << lo << "," << hi << ")";
        }
      }
    }
  }
}

TEST(PrototypeBlock, HammingManyRangeTilesToHammingMany) {
  // An uneven ascending tiling of [0, words) sums, per lane, to exactly
  // hamming_many's distances and charges exactly its op totals — the
  // identity the cascade's running prefix distances rely on.
  Rng rng(0xBEEF08);
  std::vector<Hypervector> protos;
  for (std::size_t c = 0; c < 7; ++c) {
    protos.push_back(Hypervector::random(2000, rng));
  }
  const PrototypeBlock block{std::span<const Hypervector>(protos)};
  const auto query = Hypervector::random(2000, rng);
  const std::size_t words = block.words();  // 32
  for (const kernels::KernelTable* t : usable_backends()) {
    kernels::ScopedBackend scoped(t->backend);
    OpCounter full_ops, tiled_ops;
    const auto full = block.hamming_many(query, &full_ops);
    const std::size_t cuts[] = {0, 2, 3, 11, words};
    std::vector<std::size_t> sum(block.count(), 0), part(block.count());
    for (std::size_t s = 0; s + 1 < std::size(cuts); ++s) {
      block.hamming_many_range(query, cuts[s], cuts[s + 1], part, &tiled_ops);
      for (std::size_t c = 0; c < sum.size(); ++c) sum[c] += part[c];
    }
    EXPECT_EQ(sum, full) << kernels::backend_name(t->backend);
    for (const auto kind : {OpKind::kWordLogic, OpKind::kPopcount}) {
      EXPECT_EQ(full_ops.get(kind), tiled_ops.get(kind))
          << kernels::backend_name(t->backend) << " "
          << hdface::core::op_kind_name(kind);
    }
    EXPECT_EQ(full_ops.total(), tiled_ops.total())
        << kernels::backend_name(t->backend);
  }
}

TEST(PrototypeBlock, CopyAndMoveKeepAlignmentAndPayload) {
  Rng rng(0xB10C3);
  std::vector<Hypervector> protos;
  for (std::size_t c = 0; c < 3; ++c) {
    protos.push_back(Hypervector::random(200, rng));
  }
  const auto query = Hypervector::random(200, rng);
  PrototypeBlock block{std::span<const Hypervector>(protos)};
  const auto want = block.hamming_many(query);

  PrototypeBlock copy = block;
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(copy.data()) % 64, 0u);  // hdlint: allow(reinterpret-cast) — alignment assertion only
  EXPECT_EQ(copy.hamming_many(query), want);

  PrototypeBlock moved = std::move(block);
  EXPECT_EQ(moved.hamming_many(query), want);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(moved.data()) % 64, 0u);  // hdlint: allow(reinterpret-cast) — alignment assertion only

  PrototypeBlock assigned;
  assigned = copy;
  EXPECT_EQ(assigned.hamming_many(query), want);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.hamming_many(query), want);
}

TEST(PrototypeBlock, EmptyAndMismatchBehaviour) {
  const PrototypeBlock empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.data(), nullptr);
  Rng rng(0xB10C4);
  const auto q = Hypervector::random(64, rng);
  EXPECT_TRUE(empty.hamming_many(q).empty());

  std::vector<Hypervector> mixed = {Hypervector(64), Hypervector(65)};
  EXPECT_THROW((PrototypeBlock{std::span<const Hypervector>(mixed)}),
               std::invalid_argument);

  std::vector<Hypervector> protos = {Hypervector(64)};
  const PrototypeBlock block{std::span<const Hypervector>(protos)};
  const auto wrong_dim = Hypervector(65);
  EXPECT_THROW((void)block.hamming_many(wrong_dim), std::invalid_argument);
  std::vector<std::size_t> bad_out(2);
  EXPECT_THROW(block.hamming_many(q, bad_out), std::invalid_argument);
}
