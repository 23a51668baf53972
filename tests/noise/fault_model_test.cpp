#include "noise/fault_model.hpp"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "noise/bit_flip.hpp"

namespace hdface::noise {
namespace {

constexpr std::size_t kDim = 65536;

core::Hypervector random_vector(std::uint64_t seed, std::size_t dim = kDim) {
  core::Rng rng(seed);
  return core::Hypervector::random(dim, rng);
}

double disturbed_fraction(const core::Hypervector& clean,
                          const core::Hypervector& faulted) {
  return static_cast<double>(core::hamming(clean, faulted)) /
         static_cast<double>(clean.dim());
}

// ---- statistical signatures -------------------------------------------------

// gtest names each case by dumping its bytes. `zero` fills what would be the
// padding between `kind` and `rate`: padding bytes are indeterminate, and
// they made the case names change from one listing of the same binary to the
// next.
struct KindCase {
  KindCase(FaultKind k, double r) : kind(k), rate(r) {}
  FaultKind kind;
  std::uint32_t zero = 0;
  double rate;
};
static_assert(sizeof(KindCase) ==
              sizeof(FaultKind) + sizeof(std::uint32_t) + sizeof(double));

class FaultMaskSignature : public ::testing::TestWithParam<KindCase> {};

TEST_P(FaultMaskSignature, DisturbedFractionWithinBinomialBounds) {
  const FaultKind kind = GetParam().kind;
  const double rate = GetParam().rate;
  const FaultModel model{kind, rate};
  const auto v = random_vector(0xBEEF);
  core::Rng rng(0xF001);
  const auto faulted = sample_fault_mask(model, kDim, rng).applied(v);

  const double p = expected_disturbed_fraction(model);
  // Word bursts disturb in 64-bit blocks, so the effective trial count is the
  // word count, not the bit count; stuck-at compounds two Bernoulli draws
  // (selection and the stored bit) but the variance bound p(1-p)/n still
  // holds per bit.
  const double n = kind == FaultKind::kWordBurst
                       ? static_cast<double>(kDim) / 64.0
                       : static_cast<double>(kDim);
  const double sigma = std::sqrt(p * (1.0 - p) / n);
  EXPECT_NEAR(disturbed_fraction(v, faulted), p, 5.0 * sigma + 1e-12)
      << fault_kind_name(kind) << " rate " << rate;
}

TEST_P(FaultMaskSignature, SimilarityMatchesExpectation) {
  const FaultKind kind = GetParam().kind;
  const double rate = GetParam().rate;
  const FaultModel model{kind, rate};
  const auto v = random_vector(0xCAFE);
  core::Rng rng(0xF002);
  const auto faulted = sample_fault_mask(model, kDim, rng).applied(v);
  const double p = expected_disturbed_fraction(model);
  const double n = kind == FaultKind::kWordBurst
                       ? static_cast<double>(kDim) / 64.0
                       : static_cast<double>(kDim);
  // δ = 1 − 2·fraction, so its deviation is twice the fraction's.
  const double sigma = 2.0 * std::sqrt(p * (1.0 - p) / n);
  EXPECT_NEAR(core::similarity(v, faulted),
              expected_similarity_after_fault(model), 5.0 * sigma + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, FaultMaskSignature,
    ::testing::Values(KindCase{FaultKind::kTransientFlip, 0.02},
                      KindCase{FaultKind::kTransientFlip, 0.10},
                      KindCase{FaultKind::kStuckAtZero, 0.10},
                      KindCase{FaultKind::kStuckAtOne, 0.10},
                      KindCase{FaultKind::kWordBurst, 0.10},
                      KindCase{FaultKind::kStuckAtZero, 0.30},
                      KindCase{FaultKind::kWordBurst, 0.30}));

// ---- algebraic properties ---------------------------------------------------

TEST(FaultMask, ZeroRateIsIdentityForEveryKind) {
  const auto v = random_vector(1, 4096);
  for (const auto kind :
       {FaultKind::kTransientFlip, FaultKind::kStuckAtZero,
        FaultKind::kStuckAtOne, FaultKind::kWordBurst}) {
    core::Rng rng(2);
    EXPECT_EQ(sample_fault_mask({kind, 0.0}, 4096, rng).applied(v), v);
  }
}

TEST(FaultMask, StuckAtFaultsAreIdempotent) {
  // A stuck cell reads the stuck value no matter how often the fault
  // "re-applies" — the mask algebra must share that fixed point.
  const auto v = random_vector(3, 8192);
  for (const auto kind : {FaultKind::kStuckAtZero, FaultKind::kStuckAtOne}) {
    core::Rng rng(4);
    const auto mask = sample_fault_mask({kind, 0.25}, 8192, rng);
    const auto once = mask.applied(v);
    EXPECT_EQ(mask.applied(once), once) << fault_kind_name(kind);
  }
}

TEST(FaultMask, FlipKindsAreSelfInverse) {
  const auto v = random_vector(5, 8192);
  for (const auto kind : {FaultKind::kTransientFlip, FaultKind::kWordBurst}) {
    core::Rng rng(6);
    const auto mask = sample_fault_mask({kind, 0.25}, 8192, rng);
    EXPECT_EQ(mask.applied(mask.applied(v)), v) << fault_kind_name(kind);
  }
}

TEST(FaultMask, StuckValuesActuallyStick) {
  const auto v = random_vector(7, 8192);
  core::Rng rng(8);
  const auto stuck0 = sample_fault_mask({FaultKind::kStuckAtZero, 0.3}, 8192, rng);
  auto faulted = stuck0.applied(v);
  EXPECT_EQ(faulted & stuck0.clear, core::Hypervector(8192));
  const auto stuck1 = sample_fault_mask({FaultKind::kStuckAtOne, 0.3}, 8192, rng);
  faulted = stuck1.applied(v);
  EXPECT_EQ(faulted & stuck1.set, stuck1.set);
}

TEST(FaultMask, WordBurstFailsWholeWords) {
  core::Rng rng(9);
  const auto mask = sample_fault_mask({FaultKind::kWordBurst, 0.3}, 4096, rng);
  for (const std::uint64_t w : mask.flip.words()) {
    EXPECT_TRUE(w == 0 || w == ~0ULL);
  }
  EXPECT_GT(mask.flip.popcount(), 0u);  // rate 0.3 over 64 words
}

TEST(FaultMask, TailBitsNeverLeak) {
  // dim 100 leaves 28 dead bits in the tail word; a full-rate stuck-at-one
  // fault must set exactly the 100 live bits and nothing more, and a burst
  // pattern's tail word must be pre-masked.
  const std::size_t dim = 100;
  auto v = random_vector(10, dim);
  core::Rng rng(11);
  const auto mask = sample_fault_mask({FaultKind::kStuckAtOne, 1.0}, dim, rng);
  mask.apply(v);
  EXPECT_EQ(v.popcount(), dim);
  core::Rng rng2(12);
  const auto burst = sample_fault_mask({FaultKind::kWordBurst, 1.0}, dim, rng2);
  EXPECT_EQ(burst.flip.popcount(), dim);
}

TEST(FaultMask, Validates) {
  core::Rng rng(13);
  EXPECT_THROW(sample_fault_mask({FaultKind::kTransientFlip, 0.5}, 0, rng),
               std::invalid_argument);
  EXPECT_THROW(sample_fault_mask({FaultKind::kTransientFlip, -0.1}, 64, rng),
               std::invalid_argument);
  EXPECT_THROW(sample_fault_mask({FaultKind::kTransientFlip, 1.5}, 64, rng),
               std::invalid_argument);
  // A NaN rate would compare false against every draw and inject nothing.
  EXPECT_THROW(
      sample_fault_mask({FaultKind::kTransientFlip, std::nan("")}, 64, rng),
      std::invalid_argument);
}

// ---- plan targets -----------------------------------------------------------

TEST(FaultPlan, TargetsStoredMemoryIffAStoredFlagIsSet) {
  struct Case {
    bool item_memory;
    bool prototypes;
    bool queries;
    bool expected;
  };
  const Case cases[] = {
      {false, false, false, false}, {false, false, true, false},
      {true, false, false, true},   {true, false, true, true},
      {false, true, false, true},   {false, true, true, true},
      {true, true, false, true},    {true, true, true, true},
  };
  for (const Case& c : cases) {
    FaultPlan plan;
    plan.item_memory = c.item_memory;
    plan.prototypes = c.prototypes;
    plan.queries = c.queries;
    EXPECT_EQ(plan.targets_stored_memory(), c.expected)
        << "item_memory " << c.item_memory << " prototypes " << c.prototypes
        << " queries " << c.queries;
  }
}

// ---- seed schedule ----------------------------------------------------------

TEST(FaultSeedSchedule, PureFunctionOfIdentity) {
  EXPECT_EQ(fault_seed(1, FaultTarget::kItemMemory, 7),
            fault_seed(1, FaultTarget::kItemMemory, 7));
  EXPECT_NE(fault_seed(1, FaultTarget::kItemMemory, 7),
            fault_seed(1, FaultTarget::kHistogramMemory, 7));
  EXPECT_NE(fault_seed(1, FaultTarget::kItemMemory, 7),
            fault_seed(1, FaultTarget::kItemMemory, 8));
  EXPECT_NE(fault_seed(1, FaultTarget::kItemMemory, 7),
            fault_seed(2, FaultTarget::kItemMemory, 7));
}

TEST(FaultSeedSchedule, PatternsIndependentOfSamplingOrder) {
  // The schedule is what makes injection bit-identical across thread counts:
  // every element's pattern comes from its own Rng chain, so drawing the
  // elements in any order (as different chunkings would) changes nothing.
  const FaultModel model{FaultKind::kTransientFlip, 0.1};
  std::vector<core::Hypervector> forward;
  for (std::uint64_t i = 0; i < 8; ++i) {
    core::Rng rng(fault_seed(42, FaultTarget::kQuery, i));
    forward.push_back(sample_fault_mask(model, 2048, rng).flip);
  }
  for (std::uint64_t i = 8; i-- > 0;) {
    core::Rng rng(fault_seed(42, FaultTarget::kQuery, i));
    EXPECT_EQ(sample_fault_mask(model, 2048, rng).flip, forward[i]);
  }
}

TEST(ApplyQueryFault, TransientVariesPerWindowPersistentDoesNot) {
  FaultPlan plan;
  plan.model = {FaultKind::kTransientFlip, 0.1};
  const auto v = random_vector(14, 4096);
  auto a = v;
  auto b = v;
  apply_query_fault(plan, 0, a);
  apply_query_fault(plan, 1, b);
  EXPECT_NE(a, b);  // fresh soft error per query

  plan.model = {FaultKind::kStuckAtOne, 0.1};
  auto c = v;
  auto d = v;
  apply_query_fault(plan, 0, c);
  apply_query_fault(plan, 1, d);
  EXPECT_EQ(c, d);  // one faulty query buffer, same cells every window
}

TEST(ApplyQueryFault, RespectsPlanGating) {
  FaultPlan plan;
  plan.model = {FaultKind::kTransientFlip, 0.1};
  plan.queries = false;
  const auto v = random_vector(15, 4096);
  auto w = v;
  apply_query_fault(plan, 3, w);
  EXPECT_EQ(w, v);
}

// ---- legacy injector properties (noise/bit_flip.hpp) ------------------------

class FlipBitsRate : public ::testing::TestWithParam<double> {};

TEST_P(FlipBitsRate, FlipFractionWithinBinomialBounds) {
  const double rate = GetParam();
  const auto v = random_vector(16);
  core::Rng rng(17);
  const auto noisy = flip_bits(v, rate, rng);
  const double sigma =
      std::sqrt(rate * (1.0 - rate) / static_cast<double>(kDim));
  EXPECT_NEAR(disturbed_fraction(v, noisy), rate, 5.0 * sigma + 1e-12);
  EXPECT_NEAR(core::similarity(v, noisy), expected_similarity_after_flips(rate),
              10.0 * sigma + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Rates, FlipBitsRate,
                         ::testing::Values(0.01, 0.05, 0.10, 0.25));

TEST(FlipFixedBits, DeterministicPerSeedAndBounded) {
  std::vector<std::int32_t> a(256);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::int32_t>(i) - 128;
  }
  auto b = a;
  core::Rng r1(18);
  core::Rng r2(18);
  flip_fixed_bits(a, 8, 0.2, r1);
  flip_fixed_bits(b, 8, 0.2, r2);
  EXPECT_EQ(a, b);
  int changed = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a[i], -128);
    EXPECT_LE(a[i], 127);
    if (a[i] != static_cast<std::int32_t>(i) - 128) ++changed;
  }
  // 8 bits at 20% per bit: P(word untouched) = 0.8^8 ≈ 17%.
  EXPECT_GT(changed, 150);
}

}  // namespace
}  // namespace hdface::noise
