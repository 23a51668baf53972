#include "core/stochastic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace hdface::core {
namespace {

constexpr std::size_t kDim = 4096;
// Statistical tolerance: a few standard deviations of binomial noise.
const double kTol = 4.0 / std::sqrt(static_cast<double>(kDim));

class StochasticTest : public ::testing::Test {
 protected:
  StochasticContext ctx_{kDim, 0x5eed};
};

TEST_F(StochasticTest, ConfigValidation) {
  EXPECT_THROW(StochasticContext(StochasticConfig{.dim = 0}), std::invalid_argument);
  EXPECT_THROW(StochasticContext(StochasticConfig{.mask_bits = 0}),
               std::invalid_argument);
  EXPECT_THROW(StochasticContext(StochasticConfig{.search_iters = -1}),
               std::invalid_argument);
  // 0 selects the automatic iteration count (past the noise floor).
  StochasticContext auto_ctx(StochasticConfig{.dim = 4096, .search_iters = 0});
  EXPECT_GE(auto_ctx.effective_search_iters(), 6);
  StochasticContext fixed_ctx(StochasticConfig{.dim = 4096, .search_iters = 9});
  EXPECT_EQ(fixed_ctx.effective_search_iters(), 9);
}

TEST_F(StochasticTest, BasisRepresentsOne) {
  EXPECT_DOUBLE_EQ(ctx_.decode(ctx_.basis()), 1.0);
}

TEST_F(StochasticTest, NegatedBasisRepresentsMinusOne) {
  EXPECT_DOUBLE_EQ(ctx_.decode(~ctx_.basis()), -1.0);
}

TEST_F(StochasticTest, ConstructExtremes) {
  EXPECT_NEAR(ctx_.decode(ctx_.construct(1.0)), 1.0, 1e-12);
  EXPECT_NEAR(ctx_.decode(ctx_.construct(-1.0)), -1.0, 1e-12);
}

TEST_F(StochasticTest, ConstructClampsOutOfRange) {
  EXPECT_NEAR(ctx_.decode(ctx_.construct(3.0)), 1.0, 1e-12);
  EXPECT_NEAR(ctx_.decode(ctx_.construct(-3.0)), -1.0, 1e-12);
}

TEST_F(StochasticTest, ZeroIsOrthogonalToBasis) {
  EXPECT_NEAR(ctx_.decode(ctx_.zero()), 0.0, kTol);
}

TEST_F(StochasticTest, NegationIsExact) {
  const auto v = ctx_.construct(0.37);
  EXPECT_DOUBLE_EQ(ctx_.decode(~v), -ctx_.decode(v));
}

TEST_F(StochasticTest, WeightedAverageMatchesExpectation) {
  const auto a = ctx_.construct(0.8);
  const auto b = ctx_.construct(-0.4);
  const auto c = ctx_.weighted_average(a, b, 0.25);
  EXPECT_NEAR(ctx_.decode(c), 0.25 * 0.8 + 0.75 * (-0.4), kTol);
}

TEST_F(StochasticTest, WeightedAverageEndpoints) {
  const auto a = ctx_.construct(0.6);
  const auto b = ctx_.construct(-0.6);
  EXPECT_EQ(ctx_.weighted_average(a, b, 1.0), a);
  EXPECT_EQ(ctx_.weighted_average(a, b, 0.0), b);
}

TEST_F(StochasticTest, AddHalvedIsPaperAddition) {
  const auto a = ctx_.construct(0.5);
  const auto b = ctx_.construct(0.3);
  EXPECT_NEAR(ctx_.decode(ctx_.add_halved(a, b)), 0.4, kTol);
}

TEST_F(StochasticTest, SubHalvedIsPaperSubtraction) {
  const auto a = ctx_.construct(0.5);
  const auto b = ctx_.construct(0.3);
  EXPECT_NEAR(ctx_.decode(ctx_.sub_halved(a, b)), 0.1, kTol);
}

TEST_F(StochasticTest, MultiplyIndependentOperands) {
  const auto a = ctx_.construct(0.7);
  const auto b = ctx_.construct(-0.5);
  EXPECT_NEAR(ctx_.decode(ctx_.multiply(a, b)), -0.35, kTol);
}

TEST_F(StochasticTest, MultiplyByBasisIsIdentity) {
  const auto a = ctx_.construct(0.42);
  // V₁ has zero flip noise, so a ⊗ 1 = a exactly.
  EXPECT_DOUBLE_EQ(ctx_.decode(ctx_.multiply(a, ctx_.basis())),
                   ctx_.decode(a));
}

TEST_F(StochasticTest, NaiveSelfMultiplyCollapsesToOne) {
  // The paper's literal V⊗V: operands are perfectly correlated, so the
  // product is the basis (≡ 1) regardless of the value. This is why square()
  // regenerates first (see DESIGN.md §2).
  const auto v = ctx_.construct(0.3);
  EXPECT_DOUBLE_EQ(ctx_.decode(ctx_.multiply(v, v)), 1.0);
}

TEST_F(StochasticTest, SquareUsesDecorrelation) {
  const auto v = ctx_.construct(0.6);
  EXPECT_NEAR(ctx_.decode(ctx_.square(v)), 0.36, 2 * kTol);
}

TEST_F(StochasticTest, SquareOfNegativeIsPositive) {
  const auto v = ctx_.construct(-0.5);
  EXPECT_NEAR(ctx_.decode(ctx_.square(v)), 0.25, 2 * kTol);
}

TEST_F(StochasticTest, RegenerateKeepsValueFreshensNoise) {
  const auto v = ctx_.construct(0.45);
  const auto r = ctx_.regenerate(v);
  EXPECT_NEAR(ctx_.decode(r), ctx_.decode(v), kTol);
  // Fresh representation: correlation beyond what the shared value implies
  // drops, so the similarity between v and r is far below 1.
  EXPECT_LT(similarity(v, r), 0.9);
}

TEST_F(StochasticTest, ScalePositiveConstant) {
  const auto v = ctx_.construct(0.8);
  EXPECT_NEAR(ctx_.decode(ctx_.scale(v, 0.5)), 0.4, kTol);
}

TEST_F(StochasticTest, ScaleNegativeConstant) {
  const auto v = ctx_.construct(0.8);
  EXPECT_NEAR(ctx_.decode(ctx_.scale(v, -0.25)), -0.2, kTol);
}

TEST_F(StochasticTest, AbsFlipsNegatives) {
  EXPECT_NEAR(ctx_.decode(ctx_.abs(ctx_.construct(-0.6))), 0.6, kTol);
  EXPECT_NEAR(ctx_.decode(ctx_.abs(ctx_.construct(0.6))), 0.6, kTol);
}

TEST_F(StochasticTest, SqrtOfRepresentativeValues) {
  for (const double a : {0.09, 0.25, 0.64, 1.0}) {
    const auto r = ctx_.sqrt(ctx_.construct(a));
    EXPECT_NEAR(ctx_.decode(r), std::sqrt(a), 3 * kTol) << "a=" << a;
  }
}

TEST_F(StochasticTest, SqrtOfZeroBoundedByFourthRootNoise) {
  // Near zero the statistical stopping rule terminates once m²/2 drops under
  // the compare margin ~2/√D, i.e. at m ~ D^(-1/4): the paper's algorithm
  // cannot resolve sqrt better than the fourth root of the noise floor where
  // d√a/da diverges.
  const auto r = ctx_.sqrt(ctx_.construct(0.0));
  const double bound = 2.5 * std::pow(static_cast<double>(kDim), -0.25);
  EXPECT_LT(ctx_.decode(r), bound);
  EXPECT_GT(ctx_.decode(r), -3 * kTol);
}

TEST_F(StochasticTest, DivideBasicQuotients) {
  const auto q = ctx_.divide(ctx_.construct(0.3), ctx_.construct(0.6));
  EXPECT_NEAR(ctx_.decode(q), 0.5, 4 * kTol);
}

TEST_F(StochasticTest, DivideHandlesSigns) {
  const auto q1 = ctx_.divide(ctx_.construct(-0.2), ctx_.construct(0.8));
  EXPECT_NEAR(ctx_.decode(q1), -0.25, 4 * kTol);
  const auto q2 = ctx_.divide(ctx_.construct(-0.2), ctx_.construct(-0.8));
  EXPECT_NEAR(ctx_.decode(q2), 0.25, 4 * kTol);
}

TEST_F(StochasticTest, DivideSaturatesWhenQuotientExceedsOne) {
  const auto q = ctx_.divide(ctx_.construct(0.9), ctx_.construct(0.3));
  EXPECT_GT(ctx_.decode(q), 0.9);
}

TEST_F(StochasticTest, DivideByStatisticalZeroSaturates) {
  const auto q = ctx_.divide(ctx_.construct(0.5), ctx_.construct(0.0));
  EXPECT_NEAR(ctx_.decode(q), 1.0, 1e-12);
}

TEST_F(StochasticTest, CompareOrdersDistinctValues) {
  const auto a = ctx_.construct(0.5);
  const auto b = ctx_.construct(0.2);
  EXPECT_EQ(ctx_.compare(a, b), 1);
  EXPECT_EQ(ctx_.compare(b, a), -1);
}

TEST_F(StochasticTest, CompareTiesWithinMargin) {
  const auto a = ctx_.construct(0.3);
  const auto b = ctx_.construct(0.3);
  EXPECT_EQ(ctx_.compare(a, b, 0.2), 0);
}

TEST_F(StochasticTest, SignOfReadsSign) {
  EXPECT_EQ(ctx_.sign_of(ctx_.construct(0.5)), 1);
  EXPECT_EQ(ctx_.sign_of(ctx_.construct(-0.5)), -1);
  EXPECT_EQ(ctx_.sign_of(ctx_.construct(0.0)), 0);
}

TEST_F(StochasticTest, BernoulliMaskDensity) {
  for (const double p : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    const auto m = ctx_.bernoulli_mask(p);
    const double frac = static_cast<double>(m.popcount()) / kDim;
    EXPECT_NEAR(frac, p, kTol) << "p=" << p;
  }
}

TEST_F(StochasticTest, BernoulliMaskKeepsTailZero) {
  StochasticContext ctx(100, 1);
  const auto m = ctx.bernoulli_mask(1.0);
  EXPECT_EQ(m.popcount(), 100u);
}

TEST_F(StochasticTest, PooledMaskViewDrawsLikeBernoulliMask) {
  // The inline draw against its definition: bucket std::llround(p·255) —
  // including every half-way point and its neighbours — then the pool index
  // and the word rotation from the RNG, in that order, and the view read
  // through its rotation equals bernoulli_mask(p) on an identically seeded
  // fork.
  StochasticContext ctx(1024, 0xB0C7);
  EXPECT_THROW((void)ctx.pooled_mask_view(0.5), std::logic_error);
  ctx.warm_pool();
  ASSERT_TRUE(ctx.pooled_fast_path());
  const std::size_t words = ctx.basis().num_words();
  std::vector<double> ps = {0.0, 1.0, -0.5, 1.5, 0.25, 0.5};
  for (int k = 0; k < 255; ++k) {
    const double half = (k + 0.5) / 255.0;
    ps.push_back(half);
    ps.push_back(std::nextafter(half, 0.0));
    ps.push_back(std::nextafter(half, 1.0));
  }
  std::uint64_t seed = 1;
  for (const double p : ps) {
    const auto bucket = static_cast<std::size_t>(
        std::llround(std::clamp(p, 0.0, 1.0) * 255.0));
    Rng rng(seed);
    const auto& entry = ctx.mutable_pool_bucket(bucket)[rng.below(64)];
    const std::size_t offset = rng.below(words);
    auto view_ctx = ctx.fork(seed);
    const auto view = view_ctx.pooled_mask_view(p);
    EXPECT_EQ(view.words, entry.words().data()) << "p=" << p;
    EXPECT_EQ(view.offset, offset) << "p=" << p;
    auto mask_ctx = ctx.fork(seed);
    const Hypervector mask = mask_ctx.bernoulli_mask(p);
    for (std::size_t i = 0; i < words; ++i) {
      ASSERT_EQ(mask.words()[i], view.words[(i + view.offset) % words])
          << "p=" << p << " word " << i;
    }
    ++seed;
  }
}

TEST_F(StochasticTest, MismatchedDimensionsThrow) {
  StochasticContext other(128, 1);
  const auto foreign = other.construct(0.5);
  EXPECT_THROW(ctx_.multiply(foreign, foreign), std::invalid_argument);
  EXPECT_THROW(ctx_.weighted_average(foreign, foreign, 0.5), std::invalid_argument);
}

TEST_F(StochasticTest, DeterministicAcrossContextsWithSameSeed) {
  StochasticContext c1(1024, 99);
  StochasticContext c2(1024, 99);
  EXPECT_EQ(c1.construct(0.3), c2.construct(0.3));
}

TEST_F(StochasticTest, FreshMaskModeMatchesExpectations) {
  StochasticConfig cfg;
  cfg.dim = kDim;
  cfg.seed = 0xF2E5;
  cfg.mask_pool = 0;  // always-fresh masks
  StochasticContext ctx(cfg);
  EXPECT_NEAR(ctx.decode(ctx.construct(0.45)), 0.45, kTol);
  EXPECT_NEAR(ctx.decode(ctx.multiply(ctx.construct(0.5), ctx.construct(0.4))),
              0.2, kTol);
  EXPECT_NEAR(ctx.decode(ctx.sqrt(ctx.construct(0.49))), 0.7, 3 * kTol);
}

TEST_F(StochasticTest, MaskPoolCutsRngWork) {
  StochasticConfig pooled;
  pooled.dim = kDim;
  pooled.seed = 1;
  StochasticConfig fresh = pooled;
  fresh.mask_pool = 0;
  StochasticContext cp(pooled);
  StochasticContext cf(fresh);
  OpCounter pooled_ops;
  OpCounter fresh_ops;
  cp.set_counter(&pooled_ops);
  cf.set_counter(&fresh_ops);
  const auto a1 = cp.construct(0.3);
  const auto b1 = cp.construct(-0.2);
  (void)cp.weighted_average(a1, b1, 0.5);  // pool warm; second op cheap
  pooled_ops.reset();
  (void)cp.weighted_average(a1, b1, 0.5);
  const auto a2 = cf.construct(0.3);
  const auto b2 = cf.construct(-0.2);
  (void)cf.weighted_average(a2, b2, 0.5);
  EXPECT_LT(pooled_ops.get(OpKind::kRngWord),
            fresh_ops.get(OpKind::kRngWord) / 4);
}

TEST_F(StochasticTest, PooledMasksKeepExpectationsUnbiased) {
  // Average many pooled weighted averages: the pooled selection masks must
  // not bias the expectation beyond the 8-bit probability quantization.
  double mean = 0.0;
  const int trials = 32;
  for (int t = 0; t < trials; ++t) {
    StochasticContext ctx(kDim, 0x900 + static_cast<std::uint64_t>(t));
    mean += ctx.decode(
        ctx.weighted_average(ctx.construct(0.8), ctx.construct(-0.4), 0.3));
  }
  mean /= trials;
  EXPECT_NEAR(mean, 0.3 * 0.8 + 0.7 * (-0.4), 0.02);
}

TEST_F(StochasticTest, OpCounterRecordsWork) {
  OpCounter counter;
  ctx_.set_counter(&counter);
  const auto a = ctx_.construct(0.5);
  const auto b = ctx_.construct(0.2);
  (void)ctx_.multiply(a, b);
  (void)ctx_.decode(a);
  ctx_.set_counter(nullptr);
  EXPECT_GT(counter.get(OpKind::kRngWord), 0u);
  EXPECT_GT(counter.get(OpKind::kWordLogic), 0u);
  EXPECT_GT(counter.get(OpKind::kPopcount), 0u);
}

}  // namespace
}  // namespace hdface::core
