#include "hog/feature_bundler.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/accumulator.hpp"
#include "core/kernels/kernels.hpp"

namespace hdface::hog {
namespace {

class FeatureBundlerTest : public ::testing::Test {
 protected:
  core::StochasticContext ctx_{2048, 0xB4D};
};

TEST_F(FeatureBundlerTest, ValidatesGeometry) {
  EXPECT_THROW(FeatureBundler(ctx_, 0, 1, 8), std::invalid_argument);
  EXPECT_THROW(FeatureBundler(ctx_, 1, 1, 0), std::invalid_argument);
}

TEST_F(FeatureBundlerTest, SlotCountMatchesGeometry) {
  FeatureBundler b(ctx_, 3, 2, 8);
  EXPECT_EQ(b.slots(), 48u);
}

TEST_F(FeatureBundlerTest, KeysAreDistinctAndStable) {
  FeatureBundler b1(ctx_, 2, 2, 4);
  FeatureBundler b2(ctx_, 2, 2, 4);
  EXPECT_EQ(b1.key(0, 0), b2.key(0, 0));  // deterministic from ctx seed
  EXPECT_NE(b1.key(0, 0), b1.key(0, 1));
  EXPECT_NEAR(similarity(b1.key(1, 2), b1.key(2, 3)), 0.0, 0.1);
}

TEST_F(FeatureBundlerTest, BundleRejectsWrongSlotCount) {
  FeatureBundler b(ctx_, 2, 2, 4);
  std::vector<core::Hypervector> slots(3, ctx_.zero());
  EXPECT_THROW(b.bundle(slots), std::invalid_argument);
}

TEST_F(FeatureBundlerTest, BundleIsDeterministic) {
  FeatureBundler b(ctx_, 2, 1, 4);
  std::vector<core::Hypervector> slots;
  for (int i = 0; i < 8; ++i) slots.push_back(ctx_.construct(0.1 * i));
  EXPECT_EQ(b.bundle(slots), b.bundle(slots));
}

TEST_F(FeatureBundlerTest, BundleRetainsSlotInformation) {
  // A bundled feature should stay more similar to its own bound slots than
  // to foreign bound content.
  FeatureBundler b(ctx_, 2, 2, 4);
  std::vector<core::Hypervector> slots;
  for (std::size_t i = 0; i < 16; ++i) {
    slots.push_back(ctx_.construct(static_cast<double>(i) / 16.0));
  }
  const auto bundle = b.bundle(slots);
  double own = 0.0;
  for (std::size_t cell = 0; cell < 4; ++cell) {
    for (std::size_t bin = 0; bin < 4; ++bin) {
      own += similarity(bundle, b.key(cell, bin) ^ slots[cell * 4 + bin]);
    }
  }
  own /= 16.0;
  core::Rng rng(99);
  double foreign = 0.0;
  for (int i = 0; i < 16; ++i) {
    foreign += similarity(bundle, core::Hypervector::random(2048, rng));
  }
  foreign /= 16.0;
  EXPECT_GT(own, foreign + 0.1);
}

TEST_F(FeatureBundlerTest, DifferentInputsProduceDifferentBundles) {
  FeatureBundler b(ctx_, 2, 1, 4);
  std::vector<core::Hypervector> a;
  std::vector<core::Hypervector> c;
  for (int i = 0; i < 8; ++i) {
    a.push_back(ctx_.construct(0.9));
    c.push_back(ctx_.construct(-0.9));
  }
  EXPECT_LT(similarity(b.bundle(a), b.bundle(c)), 0.5);
}

TEST_F(FeatureBundlerTest, CountsOpsWhenRequested) {
  FeatureBundler b(ctx_, 1, 1, 4);
  std::vector<core::Hypervector> slots(4, ctx_.zero());
  core::OpCounter counter;
  (void)b.bundle(slots, &counter);
  EXPECT_GT(counter.get(core::OpKind::kWordLogic), 0u);
  EXPECT_GT(counter.get(core::OpKind::kIntAdd), 0u);
}

TEST_F(FeatureBundlerTest, WeightedBundleMatchesAccumulatorOracle) {
  // The one bundling path (register-blocked words, ties drawn from the zero
  // masks) against per-slot Accumulator::add_xor + threshold with the same
  // tie stream: skipped slots, slots that cancel to exact ties, a dimension
  // that is not a whole number of words, and every usable kernel backend.
  for (const core::kernels::KernelTable* t : core::kernels::compiled_tables()) {
    if (!core::kernels::backend_supported(t->backend)) continue;
    const core::kernels::ScopedBackend scoped(t->backend);
    for (const std::size_t dim : {1000u, 2048u}) {
      core::StochasticContext ctx(dim, 0xB4D);
      FeatureBundler b(ctx, 2, 2, 4);
      core::Rng rng(0x5107);
      std::vector<core::Hypervector> slots;
      std::vector<double> weights;
      for (std::size_t i = 0; i < b.slots(); ++i) {
        slots.push_back(core::Hypervector::random(dim, rng));
        weights.push_back(static_cast<double>(rng.below(100)) / 99.0);
      }
      weights[3] = 0.01;  // below min_weight: skipped
      // Slot 5 votes exactly against slot 4: with the rest below min_weight
      // every counter ends at +0.0 and draws a tie.
      slots[5] = b.key(1, 1) ^ ~(b.key(1, 0) ^ slots[4]);
      weights[5] = weights[4];
      for (const bool only_ties : {false, true}) {
        std::vector<double> w = weights;
        if (only_ties) {
          for (std::size_t i = 0; i < w.size(); ++i) {
            if (i != 4 && i != 5) w[i] = 0.0;
          }
        }
        core::Accumulator acc(dim);
        core::OpCounter want_ops;
        acc.set_counter(&want_ops);
        for (std::size_t i = 0; i < slots.size(); ++i) {
          if (std::abs(w[i]) < 0.02) continue;
          acc.add_xor(b.key(i / 4, i % 4), slots[i], w[i]);
        }
        if (only_ties) {
          for (const double c : acc.counts()) ASSERT_EQ(c, 0.0);
        }
        core::Rng tie(b.tie_seed());
        const core::Hypervector want = acc.threshold(tie);
        core::OpCounter got_ops;
        EXPECT_EQ(b.bundle_weighted(slots, w, 0.02, &got_ops), want)
            << core::kernels::backend_name(t->backend) << " dim=" << dim
            << " only_ties=" << only_ties;
        EXPECT_EQ(got_ops.get(core::OpKind::kWordLogic),
                  want_ops.get(core::OpKind::kWordLogic));
        EXPECT_EQ(got_ops.get(core::OpKind::kIntAdd),
                  want_ops.get(core::OpKind::kIntAdd));
      }
    }
  }
}

}  // namespace
}  // namespace hdface::hog
