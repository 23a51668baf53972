// HD-HOG correctness: the hyperspace pipeline must agree with the classical
// float HOG up to the stochastic noise floor, pixel by pixel and cell by cell.

#include "hog/hd_hog.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "dataset/face_generator.hpp"
#include "hog/gradient.hpp"

namespace hdface::hog {
namespace {

HdHogConfig test_config() {
  HdHogConfig c;
  c.hog.cell_size = 8;
  c.hog.bins = 8;
  c.hog.block_normalize = false;
  return c;
}

// Ramp anchored so the probed center pixel (n/2, n/2) sits near 0.5; far
// regions may clamp, which does not affect center-pixel gradients.
// Pearson correlation between two equal-length float sequences.
double correlation(const std::vector<float>& a, const std::vector<float>& b) {
  const std::size_t n = a.size();
  double ma = 0.0;
  double mb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= static_cast<double>(n);
  mb /= static_cast<double>(n);
  double cov = 0.0;
  double va = 1e-12;
  double vb = 1e-12;
  for (std::size_t i = 0; i < n; ++i) {
    cov += (a[i] - ma) * (b[i] - mb);
    va += (a[i] - ma) * (a[i] - ma);
    vb += (b[i] - mb) * (b[i] - mb);
  }
  return cov / std::sqrt(va * vb);
}

image::Image ramp_image(std::size_t n, float sx, float sy) {
  image::Image img(n, n);
  const float base =
      0.5f - (sx + sy) * static_cast<float>(n) / 2.0f;
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      img.at(x, y) = base + sx * static_cast<float>(x) + sy * static_cast<float>(y);
    }
  }
  img.clamp();
  return img;
}

class HdHogTest : public ::testing::Test {
 protected:
  core::StochasticContext ctx_{4096, 0x41D};
};

TEST_F(HdHogTest, RejectsTooSmallImages) {
  EXPECT_THROW(HdHogExtractor(ctx_, test_config(), 4, 4), std::invalid_argument);
}

TEST_F(HdHogTest, RejectsGeometryMismatchAtExtraction) {
  HdHogExtractor hd(ctx_, test_config(), 16, 16);
  EXPECT_THROW(hd.slot_values(image::Image(24, 24, 0.5f)), std::invalid_argument);
}

TEST_F(HdHogTest, PixelGradientMatchesFloatGradient) {
  HdHogExtractor hd(ctx_, test_config(), 16, 16);
  const image::Image img = ramp_image(16, 0.03f, -0.015f);
  const GradientField ref = compute_gradients(img);
  const double tol = 5.0 / std::sqrt(4096.0) + 2.0 / 255.0;
  for (const auto& [x, y] : {std::pair<std::size_t, std::size_t>{5, 5},
                             {0, 8}, {15, 3}, {8, 15}}) {
    auto g = hd.pixel_gradient(img, x, y);
    EXPECT_NEAR(ctx_.decode(g.gx), ref.gx_at(x, y), tol) << x << "," << y;
    EXPECT_NEAR(ctx_.decode(g.gy), ref.gy_at(x, y), tol) << x << "," << y;
  }
}

TEST_F(HdHogTest, PixelMagnitudeMatchesFloatMagnitude) {
  HdHogExtractor hd(ctx_, test_config(), 16, 16);
  const image::Image img = ramp_image(16, 0.05f, 0.02f);
  const GradientField ref = compute_gradients(img);
  auto g = hd.pixel_gradient(img, 8, 8);
  const auto mag = hd.pixel_magnitude(g);
  EXPECT_NEAR(ctx_.decode(mag), ref.mag_at(8, 8), 8.0 / std::sqrt(4096.0) + 0.01);
}

TEST_F(HdHogTest, PixelBinMatchesFloatBinOnStrongGradients) {
  // Strong, unambiguous gradients (components well above the ~2/√D decode
  // noise floor and ratios clear of the 45° boundary): the hyperspace binner
  // must agree with the float binner in (nearly) every case.
  core::StochasticContext ctx(8192, 0x8B);
  HdHogExtractor hd(ctx, test_config(), 16, 16);
  const AngleBinner binner(8);
  int agree = 0;
  int total = 0;
  for (const auto& [sx, sy] : {std::pair<float, float>{0.06f, 0.015f},
                               {0.015f, 0.06f},
                               {-0.06f, 0.02f},
                               {-0.05f, -0.08f},
                               {0.08f, -0.04f}}) {
    const image::Image img = ramp_image(16, sx, sy);
    const GradientField ref = compute_gradients(img);
    auto g = hd.pixel_gradient(img, 8, 8);
    const auto expected = binner.bin_of(ref.gx_at(8, 8), ref.gy_at(8, 8));
    agree += (hd.pixel_bin(g) == expected) ? 1 : 0;
    ++total;
  }
  EXPECT_GE(agree, total - 1);
}

TEST_F(HdHogTest, DecodedHistogramsTrackClassicalHog) {
  HdHogConfig cfg = test_config();
  core::StochasticContext ctx(8192, 0x99);
  HdHogExtractor hd(ctx, cfg, 16, 16);
  HogExtractor classical(cfg.hog);
  const image::Image img = dataset::render_face_window(16, 12345);
  const CellHistograms got = hd.decode_histograms(img);
  CellHistograms want = classical.cell_histograms(img);
  ASSERT_EQ(got.values.size(), want.values.size());
  // HD histograms are window-normalized; normalization noise rescales the
  // whole window, so the scale-free check is correlation with the classical
  // histograms. Weak gradients (below the ~1/√D noise floor) bin noisily in
  // hyperspace — the paper's dimensionality-accuracy tradeoff — hence the
  // moderate bar on a natural face window.
  EXPECT_GT(correlation(got.values, want.values), 0.5);
  // And the dominant bin should usually agree per cell.
  int dominant_agree = 0;
  const std::size_t cells = got.cells_x * got.cells_y;
  for (std::size_t c = 0; c < cells; ++c) {
    std::size_t gb = 0;
    std::size_t wb = 0;
    for (std::size_t b = 1; b < got.bins; ++b) {
      if (got.values[c * got.bins + b] > got.values[c * got.bins + gb]) gb = b;
      if (want.values[c * got.bins + b] > want.values[c * got.bins + wb]) wb = b;
    }
    if (gb == wb) ++dominant_agree;
  }
  EXPECT_GE(dominant_agree, static_cast<int>(cells / 2));
}

TEST_F(HdHogTest, ExtractIsDeterministicAcrossIdenticalContexts) {
  const image::Image img = ramp_image(16, 0.02f, 0.01f);
  core::StochasticContext c1(2048, 7);
  core::StochasticContext c2(2048, 7);
  HdHogExtractor h1(c1, test_config(), 16, 16);
  HdHogExtractor h2(c2, test_config(), 16, 16);
  EXPECT_EQ(h1.extract(img), h2.extract(img));
}

TEST_F(HdHogTest, SimilarImagesYieldSimilarFeatures) {
  core::StochasticContext ctx(2048, 17);
  HdHogExtractor hd(ctx, test_config(), 16, 16);
  const image::Image a = ramp_image(16, 0.04f, 0.0f);
  image::Image b = a;
  b.at(3, 3) += 0.02f;  // tiny perturbation
  const image::Image c = ramp_image(16, 0.0f, 0.04f);  // orthogonal structure
  const auto fa = hd.extract(a);
  const auto fb = hd.extract(b);
  const auto fc = hd.extract(c);
  EXPECT_GT(similarity(fa, fb), similarity(fa, fc));
}

TEST_F(HdHogTest, DecodeShortcutModeAgreesWithFaithfulOnStrongGradients) {
  // Agreement between the two modes holds where gradients are well above the
  // stochastic noise floor; weak-gradient pixels bin noisily in the faithful
  // mode (that is the dimensionality story, covered elsewhere). Use an image
  // of strong oriented stripes.
  HdHogConfig faithful = test_config();
  HdHogConfig shortcut = test_config();
  shortcut.mode = HdHogMode::kDecodeShortcut;
  core::StochasticContext c1(8192, 3);
  core::StochasticContext c2(8192, 3);
  HdHogExtractor hf(c1, faithful, 16, 16);
  HdHogExtractor hs(c2, shortcut, 16, 16);
  image::Image img(16, 16);
  for (std::size_t y = 0; y < 16; ++y) {
    for (std::size_t x = 0; x < 16; ++x) {
      // Left half: vertical stripes (strong G_x); right half: horizontal.
      const double phase = x < 8 ? x : y;
      img.at(x, y) =
          0.5f + 0.45f * static_cast<float>(std::sin(phase * 1.57079632679));
    }
  }
  const auto a = hf.decode_histograms(img);
  const auto b = hs.decode_histograms(img);
  EXPECT_GT(correlation(a.values, b.values), 0.6);
}

TEST_F(HdHogTest, SlotValuesStayInValueRange) {
  core::StochasticContext ctx(2048, 23);
  HdHogExtractor hd(ctx, test_config(), 16, 16);
  const image::Image img = dataset::render_face_window(16, 42);
  for (const auto& slot : hd.slot_values(img)) {
    const double v = ctx.decode(slot);
    EXPECT_GE(v, -0.2);  // histogram values are nonnegative up to noise
    EXPECT_LE(v, 1.0);
  }
}

TEST_F(HdHogTest, OpCountingCoversHyperspaceWork) {
  core::OpCounter counter;
  core::StochasticContext ctx(2048, 29);
  ctx.set_counter(&counter);
  HdHogExtractor hd(ctx, test_config(), 8, 8);
  (void)hd.extract(image::Image(8, 8, 0.5f));
  EXPECT_GT(counter.get(core::OpKind::kWordLogic), 0u);
  EXPECT_GT(counter.get(core::OpKind::kRngWord), 0u);
  EXPECT_GT(counter.get(core::OpKind::kPopcount), 0u);
  // No float math in the faithful hyperspace path.
  EXPECT_EQ(counter.get(core::OpKind::kFloatSqrt), 0u);
  EXPECT_EQ(counter.get(core::OpKind::kFloatTrig), 0u);
}

}  // namespace
}  // namespace hdface::hog
