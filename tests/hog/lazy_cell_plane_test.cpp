// Unit suite for the lazy-plane building blocks (DESIGN.md §14): the
// once-per-cell materialization gate (single-threaded semantics and the
// concurrent fill-exactly-once contract), overflow-checked window_on_grid
// geometry, and bit- and op-count identity of the fused batched cell kernel
// against the reference per-pixel chain (with and without a precomputed
// level-index plane). The pipeline-level lazy-vs-eager property suite lives in
// tests/pipeline/lazy_plane_test.cpp.

#include "hog/lazy_cell_plane.hpp"

#include <atomic>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/kernels/kernels.hpp"
#include "core/stochastic.hpp"
#include "hog/cell_plane.hpp"
#include "hog/gradient.hpp"
#include "hog/hd_hog.hpp"
#include "image/image.hpp"

namespace hdface::hog {
namespace {

constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();

// --- window_on_grid overflow hardening --------------------------------------

TEST(CellPlaneGeometry, WindowOnGridAcceptsInBoundsWindows) {
  const CellPlane plane = make_cell_plane_geometry(64, 48, 4, 8, 4, 0);
  EXPECT_TRUE(plane.window_on_grid(0, 0, 4, 4));
  EXPECT_TRUE(plane.window_on_grid(48, 32, 4, 4));  // last 16px window
  EXPECT_FALSE(plane.window_on_grid(52, 32, 4, 4)); // falls off the right edge
  EXPECT_FALSE(plane.window_on_grid(2, 0, 4, 4));   // off-grid origin
  EXPECT_FALSE(plane.window_on_grid(0, 0, 0, 4));   // degenerate extent
}

TEST(CellPlaneGeometry, WindowOnGridRejectsOverflowingOriginInsteadOfWrapping) {
  const CellPlane plane = make_cell_plane_geometry(64, 48, 4, 8, 4, 0);
  // SIZE_MAX − 3 is a multiple of grid_step 4; origin + cells·cell_size wraps
  // to a tiny value, which an unchecked far-corner computation would read as
  // "inside the plane". The contract is rejection, never acceptance-by-wrap.
  const std::size_t wrapping_origin = kMax - 3;
  ASSERT_EQ(wrapping_origin % 4, 0u);
  EXPECT_FALSE(plane.window_on_grid(wrapping_origin, 0, 1, 1));
  EXPECT_FALSE(plane.window_on_grid(0, wrapping_origin, 1, 1));
  EXPECT_FALSE(plane.window_on_grid(wrapping_origin, wrapping_origin, 1, 1));
}

TEST(CellPlaneGeometry, WindowOnGridRejectsOverflowingExtentInsteadOfWrapping) {
  const CellPlane plane = make_cell_plane_geometry(64, 48, 4, 8, 4, 0);
  // cells · cell_size alone overflows 64-bit; wrapped arithmetic would fold
  // these extents back onto the plane.
  EXPECT_FALSE(plane.window_on_grid(0, 0, kMax / 4 + 1, 1));
  EXPECT_FALSE(plane.window_on_grid(0, 0, 1, kMax / 4 + 1));
  EXPECT_FALSE(plane.window_on_grid(0, 0, kMax, kMax));
  // origin + (cells · cell_size) overflows even though each factor fits.
  EXPECT_FALSE(plane.window_on_grid(60, 0, (kMax - 60) / 4, 1));
}

// --- LazyCellPlane: once-per-cell materialization ----------------------------

TEST(LazyCellPlane, MaterializesEachCellExactlyOnce) {
  LazyCellPlane lazy(make_cell_plane_geometry(16, 16, 4, 8, 4, 0));
  ASSERT_EQ(lazy.plane().grid_x, 4u);
  ASSERT_EQ(lazy.plane().grid_y, 4u);
  EXPECT_FALSE(lazy.materialized(1, 2));
  EXPECT_EQ(lazy.count_materialized(), 0u);

  int fills = 0;
  auto fill = [&](double* out) {
    ++fills;
    for (std::size_t b = 0; b < 8; ++b) out[b] = 42.0 + static_cast<double>(b);
  };
  EXPECT_TRUE(lazy.ensure_cell(1, 2, fill));
  EXPECT_TRUE(lazy.materialized(1, 2));
  EXPECT_EQ(fills, 1);
  // Second ensure is a pure hit: the fill must not run again.
  EXPECT_FALSE(lazy.ensure_cell(1, 2, fill));
  EXPECT_EQ(fills, 1);
  EXPECT_EQ(lazy.plane().cell(1, 2)[0], 42.0);
  EXPECT_EQ(lazy.plane().cell(1, 2)[7], 49.0);
  EXPECT_EQ(lazy.count_materialized(), 1u);
  // (1, 2) is off the even/even parity subgrid the prescreen reads.
  EXPECT_EQ(lazy.count_materialized(/*parity_only=*/true), 0u);
  EXPECT_TRUE(lazy.ensure_cell(2, 2, fill));
  EXPECT_EQ(lazy.count_materialized(/*parity_only=*/true), 1u);
}

TEST(LazyCellPlane, ConcurrentEnsureRunsEachFillExactlyOnce) {
  LazyCellPlane lazy(make_cell_plane_geometry(64, 48, 4, 8, 4, 0));
  const std::size_t gx_n = lazy.plane().grid_x;
  const std::size_t gy_n = lazy.plane().grid_y;
  std::vector<std::atomic<int>> fill_counts(gx_n * gy_n);

  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread sweeps every cell from a different starting offset so
      // first-touch races spread across the whole grid.
      const std::size_t n = gx_n * gy_n;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t idx = (i + t * 37) % n;
        const std::size_t gx = idx % gx_n;
        const std::size_t gy = idx / gx_n;
        lazy.ensure_cell(gx, gy, [&](double* out) {
          fill_counts[idx].fetch_add(1, std::memory_order_relaxed);
          for (std::size_t b = 0; b < 8; ++b) {
            out[b] = static_cast<double>(idx * 8 + b);
          }
        });
        // After ensure_cell returns, this thread must see the full fill.
        const double* cell = lazy.plane().cell(gx, gy);
        for (std::size_t b = 0; b < 8; ++b) {
          ASSERT_EQ(cell[b], static_cast<double>(idx * 8 + b));
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t idx = 0; idx < fill_counts.size(); ++idx) {
    EXPECT_EQ(fill_counts[idx].load(), 1) << "cell " << idx;
  }
  EXPECT_EQ(lazy.count_materialized(), gx_n * gy_n);
}

// --- fused batched kernel vs reference per-pixel chain -----------------------

TEST(FusedCellKernel, BitIdenticalToReferenceChain) {
  // Every usable kernel backend, at D = 4096 (the deployed width), 1024 and
  // 576 (9 words: the SIMD backends' scalar fallback). The fused kernel must
  // write the reference chain's doubles and charge an attached op counter
  // exactly the reference chain's op counts.
  for (const core::kernels::KernelTable* t : core::kernels::compiled_tables()) {
    if (!core::kernels::backend_supported(t->backend)) continue;
    const core::kernels::ScopedBackend scoped(t->backend);
    for (const std::size_t dim : {576u, 1024u, 4096u}) {
      SCOPED_TRACE(std::string(core::kernels::backend_name(t->backend)) +
                   " D=" + std::to_string(dim));
      core::StochasticContext ctx(dim, 0xABCD);
      ctx.warm_pool();
      ASSERT_TRUE(ctx.pooled_fast_path());
      HdHogConfig cfg;
      cfg.hog.cell_size = 4;
      cfg.hog.bins = 8;
      // Faithful mode is what arms the fused dispatch; anything else would
      // make this test compare the reference chain against itself.
      ASSERT_EQ(cfg.mode, HdHogMode::kFaithful);
      const HdHogExtractor hd(ctx, cfg, 16, 16);

      std::mt19937 gen(7);
      std::uniform_real_distribution<float> dist(0.0f, 1.0f);
      image::Image img(16, 16);
      for (auto& p : img.pixels()) p = dist(gen);
      const LevelIndexPlane levels =
          build_level_index_plane(img, hd.item_memory());

      double reference[8];
      double fused[8];
      double fused_with_levels[8];
      for (std::size_t cy = 0; cy < 3; ++cy) {
        for (std::size_t cx = 0; cx < 3; ++cx) {
          // Identical reseed per variant: any difference is the
          // implementation, not the stream.
          const std::uint64_t seed = 0x1234 + cx * 17 + cy;
          core::OpCounter ref_ops;
          auto ref_ctx = ctx.fork(seed);
          ref_ctx.set_counter(&ref_ops);
          hd.cell_raw_values_reference(img, cx * 4, cy * 4, ref_ctx, reference);
          core::OpCounter fused_ops;
          auto fused_ctx = ctx.fork(seed);
          fused_ctx.set_counter(&fused_ops);
          hd.cell_raw_values(img, nullptr, cx * 4, cy * 4, fused_ctx, fused);
          core::OpCounter plane_ops;
          auto plane_ctx = ctx.fork(seed);
          plane_ctx.set_counter(&plane_ops);
          hd.cell_raw_values(img, &levels, cx * 4, cy * 4, plane_ctx,
                             fused_with_levels);
          for (std::size_t b = 0; b < 8; ++b) {
            EXPECT_EQ(reference[b], fused[b])
                << "cell (" << cx << "," << cy << ") bin " << b;
            EXPECT_EQ(reference[b], fused_with_levels[b])
                << "cell (" << cx << "," << cy << ") bin " << b << " (levels)";
          }
          EXPECT_GT(ref_ops.total(), 0u);
          for (std::size_t k = 0; k < core::kOpKindCount; ++k) {
            const auto kind = static_cast<core::OpKind>(k);
            EXPECT_EQ(ref_ops.get(kind), fused_ops.get(kind))
                << "cell (" << cx << "," << cy << ") " << op_kind_name(kind);
            EXPECT_EQ(ref_ops.get(kind), plane_ops.get(kind))
                << "cell (" << cx << "," << cy << ") " << op_kind_name(kind)
                << " (levels)";
          }
        }
      }
    }
  }
}

TEST(LevelIndexPlane, MatchesOnTheFlyQuantization) {
  core::StochasticContext ctx(512, 0x77);
  ctx.warm_pool();
  HdHogConfig cfg;
  cfg.hog.cell_size = 4;
  cfg.hog.bins = 8;
  const HdHogExtractor hd(ctx, cfg, 16, 16);
  image::Image img(20, 12);
  std::mt19937 gen(11);
  std::uniform_real_distribution<float> dist(0.0f, 1.0f);
  for (auto& p : img.pixels()) p = dist(gen);
  const LevelIndexPlane levels = build_level_index_plane(img, hd.item_memory());
  ASSERT_EQ(levels.width, img.width());
  ASSERT_EQ(levels.height, img.height());
  for (std::size_t y = 0; y < img.height(); ++y) {
    for (std::size_t x = 0; x < img.width(); ++x) {
      EXPECT_EQ(levels.at_clamped(static_cast<std::ptrdiff_t>(x),
                                  static_cast<std::ptrdiff_t>(y)),
                hd.item_memory().index_of(static_cast<double>(img.at(x, y))))
          << "(" << x << "," << y << ")";
    }
  }
  // Clamping mirrors the gradient operator's edge handling.
  EXPECT_EQ(levels.at_clamped(static_cast<std::ptrdiff_t>(img.width()) + 5, 3),
            levels.at_clamped(static_cast<std::ptrdiff_t>(img.width()) - 1, 3));
}

}  // namespace
}  // namespace hdface::hog
