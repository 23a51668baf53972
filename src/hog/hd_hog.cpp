#include "hog/hd_hog.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/kernels/kernels.hpp"

namespace hdface::hog {

HdHogExtractor::HdHogExtractor(core::StochasticContext& ctx,
                               const HdHogConfig& config, std::size_t image_width,
                               std::size_t image_height)
    : ctx_(&ctx),
      config_(config),
      cells_x_(config.hog.cells_x(image_width)),
      cells_y_(config.hog.cells_y(image_height)),
      item_memory_(ctx, config.pixel_levels, 0.0, 1.0),
      histogram_memory_(ctx, config.histogram_levels, 0.0, 1.0),
      binner_(config.hog.bins),
      bundler_(ctx, cells_x_, cells_y_, config.hog.bins) {
  if (cells_x_ == 0 || cells_y_ == 0) {
    throw std::invalid_argument("HdHogExtractor: image smaller than one cell");
  }
  for (double t : binner_.boundary_tans()) {
    if (t <= 1.0) {
      boundary_consts_.push_back(ctx_->construct(t));
      boundary_uses_cot_.push_back(false);
    } else {
      boundary_consts_.push_back(ctx_->construct(1.0 / t));
      boundary_uses_cot_.push_back(true);
    }
  }
  boundary_consts_xor_basis_.reserve(boundary_consts_.size());
  for (const auto& c : boundary_consts_) {
    boundary_consts_xor_basis_.push_back(c ^ ctx_->basis());
  }
}

HdHogExtractor::GradientHv HdHogExtractor::pixel_gradient(const image::Image& img,
                                                          std::size_t x,
                                                          std::size_t y) {
  return pixel_gradient(img, x, y, *ctx_);
}

HdHogExtractor::GradientHv HdHogExtractor::pixel_gradient(
    const image::Image& img, std::size_t x, std::size_t y,
    core::StochasticContext& ctx) const {
  const auto xi = static_cast<std::ptrdiff_t>(x);
  const auto yi = static_cast<std::ptrdiff_t>(y);
  // V_Gx = V_C(x+1) ⊕ (−V_C(x−1)) represents (C(x+1) − C(x−1)) / 2.
  GradientHv g{
      ctx.add_halved(pixel_hv(img.at_clamped(xi + 1, yi)),
                     ~pixel_hv(img.at_clamped(xi - 1, yi))),
      ctx.add_halved(pixel_hv(img.at_clamped(xi, yi + 1)),
                     ~pixel_hv(img.at_clamped(xi, yi - 1))),
  };
  return g;
}

core::Hypervector HdHogExtractor::pixel_magnitude(const GradientHv& grad) {
  return pixel_magnitude(grad, *ctx_);
}

core::Hypervector HdHogExtractor::pixel_magnitude(
    const GradientHv& grad, core::StochasticContext& ctx) const {
  if (config_.mode == HdHogMode::kDecodeShortcut) {
    const double gx = ctx.decode(grad.gx);
    const double gy = ctx.decode(grad.gy);
    return ctx.construct(std::sqrt((gx * gx + gy * gy) / 2.0));
  }
  // (G_x ⊗ G_x) ⊕ (G_y ⊗ G_y), then the binary-search square root. The two
  // squares are sequenced explicitly (gy first — the order the original
  // nested-call form compiled to) so the RNG draw order is pinned by the
  // source rather than by argument evaluation order; the batched cell
  // encoder replays this exact stream.
  const core::Hypervector sq_gy = ctx.square(grad.gy);
  const core::Hypervector sq_gx = ctx.square(grad.gx);
  const core::Hypervector m2 = ctx.add_halved(sq_gx, sq_gy);
  return ctx.sqrt(m2);
}

std::size_t HdHogExtractor::pixel_bin(const GradientHv& grad) {
  return pixel_bin(grad, *ctx_);
}

std::size_t HdHogExtractor::pixel_bin(const GradientHv& grad,
                                      core::StochasticContext& ctx) const {
  if (config_.mode == HdHogMode::kDecodeShortcut) {
    // Snap decoded components below the statistical noise floor to zero so
    // the quadrant convention matches the faithful path (zero → positive)
    // instead of letting decode noise pick the quadrant.
    const double eps = 2.0 / std::sqrt(static_cast<double>(ctx.dim()));
    double gx = ctx.decode(grad.gx);
    double gy = ctx.decode(grad.gy);
    if (std::fabs(gx) < eps) gx = 0.0;
    if (std::fabs(gy) < eps) gy = 0.0;
    return binner_.bin_of(static_cast<float>(gx), static_cast<float>(gy));
  }
  // Quadrant from hyperspace signs (zeros count as positive, matching the
  // reference binner's convention).
  const int sgx = ctx.sign_of(grad.gx) < 0 ? -1 : 1;
  const int sgy = ctx.sign_of(grad.gy) < 0 ? -1 : 1;
  const std::size_t q = AngleBinner::quadrant(sgx, sgy);

  const core::Hypervector abs_gx = sgx < 0 ? ~grad.gx : grad.gx;
  const core::Hypervector abs_gy = sgy < 0 ? ~grad.gy : grad.gy;
  const bool gy_over_gx = AngleBinner::ratio_is_gy_over_gx(q);
  const core::Hypervector& num = gy_over_gx ? abs_gy : abs_gx;
  const core::Hypervector& den = gy_over_gx ? abs_gx : abs_gy;

  std::vector<bool> greater;
  greater.reserve(boundary_consts_.size());
  for (std::size_t j = 0; j < boundary_consts_.size(); ++j) {
    // α = (num − r·den)/2 via V_α = 0.5·V_lhs ⊕ 0.5·(−V_rhs); sign of the
    // decoded α decides the comparison (paper §4.3). For boundaries with
    // tan > 1 the cot form compares cot(θ)·num against den instead.
    core::Hypervector lhs =
        boundary_uses_cot_[j] ? ctx.multiply(boundary_consts_[j], num) : num;
    core::Hypervector rhs =
        boundary_uses_cot_[j] ? den : ctx.multiply(boundary_consts_[j], den);
    greater.push_back(ctx.compare(lhs, rhs) > 0);
  }
  return binner_.global_bin(q, binner_.local_bin_from_comparisons(greater));
}

HdHogExtractor::SlotRecord HdHogExtractor::slot_record(const image::Image& img) {
  return slot_record(img, *ctx_);
}

void HdHogExtractor::cell_raw_values(const image::Image& img, std::size_t x0,
                                     std::size_t y0,
                                     core::StochasticContext& ctx,
                                     double* out) const {
  cell_raw_values(img, nullptr, x0, y0, ctx, out);
}

void HdHogExtractor::cell_raw_values(const image::Image& img,
                                     const LevelIndexPlane* levels,
                                     std::size_t x0, std::size_t y0,
                                     core::StochasticContext& ctx,
                                     double* out) const {
  if (levels != nullptr &&
      (levels->width != img.width() || levels->height != img.height())) {
    throw std::invalid_argument(
        "HdHogExtractor: level-index plane geometry mismatches the image");
  }
  if (config_.mode == HdHogMode::kFaithful && ctx.pooled_fast_path()) {
    cell_raw_values_fused(img, levels, x0, y0, ctx, out);
    return;
  }
  cell_raw_values_reference(img, x0, y0, ctx, out);
}

void HdHogExtractor::cell_raw_values_reference(const image::Image& img,
                                               std::size_t x0, std::size_t y0,
                                               core::StochasticContext& ctx,
                                               double* out) const {
  const std::size_t bins = config_.hog.bins;
  const std::size_t cell = config_.hog.cell_size;
  const std::size_t pixels_per_cell = cell * cell;

  std::vector<core::Hypervector> bin_mean(bins);
  std::vector<std::size_t> bin_count(bins);
  for (std::size_t py = 0; py < cell; ++py) {
    for (std::size_t px = 0; px < cell; ++px) {
      const std::size_t x = x0 + px;
      const std::size_t y = y0 + py;
      GradientHv grad = pixel_gradient(img, x, y, ctx);
      const std::size_t bin = pixel_bin(grad, ctx);
      core::Hypervector mag = pixel_magnitude(grad, ctx);
      // Running stochastic mean of the magnitudes matched to this bin.
      auto& n = bin_count[bin];
      if (n == 0) {
        bin_mean[bin] = std::move(mag);
      } else {
        const double keep = static_cast<double>(n) / static_cast<double>(n + 1);
        bin_mean[bin] = ctx.weighted_average(bin_mean[bin], mag, keep);
      }
      ++n;
    }
  }
  // Bin value = mean of matched magnitudes × hit rate
  //           = (Σ matched magnitudes) / pixels-per-cell,
  // read out via the hyperspace decode.
  for (std::size_t b = 0; b < bins; ++b) {
    if (bin_count[b] == 0) {
      out[b] = 0.0;
    } else {
      const double rate = static_cast<double>(bin_count[b]) /
                          static_cast<double>(pixels_per_cell);
      out[b] = ctx.decode(ctx.scale(bin_mean[b], rate));
    }
  }
}

void HdHogExtractor::cell_raw_values_fused(const image::Image& img,
                                           const LevelIndexPlane* levels,
                                           std::size_t x0, std::size_t y0,
                                           core::StochasticContext& ctx,
                                           double* out) const {
  // Every stochastic op of the reference chain is one pass of the
  // dispatched select_rotated kernel. The working vectors are kept XORed
  // with the basis (u = v ^ V₁, so decode(v) = 1 − 2·popcount(u)/D), which
  // turns each op into a select between two XOR pairs under a pooled mask:
  //
  //   add_halved(a, ~b) ^ V₁   = M ? a ^ V₁ : ~b ^ V₁
  //   square(v) ^ V₁           = u ^ R            (R: the regeneration mask;
  //                                                the basis cancels)
  //   construct(m) ^ V₁        = R
  //   compare / scale + decode = popcount of the select itself
  //
  // and every mask is passed as its pool entry plus rotation offset.
  // Draw-for-draw parity with the reference chain is the correctness
  // contract: each pooled_mask_view below stands where the reference draws
  // its bernoulli_mask, in the same order with the same probability, so the
  // RNG stream — and therefore every output double — is bit-identical.
  //
  // Op charges match the reference chain's too. pooled_mask_view charges
  // each draw as bernoulli_mask does; the word passes the reference ops
  // charge beyond their masks (core/stochastic.cpp) are tallied below in
  // whole-vector passes and charged once, at the end of the cell.
  constexpr std::uint64_t kSelect = 3;     // weighted_average's select
  constexpr std::uint64_t kDecode = 1;     // decode (+ one popcount pass)
  constexpr std::uint64_t kConstruct = 1;  // construct's basis XOR
  constexpr std::uint64_t kMultiply = 2;   // a ^ b ^ V₁
  // compare: negate, select, decode (+ one popcount pass).
  constexpr std::uint64_t kCompare = 1 + kSelect + kDecode;
  std::uint64_t logic_passes = 0;
  std::uint64_t popcount_passes = 0;

  using View = core::kernels::WordView;
  const auto& kt = core::kernels::active();
  const std::size_t bins = config_.hog.bins;
  const std::size_t cell = config_.hog.cell_size;
  const std::size_t pixels_per_cell = cell * cell;
  const std::size_t n = ctx.basis().num_words();
  const double dimd = static_cast<double>(ctx.dim());
  const double eps = 2.0 / std::sqrt(dimd);
  const View basis{ctx.basis().words().data()};
  const int iters = ctx.effective_search_iters();
  const auto decode = [dimd](std::uint64_t h) {
    return 1.0 - 2.0 * static_cast<double>(h) / dimd;
  };

  // Flat word workspace: the gradient pair and the squared magnitude (all
  // basis-XORed), plus a sink for passes that only need the popcount.
  std::vector<std::uint64_t> ws(4 * n);
  std::uint64_t* gx = ws.data();
  std::uint64_t* gy = gx + n;
  std::uint64_t* m2 = gy + n;
  std::uint64_t* sink = m2 + n;
  std::vector<std::uint64_t> bin_mean(bins * n);  // basis-XORed
  std::vector<std::size_t> bin_count(bins, 0);
  std::vector<bool> greater(boundary_consts_.size());

  const auto pix = [&](std::ptrdiff_t x, std::ptrdiff_t y) {
    if (levels != nullptr) {
      return View{item_memory_.level(levels->at_clamped(x, y)).words().data()};
    }
    return View{item_memory_.at_value(static_cast<double>(img.at_clamped(x, y)))
                    .words()
                    .data()};
  };

  for (std::size_t py = 0; py < cell; ++py) {
    for (std::size_t px = 0; px < cell; ++px) {
      const auto xi = static_cast<std::ptrdiff_t>(x0 + px);
      const auto yi = static_cast<std::ptrdiff_t>(y0 + py);
      // Gradient V_G = A ⊕ (−B); the pass's popcount is the sign decode.
      const double dgx = decode(kt.select_rotated(
          {.p1 = pix(xi + 1, yi), .p2 = basis, .q1 = pix(xi - 1, yi),
           .q2 = basis, .q_flip = ~0ULL, .m = ctx.pooled_mask_view(0.5)},
          gx, n));
      const double dgy = decode(kt.select_rotated(
          {.p1 = pix(xi, yi + 1), .p2 = basis, .q1 = pix(xi, yi - 1),
           .q2 = basis, .q_flip = ~0ULL, .m = ctx.pooled_mask_view(0.5)},
          gy, n));
      // Two add_halved selects, then pixel_bin's two sign decodes.
      logic_passes += 2 * (kSelect + kDecode);
      popcount_passes += 2;

      // Orientation bin: quadrant from the signs, then one fused compare per
      // interior boundary.
      const int sgx = dgx < -eps ? -1 : 1;
      const int sgy = dgy < -eps ? -1 : 1;
      const std::size_t q = AngleBinner::quadrant(sgx, sgy);
      const bool gy_over = AngleBinner::ratio_is_gy_over_gx(q);
      const std::uint64_t fgx = sgx < 0 ? ~0ULL : 0ULL;
      const std::uint64_t fgy = sgy < 0 ? ~0ULL : 0ULL;
      const View num{gy_over ? gy : gx};
      const View den{gy_over ? gx : gy};
      const std::uint64_t fnum = gy_over ? fgy : fgx;
      const std::uint64_t fden = gy_over ? fgx : fgy;
      for (std::size_t j = 0; j < boundary_consts_.size(); ++j) {
        // compare(L, R) decodes add_halved(L, ~R) = M ? L : ~R with
        // L, R the |num|, |den| operands and c_j ⊗ v = (c_j ^ V₁) ^ v on the
        // multiplied side: the basis-XORed arms are num ^ fnum and
        // den ^ ~fden, with c_j ^ V₁ folded into one of them.
        const View cjb{boundary_consts_xor_basis_[j].words().data()};
        const View none{};
        const bool cot = boundary_uses_cot_[j];
        const double d = decode(kt.select_rotated(
            {.p1 = num, .p2 = cot ? cjb : none, .p_flip = fnum, .q1 = den,
             .q2 = cot ? none : cjb, .q_flip = ~fden,
             .m = ctx.pooled_mask_view(0.5)},
            sink, n));
        greater[j] = d > eps / 2.0;
      }
      // Each boundary multiplies by c_j, then compares.
      logic_passes += boundary_consts_.size() * (kMultiply + kCompare);
      popcount_passes += boundary_consts_.size();
      const std::size_t bin =
          binner_.global_bin(q, binner_.local_bin_from_comparisons(greater));

      // Magnitude: the two squares (gy first, matching the reference chain's
      // pinned order) and their halved sum in one pass.
      {
        const View ry = ctx.pooled_mask_view((1.0 - dgy) / 2.0);
        const View rx = ctx.pooled_mask_view((1.0 - dgx) / 2.0);
        kt.select_rotated({.p1 = View{gx}, .p2 = rx, .q1 = View{gy}, .q2 = ry,
                           .m = ctx.pooled_mask_view(0.5)},
                          m2, n);
      }
      // Each square is multiply(v, construct(decode(v))); then the halved sum.
      logic_passes += 2 * (kDecode + kConstruct + kMultiply) + kSelect;
      popcount_passes += 2;

      // Binary-search sqrt. Each step compares mid² = construct(m) ⊗
      // construct(m) against m2, i.e. decodes M ? R₁ ^ R₂ : ~m2; the
      // pre-loop construct(0.5) is overwritten by the first step but still
      // advances the stream, and mid ^ V₁ = R₁ of the last step that ran.
      View mid = ctx.pooled_mask_view(0.25);
      logic_passes += kConstruct;
      double lo = 0.0;
      double hi = 1.0;
      for (int it = 0; it < iters; ++it) {
        const double mval = (lo + hi) / 2.0;
        mid = ctx.pooled_mask_view((1.0 - mval) / 2.0);
        const View r2 = ctx.pooled_mask_view((1.0 - mval) / 2.0);
        const double d = decode(kt.select_rotated(
            {.p1 = mid, .p2 = r2, .q1 = View{m2}, .q_flip = ~0ULL,
             .m = ctx.pooled_mask_view(0.5)},
            sink, n));
        // Two constructs of the midpoint, their product, the compare.
        logic_passes += 2 * kConstruct + kMultiply + kCompare;
        popcount_passes += 1;
        const int c = d > eps / 2.0 ? 1 : (d < -eps / 2.0 ? -1 : 0);
        if (c > 0) {
          hi = mval;
        } else if (c < 0) {
          lo = mval;
        } else {
          break;
        }
      }

      // Running stochastic mean of the magnitudes matched to this bin:
      // mean = M ? mean : mid, or mid itself for the bin's first pixel (a
      // select with mid on both arms is the rotated copy).
      std::uint64_t* mean = bin_mean.data() + bin * n;
      auto& cnt = bin_count[bin];
      if (cnt == 0) {
        kt.select_rotated({.p1 = mid, .q1 = mid, .m = mid}, mean, n);
      } else {
        const double keep =
            static_cast<double>(cnt) / static_cast<double>(cnt + 1);
        kt.select_rotated(
            {.p1 = View{mean}, .q1 = mid, .m = ctx.pooled_mask_view(keep)},
            mean, n);
        logic_passes += kSelect;
      }
      ++cnt;
    }
  }

  // Readout: scale-by-rate (average with a fresh zero, whose basis-XORed
  // form is its mask) fused with the decode.
  for (std::size_t b = 0; b < bins; ++b) {
    if (bin_count[b] == 0) {
      out[b] = 0.0;
      continue;
    }
    const double rate = static_cast<double>(bin_count[b]) /
                        static_cast<double>(pixels_per_cell);
    const View zero = ctx.pooled_mask_view(0.5);
    out[b] = decode(kt.select_rotated(
        {.p1 = View{bin_mean.data() + b * n}, .q1 = zero,
         .m = ctx.pooled_mask_view(rate)},
        sink, n));
    // scale() constructs the zero and selects; then the decode.
    logic_passes += kConstruct + kSelect + kDecode;
    popcount_passes += 1;
  }
  if (core::OpCounter* counter = ctx.counter()) {
    counter->add(core::OpKind::kWordLogic, logic_passes * n);
    counter->add(core::OpKind::kPopcount, popcount_passes * n);
  }
}

HdHogExtractor::SlotRecord HdHogExtractor::normalize_slots(
    std::vector<double> values) const {
  // Window normalization (the HD analogue of HOG block normalization) and
  // correlative level re-quantization (see HdHogConfig).
  double vmax = config_.histogram_floor;
  for (double v : values) vmax = std::max(vmax, v);
  SlotRecord record;
  record.hvs.reserve(values.size());
  record.values.reserve(values.size());
  for (double v : values) {
    const double normalized = std::max(0.0, v) / vmax;
    record.values.push_back(normalized);
    record.hvs.push_back(histogram_memory_.at_value(normalized));
  }
  return record;
}

HdHogExtractor::SlotRecord HdHogExtractor::slot_record(
    const image::Image& img, core::StochasticContext& ctx) const {
  if (config_.hog.cells_x(img.width()) != cells_x_ ||
      config_.hog.cells_y(img.height()) != cells_y_) {
    throw std::invalid_argument("HdHogExtractor: image geometry mismatch");
  }
  const std::size_t bins = config_.hog.bins;
  const std::size_t cell = config_.hog.cell_size;

  // First pass: per-(cell, bin) decoded histogram values from the hyperspace
  // magnitude/bin chain, row-major over the window's cells on one continuous
  // RNG chain (the seed-compatible stream; the CellPlane cache instead
  // reseeds per cell — see cell_plane.hpp).
  std::vector<double> values(cells_x_ * cells_y_ * bins);
  for (std::size_t cy = 0; cy < cells_y_; ++cy) {
    for (std::size_t cx = 0; cx < cells_x_; ++cx) {
      cell_raw_values(img, cx * cell, cy * cell, ctx,
                      values.data() + (cy * cells_x_ + cx) * bins);
    }
  }
  return normalize_slots(std::move(values));
}

void HdHogExtractor::gather_plane_slots(
    const CellPlane& plane, std::size_t origin_x, std::size_t origin_y,
    std::vector<const core::Hypervector*>& hvs,
    std::vector<double>& values) const {
  if (plane.bins != config_.hog.bins ||
      plane.cell_size != config_.hog.cell_size) {
    throw std::invalid_argument(
        "HdHogExtractor: cell plane geometry mismatches this extractor");
  }
  if (!plane.window_on_grid(origin_x, origin_y, cells_x_, cells_y_)) {
    throw std::invalid_argument(
        "HdHogExtractor: window origin off the cell-plane grid");
  }
  const std::size_t bins = config_.hog.bins;
  const std::size_t cell = config_.hog.cell_size;
  const std::size_t n_slots = cells_x_ * cells_y_ * bins;

  double vmax = config_.histogram_floor;
  std::vector<double> raw(n_slots);
  std::size_t s = 0;
  for (std::size_t cy = 0; cy < cells_y_; ++cy) {
    for (std::size_t cx = 0; cx < cells_x_; ++cx) {
      const std::size_t gx = (origin_x + cx * cell) / plane.grid_step;
      const std::size_t gy = (origin_y + cy * cell) / plane.grid_step;
      const double* cached = plane.cell(gx, gy);
      for (std::size_t b = 0; b < bins; ++b, ++s) {
        raw[s] = cached[b];
        vmax = std::max(vmax, cached[b]);
      }
    }
  }
  hvs.resize(n_slots);
  values.resize(n_slots);
  for (std::size_t i = 0; i < n_slots; ++i) {
    const double normalized = std::max(0.0, raw[i]) / vmax;
    values[i] = normalized;
    hvs[i] = &histogram_memory_.at_value(normalized);
  }
}

double HdHogExtractor::gather_plane_slots_prescreen(
    const CellPlane& plane, std::size_t origin_x, std::size_t origin_y,
    double norm_scale,
    std::vector<const core::Hypervector*>& hvs,
    std::vector<double>& values) const {
  if (plane.bins != config_.hog.bins ||
      plane.cell_size != config_.hog.cell_size) {
    throw std::invalid_argument(
        "HdHogExtractor: cell plane geometry mismatches this extractor");
  }
  if (plane.grid_step != config_.hog.cell_size) {
    throw std::invalid_argument(
        "HdHogExtractor: prescreen requires grid_step == cell_size (stride a "
        "multiple of the cell size)");
  }
  if (!plane.window_on_grid(origin_x, origin_y, cells_x_, cells_y_)) {
    throw std::invalid_argument(
        "HdHogExtractor: window origin off the cell-plane grid");
  }
  const std::size_t bins = config_.hog.bins;
  const std::size_t cell = config_.hog.cell_size;
  const std::size_t n_slots = cells_x_ * cells_y_ * bins;

  // Subset gather: only cells on the plane's even/even parity grid are read
  // (under a lazy plane the others may not exist yet). Excluded slots keep a
  // valid pointer — the bundler's min-weight skip runs before the
  // dereference, but the pointer must not dangle — with weight exactly 0.0.
  double vmax = config_.histogram_floor;
  double spread = 0.0;
  std::vector<double> raw(n_slots, -1.0);  // < 0 marks "excluded"
  std::size_t s = 0;
  for (std::size_t cy = 0; cy < cells_y_; ++cy) {
    for (std::size_t cx = 0; cx < cells_x_; ++cx) {
      const std::size_t gx = (origin_x + cx * cell) / plane.grid_step;
      const std::size_t gy = (origin_y + cy * cell) / plane.grid_step;
      if (gx % 2 != 0 || gy % 2 != 0) {
        s += bins;
        continue;
      }
      const double* cached = plane.cell(gx, gy);
      for (std::size_t b = 0; b < bins; ++b, ++s) {
        raw[s] = cached[b];
        vmax = std::max(vmax, cached[b]);
        if (b > 0) spread += std::abs(cached[b]);
      }
    }
  }
  hvs.resize(n_slots);
  values.resize(n_slots);
  const core::Hypervector* filler = &histogram_memory_.level(0);
  for (std::size_t i = 0; i < n_slots; ++i) {
    if (raw[i] < 0.0) {
      values[i] = 0.0;
      hvs[i] = filler;
      continue;
    }
    const double scale = norm_scale > 0.0 ? norm_scale : vmax;
    const double normalized =
        std::min(1.0, std::max(0.0, raw[i]) / scale);
    values[i] = normalized;
    hvs[i] = &histogram_memory_.at_value(normalized);
  }
  return spread;
}

core::Hypervector HdHogExtractor::extract_from_plane(
    const CellPlane& plane, std::size_t origin_x, std::size_t origin_y,
    core::OpCounter* counter) const {
  // Same validation and values as slot_record + bundle_weighted over the
  // plane's cells, but allocation-light: slot hypervectors stay inside
  // histogram_memory_ and are bundled by pointer. Per-window cost is what
  // makes the cell-plane cache pay off, so this path must stay at "cheap
  // tail" scale. Output is bit-identical to the record-based form.
  std::vector<const core::Hypervector*> hvs;
  std::vector<double> values;
  gather_plane_slots(plane, origin_x, origin_y, hvs, values);
  return bundler_.bundle_weighted_refs(hvs, values, config_.histogram_floor,
                                       counter);
}

void HdHogExtractor::StagedWindow::reset(const CellPlane& plane,
                                         std::size_t origin_x,
                                         std::size_t origin_y) {
  extractor_.gather_plane_slots(plane, origin_x, origin_y, hvs_, values_);
  // Restarting the tie stream here is what keeps staged assembly
  // bit-identical to the one-shot bundle: ascending ranges sharing this Rng
  // consume the zero-dimension draws in exactly the full bundle's order.
  tie_rng_ = core::Rng(extractor_.bundler_.tie_seed());
  assembled_words_ = 0;
}

void HdHogExtractor::StagedWindow::reset_prescreen(const CellPlane& plane,
                                                   std::size_t origin_x,
                                                   std::size_t origin_y,
                                                   double norm_scale) {
  prescreen_spread_ = extractor_.gather_plane_slots_prescreen(
      plane, origin_x, origin_y, norm_scale, hvs_, values_);
  tie_rng_ = core::Rng(extractor_.bundler_.tie_seed());
  assembled_words_ = 0;
}

const core::Hypervector& HdHogExtractor::StagedWindow::assemble_to(
    std::size_t word_hi, core::OpCounter* counter) {
  if (word_hi == assembled_words_) return feature_;
  if (word_hi < assembled_words_ || word_hi > total_words()) {
    throw std::invalid_argument(
        "StagedWindow: assemble_to ranges must ascend within the feature");
  }
  extractor_.bundler_.bundle_weighted_refs_range(
      hvs_, values_, extractor_.config_.histogram_floor, assembled_words_,
      word_hi, tie_rng_, scratch_, feature_, counter);
  assembled_words_ = word_hi;
  return feature_;
}

core::Hypervector HdHogExtractor::extract(const image::Image& img) {
  return extract(img, *ctx_);
}

core::Hypervector HdHogExtractor::extract(const image::Image& img,
                                          core::StochasticContext& ctx) const {
  // Weighted sparse bundling: each slot votes with its histogram value so
  // empty bins vanish instead of drowning the informative minority (see
  // feature_bundler.hpp).
  const SlotRecord record = slot_record(img, ctx);
  return bundler_.bundle_weighted(record.hvs, record.values,
                                  config_.histogram_floor, ctx.counter());
}

CellHistograms HdHogExtractor::decode_histograms(const image::Image& img) {
  const SlotRecord record = slot_record(img);
  CellHistograms cells;
  cells.cells_x = cells_x_;
  cells.cells_y = cells_y_;
  cells.bins = config_.hog.bins;
  cells.values.resize(record.hvs.size());
  for (std::size_t i = 0; i < record.hvs.size(); ++i) {
    cells.values[i] = static_cast<float>(ctx_->decode(record.hvs[i]));
  }
  return cells;
}

}  // namespace hdface::hog
