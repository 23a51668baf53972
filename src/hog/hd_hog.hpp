#pragma once

// Hyperdimensional HOG (paper §4.3): the entire feature extraction runs on
// binary hypervectors via the stochastic arithmetic of core/stochastic.hpp.
//
// Per pixel:
//   1. the pixel's intensity hypervector comes from the correlative item
//      memory (paper Fig 1a),
//   2. gradients are stochastic halved differences
//      V_Gx = V_C(x+1,y) ⊕ (−V_C(x−1,y)),
//   3. magnitude is √((G_x² + G_y²)/2) via ⊗ (with regeneration-based
//      decorrelation) and the binary-search square root,
//   4. the orientation bin is found by quadrant logic plus stochastic
//      comparisons of |G_y| against tan(θ_j)·|G_x| (cot form when the
//      boundary tangent exceeds 1), per the paper's α construction.
//
// Per cell, each orientation bin keeps a running stochastic average of the
// magnitudes that landed in it, scaled by its hit rate — i.e. the bin value
// is (Σ matched magnitudes) / (pixels per cell), the same quantity the
// classical extractor reports. Finally the (cell, bin) value hypervectors are
// key-bound and majority-bundled into one feature hypervector (see
// feature_bundler.hpp).

#include <vector>

#include "core/item_memory.hpp"
#include "core/stochastic.hpp"
#include "hog/angle_bins.hpp"
#include "hog/cell_plane.hpp"
#include "hog/feature_bundler.hpp"
#include "hog/gradient.hpp"
#include "hog/hog.hpp"
#include "hog/hog_config.hpp"
#include "image/image.hpp"

namespace hdface::hog {

enum class HdHogMode {
  // Paper-faithful: magnitude and binning fully in hyperspace.
  kFaithful,
  // Ablation / fast mode: gradients still flow through hypervectors, but
  // magnitude and binning are computed on decoded values and the magnitude
  // re-encoded. Quantifies what the in-hyperspace sqrt/compare chain costs
  // and what it buys (see bench/ablation_stochastic).
  kDecodeShortcut,
};

struct HdHogConfig {
  HogConfig hog;
  HdHogMode mode = HdHogMode::kFaithful;
  std::size_t pixel_levels = 256;  // item-memory quantization (8-bit pixels)
  // Final histogram values are normalized per window (v / max-slot-value,
  // the HD analogue of classical HOG's block normalization — without it
  // every slot is a near-zero value and all windows look alike) and then
  // re-quantized into a correlative level item memory before bundling. A
  // fresh stochastic representation of a value h is only h²-similar to
  // another fresh representation of the same h (near zero for small
  // histogram entries), so bundles of fresh constructions carry almost no
  // locality; correlative levels restore δ = 1 − |u−v|, which is what makes
  // the bundled features learnable. See DESIGN.md §2.
  std::size_t histogram_levels = 64;
  // Normalization denominator floor: windows with no gradient energy (max
  // slot below this) are treated as flat rather than amplified noise.
  double histogram_floor = 0.02;
};

class HdHogExtractor {
 public:
  // The extractor is built for a fixed window geometry (cells must tile it).
  HdHogExtractor(core::StochasticContext& ctx, const HdHogConfig& config,
                 std::size_t image_width, std::size_t image_height);

  // Copy that draws from `ctx` instead of the original's context. Item
  // memories, boundary constants and bundle keys are copied, so faulting the
  // copy's tables leaves the original's untouched (HdFacePipeline's copy
  // binds its extractor to its own context this way).
  HdHogExtractor(const HdHogExtractor& other, core::StochasticContext& ctx)
      : HdHogExtractor(other) {
    ctx_ = &ctx;
  }
  HdHogExtractor& operator=(const HdHogExtractor&) = delete;

  const HdHogConfig& config() const { return config_; }
  std::size_t cells_x() const { return cells_x_; }
  std::size_t cells_y() const { return cells_y_; }
  std::size_t slots() const { return cells_x_ * cells_y_ * config_.hog.bins; }
  const core::LevelItemMemory& item_memory() const { return item_memory_; }

  // Fault-injection hooks: mutable access to the two stored level tables
  // (pixel item memory and histogram re-quantization memory) — the "item
  // memory" storage planes the robustness study corrupts. Every encode path
  // reads these tables, so a faulted level is seen by every extraction of
  // this extractor. pipeline::faulted_copy writes them only on a copy.
  core::LevelItemMemory& mutable_item_memory() { return item_memory_; }
  core::LevelItemMemory& mutable_histogram_memory() { return histogram_memory_; }

  // Per-(cell, bin) value hypervectors plus their (window-normalized) decoded
  // values, row-major cells then bins.
  struct SlotRecord {
    std::vector<core::Hypervector> hvs;
    std::vector<double> values;
  };
  SlotRecord slot_record(const image::Image& img);

  // Convenience: hypervectors only.
  std::vector<core::Hypervector> slot_values(const image::Image& img) {
    return slot_record(img).hvs;
  }

  // Raw (pre-normalization) decoded slot values for one cell whose top-left
  // pixel is (x0, y0) in `img` — the expensive first pass of slot_record for
  // exactly one cell, written to out[0..bins). Gradients clamp at the edges
  // of `img`, so computing cells over a full scene (the CellPlane cache)
  // reads true neighbors where a cropped window would read clamped copies.
  // All stochastic arithmetic draws from `ctx`; reseed it per cell to make
  // the result a pure function of (extractor state, pixels, seed).
  void cell_raw_values(const image::Image& img, std::size_t x0, std::size_t y0,
                       core::StochasticContext& ctx, double* out) const;

  // Batched form of cell_raw_values. `levels` optionally supplies the
  // scene's precomputed pixel→level indices (see build_level_index_plane);
  // pass nullptr to quantize on the fly. The plane must match the image
  // geometry (throws std::invalid_argument). In the faithful mode with
  // ctx.pooled_fast_path() this runs the fused kernel: every per-pixel
  // stochastic op is one pass of the dispatched select_rotated kernel, each
  // pooled mask read in place through its rotation offset, so a pixel is
  // about a dozen kernel calls over a few flat word buffers per cell instead
  // of hundreds of Hypervector temporaries. It draws the reference chain's
  // RNG stream, writes its doubles and charges an attached op counter its
  // exact op counts. Otherwise the reference chain runs.
  void cell_raw_values(const image::Image& img, const LevelIndexPlane* levels,
                       std::size_t x0, std::size_t y0,
                       core::StochasticContext& ctx, double* out) const;

  // The reference per-pixel chain (pixel_gradient, pixel_bin and
  // pixel_magnitude per pixel, then a running stochastic mean per bin): the
  // only implementation of kDecodeShortcut, the fused kernel's identity and
  // op-count oracle, and micro_ops' baseline.
  void cell_raw_values_reference(const image::Image& img, std::size_t x0,
                                 std::size_t y0, core::StochasticContext& ctx,
                                 double* out) const;

  // Window assembly from a scene-level cell-plane cache: slices the window's
  // cells out of `plane`, then runs only the cheap per-window tail of
  // slot_record (vmax normalization, histogram level lookup, weighted
  // bundling). Consumes no RNG — the result is a pure function of the plane
  // and the extractor's stored tables. (origin_x, origin_y) is the window's
  // top-left pixel in the plane's scene; throws std::invalid_argument when
  // the plane geometry mismatches this extractor or the origin is off-grid.
  core::Hypervector extract_from_plane(const CellPlane& plane,
                                       std::size_t origin_x,
                                       std::size_t origin_y,
                                       core::OpCounter* counter) const;

  // Incremental window assembly for the early-reject cascade
  // (pipeline/cascade.hpp): materializes the window's feature hypervector one
  // word range at a time, so a window rejected after a low-D prefix never
  // pays for the rest of the bundle. The contract that makes this exact:
  // majority bundling is per-dimension independent and the tie-break RNG
  // restarts per window, so assembling [0, w₁), [w₁, w₂), … in ascending
  // order reproduces extract_from_plane's feature bit-for-bit at every
  // prefix — a survivor escalated to full width scores EXACTLY what the
  // non-cascaded path would score. Scratch buffers live in the object;
  // reuse one StagedWindow per scan chunk.
  class StagedWindow {
   public:
    explicit StagedWindow(const HdHogExtractor& extractor)
        : extractor_(extractor),
          tie_rng_(0),
          feature_(extractor.bundler_.dim()) {}

    // Gather + vmax-normalize + level lookup for the window at
    // (origin_x, origin_y) of `plane` (the cheap slot pass; no RNG), then
    // restart the tie-break stream. No words are assembled yet. Validation
    // as extract_from_plane.
    void reset(const CellPlane& plane, std::size_t origin_x,
               std::size_t origin_y);

    // Prescreen variant of reset: gathers ONLY the window's cells on the
    // even/even parity subgrid of the plane (absolute grid coordinates, so
    // overlapping windows share the same subset cells — what lets the lazy
    // plane serve every prescreen from ~¼ of the cells). Excluded slots get
    // weight 0.0 (dropped by the bundler's min-weight skip before any
    // dereference). Subset values normalize by `norm_scale` when > 0 (the
    // table's calibrated prescreen_vmax, clamped to 1.0 — a fixed scale keeps
    // structureless windows at LOW histogram levels instead of inflating
    // them by their own tiny maximum) or by the subset's own vmax when 0.
    // The feature assembled after this call is the prescreen feature, NOT a
    // prefix of the full window feature — a surviving window must be
    // reset() again before staged cascade assembly. Never reads a cell off
    // the parity subgrid (the lazy-plane safety contract). Requires
    // plane.grid_step == cell_size (otherwise window-relative parity
    // degenerates; throws std::invalid_argument).
    void reset_prescreen(const CellPlane& plane, std::size_t origin_x,
                         std::size_t origin_y, double norm_scale = 0.0);

    // Orientation-spread energy of the parity subset gathered by the last
    // reset_prescreen (raw histogram mass off bin 0 — see
    // gather_plane_slots_prescreen). Meaningless after a plain reset().
    double prescreen_spread() const { return prescreen_spread_; }

    // Extends the materialized feature to exactly `word_hi` words (no-op when
    // already there) and returns it. Only words [0, assembled_words()) of the
    // returned hypervector are meaningful; pass total_words() for the full
    // exact feature. Calls must ascend; throws std::invalid_argument on a
    // shrinking range or word_hi > total_words().
    const core::Hypervector& assemble_to(std::size_t word_hi,
                                         core::OpCounter* counter = nullptr);

    std::size_t assembled_words() const { return assembled_words_; }
    std::size_t total_words() const { return feature_.num_words(); }
    std::size_t dim() const { return feature_.dim(); }
    const core::Hypervector& feature() const { return feature_; }

   private:
    const HdHogExtractor& extractor_;
    std::vector<const core::Hypervector*> hvs_;
    std::vector<double> values_;
    FeatureBundler::RangeScratch scratch_;  // reused across ranges
    core::Rng tie_rng_;
    core::Hypervector feature_;
    std::size_t assembled_words_ = 0;
    double prescreen_spread_ = 0.0;
  };

  // Single bundled feature hypervector (the HDC learner's input).
  core::Hypervector extract(const image::Image& img);

  // Re-entrant variants: all stochastic arithmetic runs on the caller-owned
  // `ctx` (typically a fork of the construction context — see
  // StochasticContext::fork), so any number of threads may extract
  // concurrently, each with its own fork. The extractor's own state (item
  // memories, boundary constants, bundle keys) is read-only here.
  core::Hypervector extract(const image::Image& img,
                            core::StochasticContext& ctx) const;
  SlotRecord slot_record(const image::Image& img,
                         core::StochasticContext& ctx) const;

  // Decoded per-cell histograms in the bundled feature's value domain, i.e.
  // window-normalized to [0, 1] (verification against the classical HOG
  // after the same normalization).
  CellHistograms decode_histograms(const image::Image& img);

  // Hyperspace gradient pair for one pixel (exposed for tests).
  struct GradientHv {
    core::Hypervector gx;
    core::Hypervector gy;
  };
  GradientHv pixel_gradient(const image::Image& img, std::size_t x, std::size_t y);
  GradientHv pixel_gradient(const image::Image& img, std::size_t x, std::size_t y,
                            core::StochasticContext& ctx) const;

  // Hyperspace magnitude √((gx²+gy²)/2) for one pixel (exposed for tests).
  core::Hypervector pixel_magnitude(const GradientHv& grad);
  core::Hypervector pixel_magnitude(const GradientHv& grad,
                                    core::StochasticContext& ctx) const;

  // Hyperspace orientation bin for one pixel (exposed for tests).
  std::size_t pixel_bin(const GradientHv& grad);
  std::size_t pixel_bin(const GradientHv& grad,
                        core::StochasticContext& ctx) const;

 private:
  const core::Hypervector& pixel_hv(float value) const {
    return item_memory_.at_value(static_cast<double>(value));
  }

  // Shared per-window tail: vmax normalization + histogram level lookup over
  // raw slot values (row-major cells then bins). Consumes no RNG.
  SlotRecord normalize_slots(std::vector<double> values) const;

  // Borrowed-slot gather shared by extract_from_plane and StagedWindow:
  // validates the plane/origin and fills hvs/values (resized to slots())
  // with the window's normalized slot pointers and weights. Consumes no RNG.
  void gather_plane_slots(const CellPlane& plane, std::size_t origin_x,
                          std::size_t origin_y,
                          std::vector<const core::Hypervector*>& hvs,
                          std::vector<double>& values) const;

  // Parity-subset gather for StagedWindow::reset_prescreen (see its doc).
  // Returns the subset's orientation-spread energy: Σ over included cells of
  // Σ_{b ≥ 1} |raw_b|, i.e. the total raw histogram mass OFF bin 0. Zero
  // gradient resolves to bin 0 (atan2(0, 0)), so a structureless cell parks
  // its entire mass there and contributes ~nothing, while any oriented
  // texture spreads mass across the other bins — which makes the spread a
  // cheap scalar separator between empty background and faces that the
  // prefix-Hamming margin alone cannot provide.
  double gather_plane_slots_prescreen(
      const CellPlane& plane, std::size_t origin_x, std::size_t origin_y,
      double norm_scale, std::vector<const core::Hypervector*>& hvs,
      std::vector<double>& values) const;

  // The fused cell kernel (see the batched cell_raw_values overload).
  void cell_raw_values_fused(const image::Image& img,
                             const LevelIndexPlane* levels, std::size_t x0,
                             std::size_t y0, core::StochasticContext& ctx,
                             double* out) const;

  // Only the rebinding copy constructor copies an extractor as a whole.
  HdHogExtractor(const HdHogExtractor&) = default;

  core::StochasticContext* ctx_;
  HdHogConfig config_;
  std::size_t cells_x_;
  std::size_t cells_y_;
  core::LevelItemMemory item_memory_;
  core::LevelItemMemory histogram_memory_;
  AngleBinner binner_;
  // Constant hypervectors for the boundary comparisons: V_{tanθ_j} when the
  // tangent is ≤ 1, V_{cotθ_j} otherwise (paper's |r| > 1 case).
  std::vector<core::Hypervector> boundary_consts_;
  std::vector<bool> boundary_uses_cot_;
  // boundary_consts_[j] ^ V₁, precomputed so the fused cell chain turns the
  // boundary multiply into a single XOR pass (V_c ⊗ V_x = (V_c ^ V₁) ^ V_x).
  std::vector<core::Hypervector> boundary_consts_xor_basis_;
  FeatureBundler bundler_;
};

}  // namespace hdface::hog
