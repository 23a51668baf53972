#pragma once

// Combines per-(cell, bin) value hypervectors into a single image-level
// feature hypervector.
//
// Each slot (cell c, orientation bin b) gets a fixed random key K_{c,b}; the
// slot's value hypervector V_h is bound (XOR) with its key and all bound
// vectors are majority-bundled. The result is a single binary hypervector in
// which "which orientations dominate which cells" is holographically
// distributed — the form the paper's HDC learner consumes directly with no
// further encoding (paper §5: "extracted features are already in
// high-dimensional space").
//
// The weighted variant votes each bound slot with its histogram value and
// drops near-zero slots entirely. HOG histograms are sparse: most slots are
// ~0 in every window, and bundling them equally buries the informative
// minority under identical common-mode content (superposition cross-talk is
// the capacity limit at fixed D — see bench/ablation_stochastic). Weighted
// sparse bundling is what the end-to-end pipeline uses.

#include <cstdint>
#include <vector>

#include "core/hypervector.hpp"
#include "core/stochastic.hpp"

namespace hdface::hog {

class FeatureBundler {
 public:
  // Keys are derived deterministically from the context seed; any extractor
  // built over the same context produces compatible features.
  FeatureBundler(const core::StochasticContext& ctx, std::size_t cells_x,
                 std::size_t cells_y, std::size_t bins);

  std::size_t slots() const { return keys_.size(); }
  const core::Hypervector& key(std::size_t cell_index, std::size_t bin) const;

  // Bundle one image's slot value hypervectors (row-major cells × bins order,
  // matching key layout) into a single binary hypervector with uniform votes.
  core::Hypervector bundle(const std::vector<core::Hypervector>& slot_values,
                           core::OpCounter* counter = nullptr) const;

  // Weighted bundle: slot s votes with weight `weights[s]`; slots with
  // |weight| < min_weight are skipped (sparse superposition).
  core::Hypervector bundle_weighted(
      const std::vector<core::Hypervector>& slot_values,
      const std::vector<double>& weights, double min_weight = 0.02,
      core::OpCounter* counter = nullptr) const;

  // Borrowed-slot variant with bit-identical output: slot hypervectors are
  // passed by pointer (typically straight into a stored level item memory),
  // so no per-slot hypervector is allocated. This is the window-assembly hot
  // path of the cell-plane encode cache, where the per-window cost must stay
  // at "cheap tail" scale (see hog/cell_plane.hpp). It is the range call
  // below over every word with a fresh tie stream.
  core::Hypervector bundle_weighted_refs(
      const std::vector<const core::Hypervector*>& slot_values,
      const std::vector<double>& weights, double min_weight = 0.02,
      core::OpCounter* counter = nullptr) const;

  // Feature dimensionality (every key shares it).
  std::size_t dim() const { return keys_.front().dim(); }

  // Seed of the per-window-restarted tie-break RNG. Staged range bundling
  // (below) threads one caller-owned Rng across ranges; restarting it from
  // this seed per window reproduces bundle_weighted_refs' draws exactly.
  std::uint64_t tie_seed() const { return tie_seed_; }

  // Caller-owned scratch of bundle_weighted_refs_range: the kept slots'
  // word pointers and weights, and the per-word exact-zero masks. Reuse one
  // across windows.
  struct RangeScratch {
    std::vector<const std::uint64_t*> slot_words;
    std::vector<const std::uint64_t*> key_words;
    std::vector<double> weights;
    std::vector<std::uint64_t> zero_masks;
  };

  // Staged (word-range) bundling for the early-reject cascade: accumulates
  // and thresholds ONLY the dimensions of words [word_lo, word_hi), writing
  // them into `out` and leaving every other word of `out` untouched. Each
  // word's 64 counters are summed in registers over the kept slots in slot
  // order (kernels::bundle_words — the same IEEE adds as
  // Accumulator::add_xor), and the tie-break draws run in ascending
  // dimension order over exact zeros, so tiling [0, num_words) with
  // ascending calls sharing one `tie_rng` freshly seeded from tie_seed()
  // yields an `out` bit-identical to one call over every word — that is
  // what lets a cascade finish a rejected window's feature prefix-only yet
  // keep survivors exact. Charges the exact range share of the full
  // bundle's op totals. Throws std::invalid_argument on slot/geometry
  // mismatch or an invalid range.
  void bundle_weighted_refs_range(
      const std::vector<const core::Hypervector*>& slot_values,
      const std::vector<double>& weights, double min_weight,
      std::size_t word_lo, std::size_t word_hi, core::Rng& tie_rng,
      RangeScratch& scratch, core::Hypervector& out,
      core::OpCounter* counter = nullptr) const;

 private:
  std::size_t bins_;
  std::vector<core::Hypervector> keys_;
  std::uint64_t tie_seed_;
};

}  // namespace hdface::hog
