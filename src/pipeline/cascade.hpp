#pragma once

// Early-reject similarity cascade over the cell-plane scan (DESIGN.md §13).
//
// A staged window scorer: each window's query hypervector is assembled and
// scored one word-prefix at a time (hog::HdHogExtractor::StagedWindow +
// core::PrototypeBlock::hamming_many_range), and a window whose positive-
// class margin falls below the stage's calibrated threshold is rejected
// without ever paying for the rest of the bundle or the full-D score.
// Survivors are escalated to the COMPLETE feature and scored by the
// unchanged classifier path, so a survivor's (prediction, score) is
// bit-identical to the exact scan's — the cascade can only turn
// would-be-detections into rejections (false rejects), never perturb a
// survivor, and calibration picks thresholds with zero false rejects on the
// calibration scenes by construction (τ = min positive margin − slack).
//
// Determinism: staged assembly is bit-identical to one-shot assembly at
// every prefix (see StagedWindow), prefix Hamming tiles exactly to the full
// distance (see PrototypeBlock::hamming_many_range), and the per-stage
// thresholds are plain doubles compared against the margins of the one
// code that computes them (the margin steps below, which calibration runs
// too) — so a cascaded scan is a pure function of (model, scene, table),
// independent of thread count; stage statistics merge from per-chunk shards
// with integer adds and are exact at every thread count too.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/op_counter.hpp"
#include "core/prototype_block.hpp"
#include "dataset/background_generator.hpp"
#include "hog/hd_hog.hpp"
#include "image/image.hpp"
#include "learn/hdc_model.hpp"
#include "pipeline/cascade_types.hpp"

namespace hdface::pipeline {

class HdFacePipeline;

// The staged scorer. Immutable after construction; one instance is shared
// read-only by every chunk of a scan (per-chunk scratch lives in Scratch /
// StagedWindow).
class Cascade {
 public:
  // Binarizes the classifier's prototypes into an SoA block for the prefix
  // stages (the same binarization the robustness studies deploy). Throws
  // std::invalid_argument when the table's dim/classes mismatch the
  // classifier or cascade_table_error rejects the table.
  Cascade(const learn::HdcClassifier& classifier, const CascadeTable& table);

  const CascadeTable& table() const { return table_; }
  std::size_t num_stages() const { return table_.stages.size(); }
  std::size_t total_words() const { return total_words_; }
  const core::PrototypeBlock& prototypes() const { return prototypes_; }
  bool has_prescreen() const { return table_.prescreen_words > 0; }

  struct Result {
    int prediction = 0;
    double score = 0.0;
    bool rejected = false;   // true when a prefix stage rejected the window
    std::size_t stage = 0;   // rejecting stage index (valid when rejected)
  };

  // Per-chunk scratch: running per-class prefix distances (cum) and the
  // last word range's share of them (part).
  struct Scratch {
    std::vector<std::size_t> cum;
    std::vector<std::size_t> part;
  };

  // Score one window. `window` must have been reset() on the window's plane
  // origin. Survivors assemble the full feature and score through
  // classifier.scores() — identical to the exact path. Rejected windows
  // report the best rival class as prediction and the prefix's normalized
  // positive similarity (1 − 2·H/d ∈ [−1, 1]) as score. `stats` is a
  // per-chunk local (merged by the caller); `counter` receives the prefix
  // Hamming + staged bundle op charges.
  Result classify(const learn::HdcClassifier& classifier,
                  hog::HdHogExtractor::StagedWindow& window, Scratch& scratch,
                  CascadeStats& stats, core::OpCounter* counter = nullptr) const;

  // Cell-subset prescreen (valid only when has_prescreen()). `window` must
  // have been reset_prescreen() on the window's plane origin — the feature is
  // bundled from ONLY the window's even/even parity cells, so the prefix is
  // NOT a prefix of the full feature and a survivor must reset() again before
  // classify(). Rejected windows report the same (best rival, 1 − 2H/d)
  // convention as a stage rejection, with stage = 0. Under a lazy plane this
  // is what keeps non-parity cells of all-rejected regions unmaterialized.
  Result prescreen(hog::HdHogExtractor::StagedWindow& window, Scratch& scratch,
                   CascadeStats& stats,
                   core::OpCounter* counter = nullptr) const;

  // The stage statistic, one step at a time, shared by classify/prescreen
  // and calibration: extends `window` to the step's words, adds that word
  // range's prototype distances into scratch.cum and returns the margin
  // (see CascadeStage); no step reads a threshold. stage_margin(s) follows
  // stage s − 1 on the same reset() window (stage 0 restarts cum);
  // prescreen_margin needs a reset_prescreen() window and has_prescreen().
  double stage_margin(std::size_t s, hog::HdHogExtractor::StagedWindow& window,
                      Scratch& scratch,
                      core::OpCounter* counter = nullptr) const;
  double prescreen_margin(hog::HdHogExtractor::StagedWindow& window,
                          Scratch& scratch,
                          core::OpCounter* counter = nullptr) const;

 private:
  double step(hog::HdHogExtractor::StagedWindow& window, std::size_t word_lo,
              std::size_t word_hi, Scratch& scratch,
              core::OpCounter* counter) const;
  // The reported result of a window rejected after `words` prefix words.
  Result rejected(const Scratch& scratch, std::size_t words,
                  std::size_t stage) const;

  CascadeTable table_;
  core::PrototypeBlock prototypes_;
  std::size_t total_words_ = 0;
};

// --- offline calibration ----------------------------------------------------

struct CascadeCalibrationConfig {
  // Cumulative prefix widths as fractions of the feature's words; each maps
  // to max(1, llround(fraction · words)) and must end strictly ascending.
  std::vector<double> stage_fractions = {0.0625, 0.25};
  // Safety slack subtracted from the minimum positive margin at each stage.
  // Zero false rejects on the calibration scenes holds for ANY slack ≥ 0 (the
  // threshold sits strictly below every calibration positive's margin);
  // slack buys headroom for unseen scenes at the price of pass rate.
  double slack = 0.02;
  std::size_t window = 0;  // scan window (pixels)
  std::size_t stride = 0;  // scan stride (pixels)
  int positive_class = 1;
  // Threads for the golden-map scans and planes, as ParallelDetectConfig
  // reads them: 0 = the global pool, 1 = serial, N = a call-local pool. The
  // margins themselves are computed serially, so the table is byte-identical
  // at any setting. The global pool is not re-entrant: call with 0 only
  // from outside its tasks.
  std::size_t threads = 0;
  // Calibrate a cell-subset prescreen (CascadeTable::prescreen_words): score
  // each window over only its even/even parity cells before stage 0. Requires
  // stride % cell_size == 0 (so the plane's grid step equals the cell size
  // and the parity subgrid is well defined); throws otherwise.
  bool prescreen = false;
  // Prefix width of the prescreen bundle as a fraction of the feature's
  // words. The prescreen feature is NOT a prefix of the full feature, so this
  // is independent of stage_fractions.
  double prescreen_fraction = 0.25;
  // Relative headroom for the orientation-spread floor
  // (CascadeTable::prescreen_spread_below = (1 − headroom) · minimum positive
  // spread). Relative, not absolute: the spread is an unnormalized energy
  // whose magnitude scales with the window's parity cell count, so a fixed
  // offset would not transfer across geometries. Must lie in [0, 1];
  // 1 disables the floor (threshold 0), 0 pins it at the calibration minimum.
  double prescreen_spread_headroom = 0.1;
};

// Deterministic offline calibration over golden detection maps: runs the
// exact cell-plane scan on every scene, records the per-stage margins of
// every window the exact path predicts positive through the margin steps of
// a provisional Cascade over the table's skeleton (the scan's own code), and
// sets each stage's threshold to (minimum positive margin − slack). Pure
// function of (pipeline, scenes, config): two runs emit byte-identical tables
// (cascade_table_to_text). Throws std::invalid_argument on empty scenes,
// malformed fractions, or calibration scenes with no positive windows (a
// threshold calibrated on nothing would reject everything).
CascadeTable calibrate_cascade(HdFacePipeline& pipeline,
                               const std::vector<image::Image>& scenes,
                               const CascadeCalibrationConfig& config);

// --- threshold table serialization ------------------------------------------

// Versioned text form. Thresholds are serialized as C hexfloats ("%a"), so
// the round-trip is exact and the bytes are a pure function of the table —
// the calibration determinism tests diff these strings directly.
std::string cascade_table_to_text(const CascadeTable& table);

// Parses cascade_table_to_text output; throws std::runtime_error on
// malformed or version-mismatched input, including integer fields not
// spelled as the writer spells them and anything after the last stage. The
// result's structure is not checked here: see cascade_table_error.
CascadeTable cascade_table_from_text(std::string_view text);

void save_cascade_table(const std::string& path, const CascadeTable& table);
CascadeTable load_cascade_table(const std::string& path);

// --- calibration workload ---------------------------------------------------

// Deterministic sparse-scene family shared by tools/cascade_calibrate,
// hdbench, the fast-path gate tests and the parity tests: `count` scenes of
// width × height with `faces_per_scene` rendered faces pasted at
// deterministic positions over a `background`-kind texture (plus the
// training pipeline's sensor noise).
// Sparse scenes are where the cascade pays — almost every window is
// background, and background margins collapse after a short prefix. kMixed
// is the default because it matches the training negatives (which draw a
// random background kind per window): out-of-distribution backgrounds make
// the classifier fire on clutter, and those epsilon-margin positives drag
// every calibrated threshold into the background margin mass.
std::vector<image::Image> cascade_calibration_scenes(
    std::size_t count, std::size_t window, std::size_t width,
    std::size_t height, std::size_t faces_per_scene, std::uint64_t seed,
    dataset::BackgroundKind background = dataset::BackgroundKind::kMixed);

}  // namespace hdface::pipeline
