#pragma once

// Early-reject cascade value types, split out of pipeline/cascade.hpp so the
// public facade (api/types.hpp) can carry a threshold table and stage
// telemetry without pulling the cascade engine (and its classifier /
// prototype-block dependency cone) — the same layering as encode_mode.hpp.
//
// The cascade exploits the holographic geometry of binary HDC: class
// evidence is spread uniformly across the hypervector, so the Hamming
// distance over a short word prefix is an unbiased 1/k-scale predictor of
// the full-D distance (Laplace-HDC; uHD — see PAPERS.md). A staged scorer
// evaluates cheap prefixes first and escalates only survivors to exact
// full-D scoring; per-stage rejection thresholds are calibrated offline
// against golden detection maps (tools/cascade_calibrate) so calibration
// scenes see zero false rejects by construction. See DESIGN.md §13.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hdface::pipeline {

enum class CascadeMode {
  // Bypass every stage: the scan runs today's exact path, bit-identical to a
  // cascade-free scan (the engine is never even consulted).
  kExact,
  // Staged prefix scoring with the table's calibrated thresholds.
  kCalibrated,
};

// One stage: score the query's first `words` 64-bit words against every
// prototype and reject the window when its normalized margin falls below
// `reject_below`. The margin after a prefix of d dimensions is
//
//   m = (min_{c ≠ positive} H_c − H_positive) / d
//
// i.e. how far the positive class leads its best rival, in per-dimension
// Hamming units. Positive-predicted windows have large margins; background
// windows have strongly negative ones, so a threshold just below the
// calibration minimum rejects most background after a tiny prefix while
// letting every calibration positive through.
struct CascadeStage {
  std::size_t words = 0;       // cumulative prefix width (64-bit words)
  double reject_below = 0.0;   // margin threshold τ (reject when m < τ)
};

// Versioned calibrated threshold table (the artifact tools/cascade_calibrate
// emits and api::DetectOptions::cascade loads). The metadata pins the model
// and scan geometry the calibration ran against; the engine validates dim /
// classes / positive_class on load, the rest is provenance.
struct CascadeTable {
  std::uint32_t version = 1;   // serialization format version
  std::uint64_t seed = 0;      // pipeline seed the calibration ran under
  std::size_t dim = 0;         // hypervector dimensionality
  std::size_t classes = 0;     // prototype count
  int positive_class = 1;
  std::size_t window = 0;      // calibration scan window (provenance)
  std::size_t stride = 0;      // calibration scan stride (provenance)
  // Optional cell-subset prescreen (the lazy-plane driver, DESIGN.md §14):
  // before stage 0, each window is scored over ONLY its cells on the plane's
  // even/even parity subgrid (≈¼ of its cells, shared across overlapping
  // windows), bundled to a `prescreen_words` prefix and margin-thresholded
  // like a stage. Under a lazy plane a prescreen-rejected window forces no
  // cells beyond the parity subgrid, which is what keeps most of the plane
  // unmaterialized. 0 = disabled (tables serialize byte-identically to v1).
  std::size_t prescreen_words = 0;
  double prescreen_reject_below = 0.0;
  // Calibrated normalization constant for the prescreen gather: subset slot
  // values are divided by THIS (clamped to 1.0) instead of the window's own
  // subset vmax. Self-normalization would make structureless windows look
  // maximal (a flat cell's tiny values divide by their own tiny max); a fixed
  // scale keeps weak-gradient windows at low histogram levels, which is what
  // separates empty background from faces at prescreen time. Calibrated as
  // the median parity-subset vmax over the calibration positives; must be
  // > 0 when prescreen_words > 0.
  double prescreen_vmax = 0.0;
  // Orientation-spread floor: a window whose parity subset carries less raw
  // histogram mass off bin 0 than this is rejected by the prescreen even when
  // its prefix margin survives. Zero gradient resolves to bin 0, so empty
  // background scores near zero here while every calibration positive scores
  // well above (faces are oriented texture); calibrated to the minimum
  // positive spread scaled by a headroom factor, so the zero-false-reject
  // contract extends to this test. 0.0 disables the test (spread ≥ 0 always).
  double prescreen_spread_below = 0.0;
  std::vector<CascadeStage> stages;  // strictly ascending words
};

// What api::DetectOptions::cascade carries: a mode and, for kCalibrated, the
// threshold table.
struct CascadeConfig {
  CascadeMode mode = CascadeMode::kExact;
  CascadeTable table;
};

// Per-stage counters of one scan (or one pyramid level). entered ≥ rejected;
// pass rate of stage s = 1 − rejected/entered.
struct CascadeStageCounters {
  std::uint64_t entered = 0;
  std::uint64_t rejected = 0;
};

// Stage accounting for a cascaded scan, merged from per-chunk shards after
// the scan — totals are exact and identical at every thread count.
// Untouched by kExact scans.
struct CascadeStats {
  std::vector<CascadeStageCounters> stages;
  std::uint64_t windows = 0;       // windows entering the staged cascade
  std::uint64_t exact_scored = 0;  // survivors escalated to full-D scoring
  // Prescreen accounting (zero unless the table carries a prescreen). A
  // prescreen-rejected window never enters the staged cascade, so the total
  // window count of a scan is windows + prescreen_rejected.
  std::uint64_t prescreen_entered = 0;
  std::uint64_t prescreen_rejected = 0;

  void merge(const CascadeStats& other) {
    if (stages.size() < other.stages.size()) stages.resize(other.stages.size());
    for (std::size_t s = 0; s < other.stages.size(); ++s) {
      stages[s].entered += other.stages[s].entered;
      stages[s].rejected += other.stages[s].rejected;
    }
    windows += other.windows;
    exact_scored += other.exact_scored;
    prescreen_entered += other.prescreen_entered;
    prescreen_rejected += other.prescreen_rejected;
  }
};

}  // namespace hdface::pipeline
