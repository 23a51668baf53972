#pragma once

// Fault models for the end-to-end robustness campaign (paper §2/§6.6 plus the
// device-level fault modes that motivate in-memory HDC deployments).
//
// The seed repository only modeled *transient* faults: fresh i.i.d. bit flips
// drawn once per query (noise/bit_flip.hpp). Real hypervector storage — item
// memories, mask ROMs / LFSR banks, binarized class prototypes — additionally
// suffers *persistent* faults: cells stuck at 0 or 1 for every subsequent
// read, and word-granular bursts when a whole memory row goes bad. This
// header models all of them behind one abstraction:
//
//   FaultModel  — kind + per-bit rate (what the hardware suffers)
//   FaultMask   — one concrete sampled pattern (clear/set/flip planes)
//   FaultPlan   — model + seed + which detector storage sites to hit
//
// Deterministic seed schedule: every sampled pattern is a pure function of
// (plan seed, target site, element index) via fault_seed(). No pattern
// depends on sampling order, prior draws, or thread count, so a fault
// campaign is bit-reproducible at any parallelism — the same contract the
// batched detection engine makes for clean scans.

#include <cstdint>

#include "core/hypervector.hpp"
#include "core/rng.hpp"

namespace hdface::noise {

enum class FaultKind {
  // Fresh i.i.d. flips per query (soft errors in flight). For stored targets
  // the pattern is sampled once per faulted copy — the paper's Table 2
  // convention, where prototypes are corrupted once per evaluation.
  kTransientFlip,
  // Persistent cells stuck at 0 / 1 (in-memory HDC device faults): each bit
  // is selected independently with probability `rate` and forced to the
  // stuck value on every read.
  kStuckAtZero,
  kStuckAtOne,
  // Word-aligned burst: each 64-bit storage word fails as a unit with
  // probability `rate`, inverting all of its bits (a bad row/line). Same
  // expected disturbed fraction as transient flips, much heavier tail.
  kWordBurst,
};

constexpr const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kTransientFlip: return "transient_flip";
    case FaultKind::kStuckAtZero: return "stuck_at_0";
    case FaultKind::kStuckAtOne: return "stuck_at_1";
    case FaultKind::kWordBurst: return "word_burst";
  }
  return "unknown";
}

struct FaultModel {
  FaultKind kind = FaultKind::kTransientFlip;
  // Per-bit fault probability (per-word for kWordBurst); 0 disables.
  double rate = 0.0;
};

// The one rule for a fault rate: a probability in [0, 1]. Written so NaN
// fails too — every comparison with NaN is false, and a NaN rate would
// otherwise sample no fault at all.
constexpr bool valid_rate(double rate) { return rate >= 0.0 && rate <= 1.0; }

// One sampled fault pattern over a hypervector-shaped storage site, kept as
// three planes applied as v' = ((v & ~clear) | set) ^ flip. Stuck-at faults
// populate clear/set (idempotent under re-application, as real stuck cells
// are); transient and burst faults populate flip.
struct FaultMask {
  core::Hypervector clear;
  core::Hypervector set;
  core::Hypervector flip;

  void apply(core::Hypervector& v) const;
  core::Hypervector applied(const core::Hypervector& v) const;

  // Number of storage cells the pattern touches (selected, not necessarily
  // value-changing: a stuck-at-0 cell that already held 0 is still faulty).
  std::size_t selected_bits() const;
};

// Samples one concrete pattern. All randomness comes from `rng`; with a
// fault_seed()-derived Rng the pattern is schedule-deterministic.
FaultMask sample_fault_mask(const FaultModel& model, std::size_t dim,
                            core::Rng& rng);

// Expected fraction of bits of a *fair random* hypervector whose value
// changes under the model (stuck-at faults only change a cell with
// probability 1/2): transient/burst → rate, stuck-at → rate/2.
double expected_disturbed_fraction(const FaultModel& model);

// Expected δ(v, faulted(v)) for a fair random v: 1 − 2·disturbed fraction.
double expected_similarity_after_fault(const FaultModel& model);

// --- seed schedule ----------------------------------------------------------

// Detector storage sites a plan can target. Each site gets its own seed
// stream so adding/removing one target never shifts another's patterns.
enum class FaultTarget : std::uint64_t {
  kItemMemory = 1,       // pixel-level item memory (one pattern per level)
  kHistogramMemory = 2,  // histogram-level item memory (one per level)
  kMaskPool = 3,         // stochastic selection-mask ROM (one per entry)
  kPrototype = 4,        // binarized class prototypes (one per class)
  kQuery = 5,            // per-window query hypervectors (one per window)
};

// Pure function of (plan seed, target, element index) — the whole schedule.
constexpr std::uint64_t fault_seed(std::uint64_t plan_seed, FaultTarget target,
                                   std::uint64_t index) {
  return core::mix64(
      core::mix64(plan_seed, 0xFA017ED5ULL + static_cast<std::uint64_t>(target)),
      index);
}

// What to inject where. The stored-memory targets are written into a private
// copy of the pipeline by pipeline::faulted_copy; the query target is applied
// in flight by the detection engine via apply_query_fault.
struct FaultPlan {
  FaultModel model;
  std::uint64_t seed = 0xFA117;
  // Level item memories + the stochastic mask pool (the stored hypervector
  // material feature extraction reads).
  bool item_memory = true;
  // Binarized class prototypes: inference switches to the binary Hamming
  // path (the storage the paper's robustness study corrupts) against a
  // faulted prototype copy; the float accumulators are never touched.
  bool prototypes = true;
  // Per-window query hypervectors. Transient faults draw a fresh pattern per
  // window; persistent kinds model one faulty query buffer — the same
  // pattern for every window.
  bool queries = true;

  // True when the plan faults stored memory (item memories, mask pool,
  // prototypes), so a scan under it runs on a faulted copy of the pipeline.
  // A plan without a stored target faults only each window's own query and
  // scans the shared pipeline, with no copy.
  bool targets_stored_memory() const { return item_memory || prototypes; }
};

// Applies the plan's query-target fault to one in-flight query hypervector;
// no-op when queries are untargeted or the rate is zero. Deterministic in
// (plan seed, query_index) — independent of thread count and scan order.
void apply_query_fault(const FaultPlan& plan, std::uint64_t query_index,
                       core::Hypervector& query);

}  // namespace hdface::noise
