#pragma once

// Faulted copies of a live HDFace pipeline.
//
// The robustness study (paper §7, Table 2) corrupts the *stored* hypervector
// memories of a deployed detector — the pixel/histogram item memories, the
// Bernoulli mask pool (the software analogue of a hardware mask ROM / LFSR
// bank), and the binarized class prototypes — and measures how detection
// quality degrades. A faulty device is its own model instance, so a fault
// plan runs on a private copy of the pipeline that carries one sampled fault
// pattern in its memories, while the original is only read:
//
//   FaultedCopy faulted = faulted_copy(pipeline, plan);
//   auto map = detect_windows_parallel(*faulted.pipeline, ...);
//
// Guarantees:
//   * Private — the copy owns every word it faults. Its item memories and
//     prototype override are its own, and it takes a private mask pool
//     before faulting one (a copied context shares its original's pool until
//     then). The float prototype accumulators are never faulted: prototype
//     faults go through HdcClassifier's binary-override layer.
//   * Deterministic — every sampled mask is a pure function of
//     (plan.seed, target plane, element index) via noise::fault_seed, so a
//     faulted copy is bit-reproducible across runs and thread counts.
//
// Query-plane faults (noise::FaultTarget::kQuery) are not written here —
// they are transient per-window events applied inside the scan loop (see
// ParallelDetectConfig::fault_plan). A plan with no stored target
// (!plan.targets_stored_memory()) therefore needs no copy: api::Detector
// scans the shared pipeline for it.

#include <cstdint>
#include <memory>

#include "noise/fault_model.hpp"
#include "pipeline/hdface_pipeline.hpp"

namespace hdface::pipeline {

struct FaultedCopy {
  std::unique_ptr<HdFacePipeline> pipeline;
  // Total bits that differ from clean across all faulted planes, prototype
  // override included: the copy's empirical disturbance, which tests compare
  // against noise::expected_disturbed_fraction.
  std::uint64_t disturbed_bits = 0;
  // Stored bits across all faulted planes (denominator for disturbed_bits).
  std::uint64_t faultable_bits = 0;
};

// Copies `pipeline` and faults the copy's stored memories per `plan`. Calls
// pipeline.prepare_concurrent() first — the idempotent warm every scan
// makes — so the copy inherits a warmed mask pool. When plan.prototypes is
// set, the copy switches to binary Hamming inference against a faulted copy
// of the prototypes the original is deployed with (its binary override if
// it has one, else the binarized accumulators) — at rate 0 this still
// changes the inference mode, which keeps clean-baseline cells comparable to
// faulted ones. Throws std::invalid_argument on a rate outside [0, 1].
FaultedCopy faulted_copy(HdFacePipeline& pipeline, const noise::FaultPlan& plan);

}  // namespace hdface::pipeline
