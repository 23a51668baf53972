#pragma once

// Copy-on-inject fault sessions over a live HDFace pipeline.
//
// The robustness study (paper §7, Table 2) corrupts the *stored* hypervector
// memories of a deployed detector — the pixel/histogram item memories, the
// Bernoulli mask pool (the software analogue of a hardware mask ROM / LFSR
// bank), and the binarized class prototypes — and measures how detection
// quality degrades. A FaultSession materializes one sampled fault pattern
// into those memories in place, so every window the engine scans afterwards
// reads genuinely faulted storage, then restores the clean bits exactly:
//
//   {
//     FaultSession session(pipeline, plan);     // inject (copy-on-inject)
//     auto map = detect_windows_parallel(...);  // scans faulted storage
//     session.restore();                        // restore-verified
//   }                                           // dtor restores if needed
//
// Guarantees:
//   * Copy-on-inject — the clean words of every patched hypervector are
//     snapshotted before the fault mask lands, and the float prototype
//     accumulators are never touched at all (prototype faults go through
//     HdcClassifier's binary-override layer instead).
//   * Restore-verified — restore() first checks the faulted storage still
//     matches the checksum recorded at injection (any concurrent mutation of
//     the patched memories throws std::runtime_error rather than silently
//     "restoring" over it), then writes the clean words back and verifies
//     the restored state checksums to the clean snapshot.
//   * Deterministic — every sampled mask is a pure function of
//     (plan.seed, target plane, element index) via noise::fault_seed, so a
//     session is bit-reproducible across runs and thread counts.
//
// Query-plane faults (noise::FaultTarget::kQuery) are *not* injected here —
// they are transient per-window events applied inside the scan loop (see
// ParallelDetectConfig::fault_plan); a session only owns persistent storage.
// A plan with no stored target (!plan.targets_stored_memory()) therefore
// writes nothing shared: the session patches no vector and sets no override,
// and serve::DetectionServer relies on this to run such plans under the
// shared model lock beside clean scans.

#include <cstdint>
#include <vector>

#include "core/hypervector.hpp"
#include "noise/fault_model.hpp"
#include "pipeline/hdface_pipeline.hpp"

namespace hdface::pipeline {

class FaultSession {
 public:
  // Injects per `plan` into `pipeline`'s stored memories. Calls
  // pipeline.prepare_concurrent() first so the mask pool is warmed before it
  // is patched (patching a lazily-filled pool would race the fill). The
  // pipeline must outlive the session. When plan.prototypes is set, the
  // classifier switches to binary Hamming inference against a faulted copy
  // of the prototypes it is deployed with (its binary override if it has
  // one, else the binarized accumulators) — at rate 0 this still changes
  // the inference mode, which keeps clean-baseline cells comparable to
  // faulted ones.
  FaultSession(HdFacePipeline& pipeline, const noise::FaultPlan& plan);

  // Restores on destruction if the caller didn't; destructors swallow the
  // verification error, so call restore() explicitly where it matters.
  ~FaultSession();

  FaultSession(const FaultSession&) = delete;
  FaultSession& operator=(const FaultSession&) = delete;

  // Write every clean snapshot back and put back the prototype override
  // present at construction (clearing it when there was none). Idempotent.
  // Throws std::runtime_error if the faulted storage was mutated behind the
  // session's back (checksum mismatch), or if the restored words fail to
  // verify against the clean snapshot.
  void restore();

  bool active() const { return active_; }
  const noise::FaultPlan& plan() const { return plan_; }

  // Stored hypervectors patched in place (prototype overrides not included —
  // they live in a separate override plane, not patched storage).
  std::size_t patched_vectors() const { return patches_.size(); }

  // Total bits that differ from clean across all faulted planes, prototype
  // override included. This is the session's empirical disturbance, which
  // tests compare against noise::expected_disturbed_fraction.
  std::uint64_t disturbed_bits() const { return disturbed_bits_; }

  // Stored bits across all faulted planes (denominator for disturbed_bits()).
  std::uint64_t faultable_bits() const { return faultable_bits_; }

 private:
  void inject(noise::FaultTarget target, std::uint64_t index,
              core::Hypervector& stored);

  HdFacePipeline& pipeline_;
  noise::FaultPlan plan_;

  struct Patch {
    core::Hypervector* target;
    core::Hypervector clean;
  };
  std::vector<Patch> patches_;
  std::uint64_t faulted_checksum_ = 0;
  std::uint64_t disturbed_bits_ = 0;
  std::uint64_t faultable_bits_ = 0;
  // Binary-prototype override in place before the session (empty if none).
  std::vector<core::Hypervector> prior_override_;
  bool override_set_ = false;
  bool active_ = false;
};

}  // namespace hdface::pipeline
