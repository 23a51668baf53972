#pragma once

// Adaptive hyperdimensional classifier (paper §5).
//
// Training memorizes one prototype per class as an integer accumulator over
// query hypervectors. The *adaptive* update (the paper's "eliminates
// redundant information memorization ... avoids saturation") only reinforces
// a class when the model is wrong or unsure, weighting each update by how
// wrong the model was (1 − δ), and simultaneously subtracts the query from
// the mispredicted class — single-pass-friendly online learning in the
// OnlineHD style the paper builds on.
//
// Inference is a similarity search: the query gets the label of the most
// similar class prototype (cosine against the float accumulators during
// training/eval, or pure Hamming against binarized prototypes in the
// binary inference mode used for the robustness and hardware studies).

#include <cstdint>
#include <vector>

#include "core/accumulator.hpp"
#include "core/hypervector.hpp"
#include "core/op_counter.hpp"
#include "core/prototype_block.hpp"
#include "core/rng.hpp"

namespace hdface::learn {

struct HdcConfig {
  std::size_t dim = 4096;
  std::size_t classes = 2;
  double learning_rate = 1.0;
  std::size_t epochs = 5;      // 1 = single-pass
  bool adaptive = true;        // false = naive bundling of every sample
  std::uint64_t seed = 0xADA;
};

class HdcClassifier {
 public:
  explicit HdcClassifier(const HdcConfig& config);

  const HdcConfig& config() const { return config_; }

  // Full training: one adaptive pass per epoch over a deterministic shuffle.
  void fit(const std::vector<core::Hypervector>& features,
           const std::vector<int>& labels);

  // One adaptive update; returns whether the pre-update prediction was right.
  bool update(const core::Hypervector& feature, int label);

  // Cosine similarity per class: one fused core::dot_norm2_many pass over
  // the float prototypes, or the binary override's Hamming readout when one
  // is set. Holds no mutable state, so concurrent scans may call it.
  std::vector<double> scores(const core::Hypervector& feature) const;
  int predict(const core::Hypervector& feature) const;
  std::vector<int> predict(const std::vector<core::Hypervector>& features) const;

  double evaluate(const std::vector<core::Hypervector>& features,
                  const std::vector<int>& labels) const;

  // Binary inference path: prototypes thresholded to binary hypervectors,
  // prediction by maximum Hamming similarity. This is the representation the
  // robustness study corrupts and the FPGA model accelerates.
  std::vector<core::Hypervector> binary_prototypes() const;
  static int predict_binary(const std::vector<core::Hypervector>& prototypes,
                            const core::Hypervector& feature);

  // SoA fast path: callers scoring many queries against a fixed prototype
  // set (robustness sweeps, ablations) pack the prototypes once into a
  // core::PrototypeBlock and avoid the per-call pointer chase. Identical
  // result to the vector overload.
  static int predict_binary(const core::PrototypeBlock& prototypes,
                            const core::Hypervector& feature);

  // --- fault-injection override ---------------------------------------------
  //
  // When set, scores()/predict()/evaluate() switch to binary Hamming
  // inference against these prototypes (normalized similarity δ ∈ [−1, 1])
  // instead of cosine against the float accumulators. This is the path for
  // prototype faults: the deployment storage the robustness study corrupts
  // is the binarized prototype memory (pipeline::faulted_copy overrides a
  // copied classifier with faulted prototypes), and the float accumulators
  // are physically untouched. Training under an override is a programming
  // error (update() throws std::logic_error).
  void set_binary_override(std::vector<core::Hypervector> prototypes);
  bool has_binary_override() const { return !binary_override_.empty(); }
  const std::vector<core::Hypervector>& binary_override() const {
    return binary_override_;
  }

  const core::Accumulator& prototype(std::size_t c) const { return prototypes_[c]; }

  // Restores a prototype's accumulator (deserialization).
  void set_prototype_counts(std::size_t c, std::vector<double> counts) {
    prototypes_.at(c).set_counts(std::move(counts));
  }

  void set_counter(core::OpCounter* counter);

 private:
  // The float path's one pass: per-class cosine, and each prototype's
  // norm² (the sum cosine divides by), which update() reuses.
  struct FloatScores {
    std::vector<double> cosine;
    std::vector<double> norm2;
  };
  FloatScores float_scores(const core::Hypervector& feature) const;

  HdcConfig config_;
  std::vector<core::Accumulator> prototypes_;
  std::vector<core::Hypervector> binary_override_;
  // SoA mirror of binary_override_, rebuilt by set_binary_override: scores()
  // streams the query against all class planes through one kernel call.
  core::PrototypeBlock binary_block_;
  core::Rng rng_;
  core::OpCounter* counter_ = nullptr;
};

}  // namespace hdface::learn
