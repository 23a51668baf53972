#pragma once

// Base hypervector generation via vector quantization (paper §3, Fig 1a).
//
// Pixel intensities map to *correlative* level hypervectors: the extreme
// values get (nearly) orthogonal representations and intermediate values
// interpolate by taking a proportional share of dimensions from each extreme.
// Built over the stochastic-arithmetic basis so that level t ∈ [lo, hi]
// simultaneously *represents the number t* (δ(level(t), V₁) = t), which is
// what lets HD-HOG run arithmetic directly on pixel hypervectors.

#include <vector>

#include "core/hypervector.hpp"
#include "core/stochastic.hpp"

namespace hdface::core {

class LevelItemMemory {
 public:
  // Quantizes [lo, hi] ⊆ [−1, 1] into `levels` hypervectors. Adjacent levels
  // differ in a contiguous block of a fixed random flip order, so similarity
  // between levels decays linearly with value distance (correlative coding).
  LevelItemMemory(StochasticContext& ctx, std::size_t levels, double lo = 0.0,
                  double hi = 1.0);

  std::size_t levels() const { return table_.size(); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  // Level hypervector by index.
  const Hypervector& level(std::size_t i) const { return table_.at(i); }

  // Nearest level for a value (clamped to [lo, hi]).
  const Hypervector& at_value(double v) const;
  std::size_t index_of(double v) const;

  // The value a level represents under the stochastic-arithmetic semantics.
  double value_of_level(std::size_t i) const;

  // Fault-injection hook (noise/fault_model.hpp): mutable access to the
  // stored words of one level. Every read accessor keeps returning the
  // (possibly faulted) stored contents — exactly what a stuck-at fault in a
  // level ROM does. pipeline::faulted_copy writes faults only into the
  // memories of its own copy of a pipeline, never into the original's.
  Hypervector& mutable_level(std::size_t i);

 private:
  double value_of_level_impl(std::size_t i, std::size_t levels) const;

  double lo_;
  double hi_;
  std::vector<Hypervector> table_;
};

}  // namespace hdface::core
