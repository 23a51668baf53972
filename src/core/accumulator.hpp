#pragma once

// Integer bundling accumulator.
//
// Bundling many binary hypervectors by repeated pairwise majority loses
// information; the standard implementation keeps a per-dimension signed
// counter (each vote adds ±1) and thresholds once at the end. The accumulator
// also serves as the mutable class-prototype representation for HDC learning
// (paper §5), where adaptive updates add weighted bipolar queries.

#include <cstdint>
#include <span>
#include <vector>

#include "core/hypervector.hpp"
#include "core/op_counter.hpp"
#include "core/rng.hpp"

namespace hdface::core {

class Accumulator {
 public:
  Accumulator() = default;
  explicit Accumulator(std::size_t dim);

  std::size_t dim() const { return counts_.size(); }
  bool empty() const { return counts_.empty(); }

  // Adds `weight` × bipolar(v) to the counters (weight may be negative).
  void add(const Hypervector& v, double weight = 1.0);

  // Exactly add(a ^ b, weight) without materializing the XOR: the word-wise
  // loop selects ±weight per bit (IEEE sign flip is exact, so the counters
  // are bit-identical to the two-step form) and skips the temporary
  // hypervector allocation. This is the bundling hot path for window
  // assembly from the cell-plane cache. Counts the XOR's kWordLogic here
  // (callers must not count it again) plus the usual kIntAdd per dimension.
  void add_xor(const Hypervector& a, const Hypervector& b, double weight = 1.0);

  void reset();

  double count(std::size_t i) const { return counts_[i]; }
  const std::vector<double>& counts() const { return counts_; }

  // Replaces the counter vector (deserialization); size must match dim().
  void set_counts(std::vector<double> counts);

  // Majority threshold: dimension i becomes +1 if its counter is positive,
  // −1 if negative; exact zeros are broken by fair coin flips from rng.
  Hypervector threshold(Rng& rng) const;

  // Cosine similarity with a bipolar view of a binary hypervector.
  // Returns 0 for an all-zero accumulator. Charges op_counter_ as
  // dot_norm2_many does for one accumulator.
  double cosine(const Hypervector& v) const;

  // L2 norm of the counter vector.
  double norm() const;

  // Optional op accounting (kIntAdd per dimension touched).
  void set_counter(OpCounter* counter) { op_counter_ = counter; }

 private:
  std::vector<double> counts_;
  OpCounter* op_counter_ = nullptr;
};

// Fused similarity pass of one query against many accumulators (the
// learner's per-update scoring): for every c,
//   dots[c]   = Σ_i accs[c].count(i) · bipolar(v)_i
//   norms2[c] = Σ_i accs[c].count(i)²
// read word by word from v. Each sum runs in ascending i, the order of the
// element-wise definition and of norm(): IEEE addition is not associative,
// so the sums are never split across dimensions, and every double is
// bit-identical to the element-wise loops. When `counter` is set,
// charges kFloatMul and kFloatAdd 2·dim per accumulator (cosine's charge).
// Throws std::invalid_argument on a dimensionality or output-size mismatch.
void dot_norm2_many(std::span<const Accumulator> accs, const Hypervector& v,
                    std::span<double> dots, std::span<double> norms2,
                    OpCounter* counter = nullptr);

// dot / (‖counts‖ · ‖v‖) from one dot_norm2_many result (the bipolar query's
// norm is √dim exactly); 0 for an all-zero accumulator.
double cosine_from(double dot, double norm2, std::size_t dim);

}  // namespace hdface::core
