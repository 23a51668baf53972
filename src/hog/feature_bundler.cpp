#include "hog/feature_bundler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "core/kernels/kernels.hpp"

namespace hdface::hog {

FeatureBundler::FeatureBundler(const core::StochasticContext& ctx,
                               std::size_t cells_x, std::size_t cells_y,
                               std::size_t bins)
    : bins_(bins), tie_seed_(core::mix64(ctx.config().seed, 0x71e)) {
  if (cells_x == 0 || cells_y == 0 || bins == 0) {
    throw std::invalid_argument("FeatureBundler: empty geometry");
  }
  core::Rng rng(core::mix64(ctx.config().seed, 0x4E75));
  const std::size_t n = cells_x * cells_y * bins;
  keys_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys_.push_back(core::Hypervector::random(ctx.dim(), rng));
  }
}

const core::Hypervector& FeatureBundler::key(std::size_t cell_index,
                                             std::size_t bin) const {
  return keys_.at(cell_index * bins_ + bin);
}

core::Hypervector FeatureBundler::bundle(
    const std::vector<core::Hypervector>& slot_values,
    core::OpCounter* counter) const {
  return bundle_weighted(slot_values, std::vector<double>(slot_values.size(), 1.0),
                         0.0, counter);
}

core::Hypervector FeatureBundler::bundle_weighted(
    const std::vector<core::Hypervector>& slot_values,
    const std::vector<double>& weights, double min_weight,
    core::OpCounter* counter) const {
  std::vector<const core::Hypervector*> refs;
  refs.reserve(slot_values.size());
  for (const core::Hypervector& v : slot_values) refs.push_back(&v);
  return bundle_weighted_refs(refs, weights, min_weight, counter);
}

core::Hypervector FeatureBundler::bundle_weighted_refs(
    const std::vector<const core::Hypervector*>& slot_values,
    const std::vector<double>& weights, double min_weight,
    core::OpCounter* counter) const {
  core::Hypervector out(dim());
  core::Rng tie_rng(tie_seed_);
  RangeScratch scratch;
  bundle_weighted_refs_range(slot_values, weights, min_weight, 0,
                             out.num_words(), tie_rng, scratch, out, counter);
  return out;
}

void FeatureBundler::bundle_weighted_refs_range(
    const std::vector<const core::Hypervector*>& slot_values,
    const std::vector<double>& weights, double min_weight, std::size_t word_lo,
    std::size_t word_hi, core::Rng& tie_rng, RangeScratch& scratch,
    core::Hypervector& out, core::OpCounter* counter) const {
  if (slot_values.size() != keys_.size() || weights.size() != keys_.size()) {
    throw std::invalid_argument("FeatureBundler: slot count mismatch");
  }
  const std::size_t d = dim();
  const std::size_t words = keys_.front().num_words();
  if (out.dim() != d) {
    throw std::invalid_argument("FeatureBundler: output dimensionality mismatch");
  }
  if (word_lo >= word_hi || word_hi > words) {
    throw std::invalid_argument("FeatureBundler: word range out of bounds");
  }
  scratch.slot_words.clear();
  scratch.key_words.clear();
  scratch.weights.clear();
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (std::abs(weights[i]) < min_weight) continue;
    if (slot_values[i]->dim() != d) {
      throw std::invalid_argument("FeatureBundler: slot dimensionality mismatch");
    }
    scratch.slot_words.push_back(slot_values[i]->words().data());
    scratch.key_words.push_back(keys_[i].words().data());
    scratch.weights.push_back(weights[i]);
  }
  const std::size_t kept = scratch.weights.size();
  const std::size_t dim_lo = word_lo * 64;
  const std::size_t dim_hi = std::min(d, word_hi * 64);
  if (counter) {
    // The binding XOR per word and one ±weight add per dimension, per kept
    // slot.
    counter->add(core::OpKind::kWordLogic, kept * (word_hi - word_lo));
    counter->add(core::OpKind::kIntAdd, kept * (dim_hi - dim_lo));
  }
  scratch.zero_masks.resize(words);
  std::uint64_t* out_words = out.mutable_words().data();
  core::kernels::active().bundle_words(
      scratch.slot_words.data(), scratch.key_words.data(),
      scratch.weights.data(), kept, word_lo, word_hi, out_words,
      scratch.zero_masks.data());
  // Bits past dim come out of the kernel as computed from the zero tail;
  // they stay zero and draw no tie.
  if (word_hi * 64 > d) {
    const std::uint64_t tail = (1ULL << (d % 64)) - 1;
    out_words[word_hi - 1] &= tail;
    scratch.zero_masks[word_hi - 1] &= tail;
  }
  // Scalar tie-break with the caller's Rng: ascending dimension order over
  // exact zeros, exactly the draws Accumulator::threshold would burn for
  // these dimensions inside a full-vector bundle.
  for (std::size_t w = word_lo; w < word_hi; ++w) {
    for (std::uint64_t z = scratch.zero_masks[w]; z != 0; z &= z - 1) {
      if (tie_rng.next() & 1ULL) out_words[w] |= z & (~z + 1);
    }
  }
}

}  // namespace hdface::hog
