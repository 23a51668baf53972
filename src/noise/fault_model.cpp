#include "noise/fault_model.hpp"

#include <stdexcept>

#include "util/check.hpp"

namespace hdface::noise {

void FaultMask::apply(core::Hypervector& v) const {
  v.apply_fault_pattern(clear, set, flip);
}

core::Hypervector FaultMask::applied(const core::Hypervector& v) const {
  core::Hypervector out = v;
  apply(out);
  return out;
}

std::size_t FaultMask::selected_bits() const {
  return clear.popcount() + set.popcount() + flip.popcount();
}

FaultMask sample_fault_mask(const FaultModel& model, std::size_t dim,
                            core::Rng& rng) {
  if (dim == 0) throw std::invalid_argument("sample_fault_mask: dim 0");
  if (!valid_rate(model.rate)) {
    throw std::invalid_argument("sample_fault_mask: rate outside [0, 1]");
  }
  FaultMask mask{core::Hypervector(dim), core::Hypervector(dim),
                 core::Hypervector(dim)};
  if (model.rate <= 0.0) return mask;
  switch (model.kind) {
    case FaultKind::kTransientFlip:
      mask.flip = core::Hypervector::bernoulli(dim, model.rate, rng);
      break;
    case FaultKind::kStuckAtZero:
      mask.clear = core::Hypervector::bernoulli(dim, model.rate, rng);
      break;
    case FaultKind::kStuckAtOne:
      mask.set = core::Hypervector::bernoulli(dim, model.rate, rng);
      break;
    case FaultKind::kWordBurst: {
      // One Bernoulli draw per 64-bit word; a failed word inverts wholesale.
      // The tail word participates like any other (apply_fault_pattern
      // re-masks the out-of-range bits).
      auto words = mask.flip.mutable_words();
      for (auto& w : words) {
        if (rng.uniform() < model.rate) w = ~0ULL;
      }
      mask.flip.mask_tail();
      break;
    }
  }
  return mask;
}

double expected_disturbed_fraction(const FaultModel& model) {
  switch (model.kind) {
    case FaultKind::kStuckAtZero:
    case FaultKind::kStuckAtOne:
      // A stuck cell only changes the stored value when it held the opposite
      // bit — probability 1/2 for fair random storage.
      return model.rate / 2.0;
    case FaultKind::kTransientFlip:
    case FaultKind::kWordBurst:
      return model.rate;
  }
  HD_UNREACHABLE("expected_disturbed_fraction: FaultKind outside the enum");
}

double expected_similarity_after_fault(const FaultModel& model) {
  return 1.0 - 2.0 * expected_disturbed_fraction(model);
}

void apply_query_fault(const FaultPlan& plan, std::uint64_t query_index,
                       core::Hypervector& query) {
  if (!plan.queries || plan.model.rate <= 0.0) return;
  // Persistent kinds model one faulty query buffer: the same physical cells
  // fail for every window, so the pattern ignores the window index.
  const std::uint64_t index =
      plan.model.kind == FaultKind::kTransientFlip ? query_index : 0;
  core::Rng rng(fault_seed(plan.seed, FaultTarget::kQuery, index));
  sample_fault_mask(plan.model, query.dim(), rng).apply(query);
}

}  // namespace hdface::noise
