#include "pipeline/fault_injection.hpp"

#include <stdexcept>

#include "core/rng.hpp"
#include "util/check.hpp"

namespace hdface::pipeline {

namespace {

std::uint64_t words_checksum(const std::vector<core::Hypervector*>& targets) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const auto* v : targets) {
    for (const std::uint64_t w : v->words()) h = core::mix64(h, w);
  }
  return h;
}

}  // namespace

void FaultSession::inject(noise::FaultTarget target, std::uint64_t index,
                          core::Hypervector& stored) {
  core::Rng rng(noise::fault_seed(plan_.seed, target, index));
  const noise::FaultMask mask =
      noise::sample_fault_mask(plan_.model, stored.dim(), rng);
  // Each fault plane indexes the same packed words as the storage it patches;
  // a width disagreement would read/write past the shorter word array.
  HD_CHECK(mask.clear.dim() == stored.dim() && mask.set.dim() == stored.dim() &&
               mask.flip.dim() == stored.dim(),
           "inject: fault-plane width does not match the target storage");
  patches_.push_back(Patch{&stored, stored});
  mask.apply(stored);
  disturbed_bits_ += core::hamming(patches_.back().clean, stored);
  faultable_bits_ += stored.dim();
}

FaultSession::FaultSession(HdFacePipeline& pipeline,
                           const noise::FaultPlan& plan)
    : pipeline_(pipeline), plan_(plan) {
  if (!(plan.model.rate >= 0.0 && plan.model.rate <= 1.0)) {  // NaN fails
    throw std::invalid_argument("FaultSession: rate must be in [0, 1]");
  }
  // Warm the shared mask pool *before* patching it: a lazily-filled pool
  // would race the fill, and fork_context() requires a warmed pool anyway.
  pipeline_.prepare_concurrent();

  if (plan_.item_memory) {
    if (auto* ext = pipeline_.hd_extractor()) {
      auto& im = ext->mutable_item_memory();
      for (std::size_t i = 0; i < im.levels(); ++i) {
        inject(noise::FaultTarget::kItemMemory, i, im.mutable_level(i));
      }
      auto& hm = ext->mutable_histogram_memory();
      for (std::size_t i = 0; i < hm.levels(); ++i) {
        inject(noise::FaultTarget::kHistogramMemory, i, hm.mutable_level(i));
      }
    }
    auto& ctx = pipeline_.context();
    std::uint64_t entry_index = 0;
    for (std::size_t b = 0; b < ctx.pool_buckets(); ++b) {
      for (auto& entry : ctx.mutable_pool_bucket(b)) {
        inject(noise::FaultTarget::kMaskPool, entry_index++, entry);
      }
    }
  }

  if (plan_.prototypes) {
    // Fault the prototypes the detector scores against: its deployed
    // override if it has one, else the binarized accumulators. Keep the
    // override, if any, so restore() puts it back instead of dropping to
    // cosine scoring.
    const learn::HdcClassifier& classifier = pipeline_.classifier();
    prior_override_ = classifier.binary_override();
    auto protos = classifier.has_binary_override()
                      ? prior_override_
                      : classifier.binary_prototypes();
    for (std::size_t c = 0; c < protos.size(); ++c) {
      core::Rng rng(
          noise::fault_seed(plan_.seed, noise::FaultTarget::kPrototype, c));
      const noise::FaultMask mask =
          noise::sample_fault_mask(plan_.model, protos[c].dim(), rng);
      const core::Hypervector clean = protos[c];
      mask.apply(protos[c]);
      disturbed_bits_ += core::hamming(clean, protos[c]);
      faultable_bits_ += protos[c].dim();
    }
    pipeline_.mutable_classifier().set_binary_override(std::move(protos));
    override_set_ = true;
  }

  std::vector<core::Hypervector*> targets;
  targets.reserve(patches_.size());
  for (const auto& p : patches_) targets.push_back(p.target);
  faulted_checksum_ = words_checksum(targets);
  active_ = true;
}

void FaultSession::restore() {
  if (!active_) return;

  std::vector<core::Hypervector*> targets;
  targets.reserve(patches_.size());
  for (const auto& p : patches_) targets.push_back(p.target);

  // Refuse to "restore" over storage someone else mutated mid-session: the
  // clean snapshots would silently erase their writes.
  if (words_checksum(targets) != faulted_checksum_) {
    throw std::runtime_error(
        "FaultSession::restore: faulted storage was mutated behind the "
        "session's back (checksum mismatch)");
  }

  for (auto& p : patches_) *p.target = p.clean;
  for (const auto& p : patches_) {
    if (core::hamming(*p.target, p.clean) != 0) {
      throw std::runtime_error("FaultSession::restore: verification failed");
    }
  }
  patches_.clear();

  if (override_set_) {
    if (prior_override_.empty()) {
      pipeline_.mutable_classifier().clear_binary_override();
    } else {
      pipeline_.mutable_classifier().set_binary_override(
          std::move(prior_override_));
    }
    override_set_ = false;
  }
  active_ = false;
}

FaultSession::~FaultSession() {
  try {
    restore();
  } catch (...) {
    // A throwing destructor would terminate; explicit restore() reports.
  }
}

}  // namespace hdface::pipeline
