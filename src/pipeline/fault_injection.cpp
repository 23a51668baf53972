#include "pipeline/fault_injection.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "util/check.hpp"

namespace hdface::pipeline {

namespace {

// Applies the plan's mask for (target, index) to `stored` and tallies it.
void inject(const noise::FaultPlan& plan, noise::FaultTarget target,
            std::uint64_t index, core::Hypervector& stored, FaultedCopy& out) {
  core::Rng rng(noise::fault_seed(plan.seed, target, index));
  const noise::FaultMask mask =
      noise::sample_fault_mask(plan.model, stored.dim(), rng);
  // Each fault plane indexes the same packed words as the storage it faults;
  // a width disagreement would read/write past the shorter word array.
  HD_CHECK(mask.clear.dim() == stored.dim() && mask.set.dim() == stored.dim() &&
               mask.flip.dim() == stored.dim(),
           "inject: fault-plane width does not match the target storage");
  core::Hypervector faulted = mask.applied(stored);
  out.disturbed_bits += core::hamming(stored, faulted);
  out.faultable_bits += stored.dim();
  stored = std::move(faulted);
}

}  // namespace

FaultedCopy faulted_copy(HdFacePipeline& pipeline,
                         const noise::FaultPlan& plan) {
  if (!noise::valid_rate(plan.model.rate)) {
    throw std::invalid_argument("faulted_copy: rate must be in [0, 1]");
  }
  pipeline.prepare_concurrent();
  FaultedCopy out{std::make_unique<HdFacePipeline>(pipeline)};
  HdFacePipeline& copy = *out.pipeline;

  if (plan.item_memory) {
    if (auto* ext = copy.hd_extractor()) {
      auto& im = ext->mutable_item_memory();
      for (std::size_t i = 0; i < im.levels(); ++i) {
        inject(plan, noise::FaultTarget::kItemMemory, i, im.mutable_level(i),
               out);
      }
      auto& hm = ext->mutable_histogram_memory();
      for (std::size_t i = 0; i < hm.levels(); ++i) {
        inject(plan, noise::FaultTarget::kHistogramMemory, i,
               hm.mutable_level(i), out);
      }
    }
    auto& ctx = copy.context();
    ctx.unshare_pool();  // the copied context still reads the original's pool
    std::uint64_t entry_index = 0;
    for (std::size_t b = 0; b < ctx.pool_buckets(); ++b) {
      for (auto& entry : ctx.mutable_pool_bucket(b)) {
        inject(plan, noise::FaultTarget::kMaskPool, entry_index++, entry, out);
      }
    }
  }

  if (plan.prototypes) {
    // Fault the prototypes the detector scores against: its deployed
    // override if it has one, else the binarized accumulators.
    const learn::HdcClassifier& classifier = copy.classifier();
    std::vector<core::Hypervector> protos =
        classifier.has_binary_override() ? classifier.binary_override()
                                         : classifier.binary_prototypes();
    for (std::size_t c = 0; c < protos.size(); ++c) {
      inject(plan, noise::FaultTarget::kPrototype, c, protos[c], out);
    }
    copy.mutable_classifier().set_binary_override(std::move(protos));
  }
  return out;
}

}  // namespace hdface::pipeline
