#include "pipeline/features.hpp"

#include "util/thread_pool.hpp"

namespace hdface::pipeline {

std::vector<std::vector<float>> extract_hog_features(
    const dataset::Dataset& data, const hog::HogExtractor& extractor,
    core::OpCounter* counter) {
  const std::size_t total = data.size();
  std::vector<std::vector<float>> out(total);
  // Classical HOG is deterministic per image, so the fan-out is trivially
  // bit-identical at any thread count; only op accounting needs sharding.
  const core::OpCounter ops = util::parallel_for_sharded<core::OpCounter>(
      &util::global_pool(), 0, total, 1,
      [&extractor, &data, &out, counter](core::OpCounter& shard,
                                          std::size_t lo, std::size_t hi) {
        core::OpCounter* ops = counter ? &shard : nullptr;
        for (std::size_t i = lo; i < hi; ++i) {
          out[i] = extractor.extract(data.images[i], ops);
        }
      });
  if (counter) counter->merge(ops);
  return out;
}

}  // namespace hdface::pipeline
