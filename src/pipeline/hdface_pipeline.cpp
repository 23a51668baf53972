#include "pipeline/hdface_pipeline.hpp"

#include <stdexcept>

#include "pipeline/features.hpp"
#include "util/thread_pool.hpp"

namespace hdface::pipeline {

namespace {
// Salt separating the dataset-encode seed stream from every other consumer
// of the pipeline seed (the batched scan salts with 0xBA7C4ED0, cell planes
// with their own pure key — see parallel_detect.cpp / cell_plane.hpp).
constexpr std::uint64_t kDatasetStreamSalt = 0xDA7A5E7DULL;

template <typename T>
std::unique_ptr<T> clone(const std::unique_ptr<T>& p) {
  return p ? std::make_unique<T>(*p) : nullptr;
}
}  // namespace

HdFacePipeline::HdFacePipeline(const HdFaceConfig& config, std::size_t image_width,
                               std::size_t image_height, std::size_t classes)
    : config_(config),
      classes_(classes),
      ctx_(core::StochasticConfig{.dim = config.dim,
                                  .seed = core::mix64(config.seed, 0xC0DE)}) {
  if (config_.mode == HdFaceMode::kHdHog) {
    hog::HdHogConfig hd;
    hd.hog = config_.hog;
    hd.hog.block_normalize = false;  // HD-HOG emits raw cell histograms
    hd.mode = config_.hd_hog_mode;
    hd_extractor_ = std::make_unique<hog::HdHogExtractor>(ctx_, hd, image_width,
                                                          image_height);
  } else {
    hog_extractor_ = std::make_unique<hog::HogExtractor>(config_.hog);
    learn::EncoderConfig ec;
    ec.dim = config_.dim;
    ec.input_dim = hog_extractor_->feature_size(image_width, image_height);
    ec.gamma = config_.encoder_gamma;
    ec.seed = core::mix64(config_.seed, 0xE2C);
    encoder_ = std::make_unique<learn::NonlinearEncoder>(ec);
  }
  learn::HdcConfig hc;
  hc.dim = config_.dim;
  hc.classes = classes;
  hc.learning_rate = config_.learning_rate;
  hc.epochs = config_.epochs;
  hc.adaptive = config_.adaptive;
  hc.seed = core::mix64(config_.seed, 0x11D);
  classifier_ = std::make_unique<learn::HdcClassifier>(hc);
}

HdFacePipeline::HdFacePipeline(const HdFacePipeline& other)
    : config_(other.config_),
      classes_(other.classes_),
      ctx_(other.ctx_),
      hd_extractor_(other.hd_extractor_
                        ? std::make_unique<hog::HdHogExtractor>(
                              *other.hd_extractor_, ctx_)
                        : nullptr),
      hog_extractor_(clone(other.hog_extractor_)),
      encoder_(clone(other.encoder_)),
      classifier_(clone(other.classifier_)),
      feature_counter_(other.feature_counter_) {}

void HdFacePipeline::set_counters(core::OpCounter* feature_counter,
                                  core::OpCounter* learn_counter) {
  feature_counter_ = feature_counter;
  ctx_.set_counter(feature_counter);
  classifier_->set_counter(learn_counter);
}

core::Hypervector HdFacePipeline::encode_image(const image::Image& img) {
  if (config_.mode == HdFaceMode::kHdHog) {
    return hd_extractor_->extract(img);
  }
  const std::vector<float> hog_features =
      hog_extractor_->extract(img, feature_counter_);
  return encoder_->encode(hog_features, feature_counter_);
}

core::Hypervector HdFacePipeline::encode_image(
    const image::Image& img, core::StochasticContext& scratch) const {
  if (config_.mode == HdFaceMode::kHdHog) {
    return hd_extractor_->extract(img, scratch);
  }
  // The classical HOG extractor and the nonlinear encoder are stateless at
  // inference; only op accounting flows through the scratch's counter.
  const std::vector<float> hog_features =
      hog_extractor_->extract(img, scratch.counter());
  return encoder_->encode(hog_features, scratch.counter());
}

void HdFacePipeline::ensure_encoder_calibrated(const dataset::Dataset& data) {
  if (config_.mode != HdFaceMode::kOrigHogEncoder || encoder_->calibrated()) {
    return;
  }
  // Calibration statistics come from the batch extraction helper, which fans
  // out over the worker pool and is bit-identical at every thread count.
  encoder_->calibrate(extract_hog_features(data, *hog_extractor_, nullptr));
}

std::vector<core::Hypervector> HdFacePipeline::encode_dataset(
    const dataset::Dataset& data) {
  ensure_encoder_calibrated(data);
  const std::size_t total = data.size();
  std::vector<core::Hypervector> out(total);
  // Image idx encodes on a scratch context reseeded from the pure key
  // mix64(seed_base, idx), so feature [idx] is a function of (config seed,
  // idx) alone — independent of chunking, thread count, and the pipeline's
  // own context (which fit order still consumes serially). This is a
  // deterministically *different* stream than the old serial-chain encode;
  // any fixed thread count reproduces it exactly.
  prepare_concurrent();
  const std::uint64_t seed_base = core::mix64(config_.seed, kDatasetStreamSalt);
  const HdFacePipeline& frozen = *this;
  const core::OpCounter ops = util::parallel_for_sharded<core::OpCounter>(
      &util::global_pool(), 0, total, 1,
      [this, &frozen, &data, &out, seed_base](
          core::OpCounter& shard, std::size_t lo, std::size_t hi) {
        core::StochasticContext scratch =
            frozen.fork_context(core::mix64(seed_base, lo));
        if (feature_counter_) scratch.set_counter(&shard);
        for (std::size_t idx = lo; idx < hi; ++idx) {
          scratch.reseed(core::mix64(seed_base, idx));
          out[idx] = frozen.encode_image(data.images[idx], scratch);
        }
      });
  if (feature_counter_) feature_counter_->merge(ops);
  return out;
}

void HdFacePipeline::fit(const dataset::Dataset& train) {
  train.validate();
  if (train.num_classes() != classes_) {
    throw std::invalid_argument("HdFacePipeline::fit: class count mismatch");
  }
  const auto features = encode_dataset(train);
  classifier_->fit(features, train.labels);
}

void HdFacePipeline::fit_features(const std::vector<core::Hypervector>& features,
                                  const std::vector<int>& labels) {
  classifier_->fit(features, labels);
}

int HdFacePipeline::predict(const image::Image& img) {
  return classifier_->predict(encode_image(img));
}

double HdFacePipeline::evaluate(const dataset::Dataset& test) {
  const auto features = encode_dataset(test);
  return classifier_->evaluate(features, test.labels);
}

double HdFacePipeline::evaluate_features(
    const std::vector<core::Hypervector>& features,
    const std::vector<int>& labels) const {
  return classifier_->evaluate(features, labels);
}

}  // namespace hdface::pipeline
