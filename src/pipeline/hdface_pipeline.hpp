#pragma once

// End-to-end HDFace pipeline (paper Fig 1 / §6.2).
//
// Two configurations, matching the paper's evaluation:
//   kHdHog          — HOG runs in hyperspace (HD-HOG); extracted features are
//                     already hypervectors and feed the HDC learner directly
//                     ("no encoding module").
//   kOrigHogEncoder — HOG runs on the original float representation; the
//                     nonlinear encoder maps the descriptor into hyperspace
//                     before HDC learning.
//
// Feature-extraction work and learning work are charged to two separate
// OpCounters so the benches can reproduce the paper's §2 observation that
// feature extraction dominates training cost.

#include <memory>
#include <vector>

#include "core/hypervector.hpp"
#include "core/op_counter.hpp"
#include "core/stochastic.hpp"
#include "dataset/dataset.hpp"
#include "hog/hd_hog.hpp"
#include "hog/hog.hpp"
#include "learn/encoder.hpp"
#include "learn/hdc_model.hpp"

namespace hdface::pipeline {

enum class HdFaceMode { kHdHog, kOrigHogEncoder };

struct HdFaceConfig {
  std::size_t dim = 4096;
  HdFaceMode mode = HdFaceMode::kHdHog;
  hog::HogConfig hog;  // geometry shared by both modes
  hog::HdHogMode hd_hog_mode = hog::HdHogMode::kFaithful;
  std::size_t epochs = 10;
  double learning_rate = 1.0;
  bool adaptive = true;
  double encoder_gamma = 1.0;
  std::uint64_t seed = 0xFACE;
};

class HdFacePipeline {
 public:
  // Built for a fixed window geometry and class count.
  HdFacePipeline(const HdFaceConfig& config, std::size_t image_width,
                 std::size_t image_height, std::size_t classes);

  // Deep copy: its own context, extractor (bound to that context), encoder
  // and classifier. The warmed mask pool stays shared, read-only, until the
  // copy's context calls unshare_pool(); the op-counter sinks carry over.
  // pipeline::faulted_copy faults a copy made this way.
  HdFacePipeline(const HdFacePipeline& other);

  const HdFaceConfig& config() const { return config_; }
  core::StochasticContext& context() { return ctx_; }
  const learn::HdcClassifier& classifier() const { return *classifier_; }

  // Mutable access to the classifier (to deploy a binary-prototype override)
  // and to the HD-HOG extractor's stored item memories, which
  // pipeline::faulted_copy faults on a copy. hd_extractor() is nullptr in
  // kOrigHogEncoder mode, which has no hypervector item memory to corrupt.
  learn::HdcClassifier& mutable_classifier() { return *classifier_; }
  hog::HdHogExtractor* hd_extractor() { return hd_extractor_.get(); }

  // Image → feature hypervector (the encoder must be calibrated first in
  // kOrigHogEncoder mode; fit() and encode_dataset() handle that).
  core::Hypervector encode_image(const image::Image& img);

  // --- concurrent encoding ---------------------------------------------------
  //
  // The single-argument encode_image draws from the pipeline's own stochastic
  // context and is therefore single-threaded. For batched scans, each worker
  // owns a scratch context forked from the pipeline's (same basis, same
  // warmed mask pool, independent RNG chain) and passes it here; this method
  // touches no mutable pipeline state. Reseed the scratch before each window
  // to make results independent of work distribution (see
  // StochasticContext::fork for the determinism contract).
  core::Hypervector encode_image(const image::Image& img,
                                 core::StochasticContext& scratch) const;

  // Warm the shared mask pool so fork_context() is cheap and race-free.
  // Idempotent; call once before any concurrent encoding.
  void prepare_concurrent() { ctx_.warm_pool(); }

  // Scratch context for one worker (requires prepare_concurrent() first).
  core::StochasticContext fork_context(std::uint64_t stream_seed) const {
    return ctx_.fork(stream_seed);
  }

  // Batch feature extraction over the global worker pool. Feature [idx] is a
  // pure function of (config seed, idx): each image encodes on a scratch
  // context reseeded from mix64(mix64(seed, dataset salt), idx), so the
  // result is bit-identical at every thread count (fit() keeps its serial
  // update order, so trained models stay bit-identical too). The per-image
  // keying is a deterministically different stream than the pipeline
  // context's serial chain that encode_image(img) consumes.
  std::vector<core::Hypervector> encode_dataset(const dataset::Dataset& data);

  // Train on a dataset (extracts features, then fits the HDC classifier).
  void fit(const dataset::Dataset& train);

  // Train on pre-extracted features (for dimensionality sweeps).
  void fit_features(const std::vector<core::Hypervector>& features,
                    const std::vector<int>& labels);

  int predict(const image::Image& img);
  double evaluate(const dataset::Dataset& test);
  double evaluate_features(const std::vector<core::Hypervector>& features,
                           const std::vector<int>& labels) const;

  // Instrumentation: feature-extraction ops vs learning ops.
  void set_counters(core::OpCounter* feature_counter,
                    core::OpCounter* learn_counter);

 private:
  void ensure_encoder_calibrated(const dataset::Dataset& data);

  HdFaceConfig config_;
  std::size_t classes_;
  core::StochasticContext ctx_;
  // kHdHog mode.
  std::unique_ptr<hog::HdHogExtractor> hd_extractor_;
  // kOrigHogEncoder mode.
  std::unique_ptr<hog::HogExtractor> hog_extractor_;
  std::unique_ptr<learn::NonlinearEncoder> encoder_;
  std::unique_ptr<learn::HdcClassifier> classifier_;
  core::OpCounter* feature_counter_ = nullptr;
};

}  // namespace hdface::pipeline
