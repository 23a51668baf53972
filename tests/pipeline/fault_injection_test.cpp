#include "pipeline/fault_injection.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "api/detector.hpp"
#include "core/rng.hpp"
#include "dataset/background_generator.hpp"
#include "dataset/face_generator.hpp"
#include "image/transform.hpp"
#include "learn/hdc_model.hpp"

namespace hdface::pipeline {
namespace {

HdFaceConfig copy_config() {
  HdFaceConfig c;
  c.dim = 2048;
  c.mode = HdFaceMode::kHdHog;
  c.hd_hog_mode = hog::HdHogMode::kDecodeShortcut;
  c.hog.cell_size = 4;
  c.hog.bins = 8;
  c.epochs = 5;
  return c;
}

// One trained detector + scene, shared by every test (training dominates
// runtime). A faulted copy only reads the detector, so no test has to put
// anything back.
struct CopyFixture {
  CopyFixture()
      : detector(api::DetectorBuilder()
                     .window(16)
                     .config(copy_config())
                     .build()),
        scene(48, 48, 0.5f) {
    dataset::FaceDatasetConfig data_cfg;
    data_cfg.num_samples = 60;
    data_cfg.image_size = 16;
    detector.fit(dataset::make_face_dataset(data_cfg));
    core::Rng rng(33);
    dataset::render_background(scene, dataset::BackgroundKind::kValueNoise, rng);
    image::paste(scene, dataset::render_face_window(16, 1234), 16, 16);
  }

  api::Detector detector;
  image::Image scene;
};

CopyFixture& fixture() {
  static CopyFixture f;
  return f;
}

void expect_maps_identical(const DetectionMap& a, const DetectionMap& b) {
  ASSERT_EQ(a.predictions.size(), b.predictions.size());
  for (std::size_t i = 0; i < a.predictions.size(); ++i) {
    EXPECT_EQ(a.predictions[i], b.predictions[i]) << "window " << i;
    EXPECT_EQ(a.scores[i], b.scores[i]) << "window " << i;
  }
}

// A binary-prototype override unrelated to the trained accumulators, so a
// copy that faults the wrong prototypes cannot pass by coincidence.
std::vector<core::Hypervector> random_override(const HdFacePipeline& pipe) {
  core::Rng rng(0x0BE5);
  std::vector<core::Hypervector> deployed;
  for (std::size_t c = 0; c < pipe.classifier().config().classes; ++c) {
    deployed.push_back(core::Hypervector::random(pipe.config().dim, rng));
  }
  return deployed;
}

// Every stored word a scan of `pipe` reads: item- and histogram-memory
// levels, mask-pool entries, and the binary-prototype override.
std::vector<core::Hypervector> stored_words(HdFacePipeline& pipe) {
  std::vector<core::Hypervector> words;
  auto& ext = *pipe.hd_extractor();
  for (std::size_t i = 0; i < ext.item_memory().levels(); ++i) {
    words.push_back(ext.item_memory().level(i));
  }
  auto& hm = ext.mutable_histogram_memory();
  for (std::size_t i = 0; i < hm.levels(); ++i) words.push_back(hm.level(i));
  auto& ctx = pipe.context();
  for (std::size_t b = 0; b < ctx.pool_buckets(); ++b) {
    for (const auto& entry : ctx.mutable_pool_bucket(b)) words.push_back(entry);
  }
  for (const auto& p : pipe.classifier().binary_override()) words.push_back(p);
  return words;
}

TEST(FaultedCopy, CleanScansAroundAFaultedScanAreBitIdentical) {
  // Scan clean, scan under a stored-memory plan, scan clean again: the two
  // clean maps must match bit for bit, because the faulted scan ran on a
  // copy and never wrote the detector it was asked to fault.
  auto& f = fixture();
  api::DetectOptions clean;
  clean.threads = 2;
  const auto before = f.detector.detect_map(f.scene, clean);

  for (const auto kind :
       {noise::FaultKind::kStuckAtOne, noise::FaultKind::kWordBurst}) {
    api::DetectOptions faulty = clean;
    faulty.fault_plan = noise::FaultPlan{{kind, 0.15}, 0xF417};
    const auto faulted = f.detector.detect_map(f.scene, faulty);
    ASSERT_EQ(faulted.scores.size(), before.scores.size());
    // Prototype faults switch inference to the Hamming path, so the faulted
    // scores come from a genuinely different (corrupted) detector.
    bool any_diff = false;
    for (std::size_t i = 0; i < faulted.scores.size(); ++i) {
      any_diff |= faulted.scores[i] != before.scores[i];
    }
    EXPECT_TRUE(any_diff) << fault_kind_name(kind);

    const auto after = f.detector.detect_map(f.scene, clean);
    SCOPED_TRACE(fault_kind_name(kind));
    expect_maps_identical(before, after);
  }
}

TEST(FaultedCopy, PriorOverrideSurvivesAPrototypePlan) {
  // A detector deployed with a binary-prototype override (as the
  // benchmark's is) keeps it bit for bit while a prototype-faulting plan
  // runs on its copy, and after: it never falls back to cosine scoring.
  HdFacePipeline deployed_pipe(*fixture().detector.pipeline());
  const std::vector<core::Hypervector> deployed =
      random_override(deployed_pipe);
  deployed_pipe.mutable_classifier().set_binary_override(deployed);
  noise::FaultPlan plan;
  plan.model = {noise::FaultKind::kTransientFlip, 0.05};
  {
    const FaultedCopy faulted = faulted_copy(deployed_pipe, plan);
    EXPECT_NE(faulted.pipeline->classifier().binary_override(), deployed);
    EXPECT_EQ(deployed_pipe.classifier().binary_override(), deployed);
  }
  EXPECT_TRUE(deployed_pipe.classifier().has_binary_override());
  EXPECT_EQ(deployed_pipe.classifier().binary_override(), deployed);
}

TEST(FaultedCopy, PrototypePlanFaultsTheDeployedOverride) {
  // A detector deployed with an override scores against that override, so a
  // prototype plan must fault it, not the binarized accumulators: each class
  // carries exactly its own schedule mask applied to the deployed bits.
  HdFacePipeline deployed_pipe(*fixture().detector.pipeline());
  const std::vector<core::Hypervector> deployed =
      random_override(deployed_pipe);
  deployed_pipe.mutable_classifier().set_binary_override(deployed);
  noise::FaultPlan plan;
  plan.model = {noise::FaultKind::kTransientFlip, 0.05};
  plan.item_memory = false;
  const FaultedCopy copy = faulted_copy(deployed_pipe, plan);
  const auto& faulted = copy.pipeline->classifier().binary_override();
  ASSERT_EQ(faulted.size(), deployed.size());
  for (std::size_t c = 0; c < deployed.size(); ++c) {
    core::Rng rng(
        noise::fault_seed(plan.seed, noise::FaultTarget::kPrototype, c));
    const noise::FaultMask mask =
        noise::sample_fault_mask(plan.model, deployed[c].dim(), rng);
    EXPECT_EQ(faulted[c], mask.applied(deployed[c])) << "class " << c;
    EXPECT_NE(faulted[c], deployed[c]) << "class " << c;
  }
}

TEST(FaultedCopy, NoPlanWritesTheOriginal) {
  // Whatever a plan targets, its copy owns every word it faults: no
  // item-memory, histogram-memory, mask-pool or override word of the
  // original changes. A copy that still shared the original's mask pool
  // would fault it here.
  HdFacePipeline original(*fixture().detector.pipeline());
  original.mutable_classifier().set_binary_override(random_override(original));
  original.prepare_concurrent();  // faulted_copy warms; snapshot it warm
  ASSERT_NE(original.hd_extractor(), nullptr);
  const std::vector<core::Hypervector> before = stored_words(original);

  struct Case {
    noise::FaultKind kind;
    bool item_memory;
    bool prototypes;
  };
  for (const auto& c :
       {Case{noise::FaultKind::kTransientFlip, false, false},
        Case{noise::FaultKind::kStuckAtZero, true, false},
        Case{noise::FaultKind::kStuckAtOne, false, true},
        Case{noise::FaultKind::kWordBurst, true, true}}) {
    SCOPED_TRACE(fault_kind_name(c.kind));
    noise::FaultPlan plan;
    plan.model = {c.kind, 0.1};
    plan.item_memory = c.item_memory;
    plan.prototypes = c.prototypes;
    const FaultedCopy faulted = faulted_copy(original, plan);
    if (plan.targets_stored_memory()) {
      EXPECT_GT(faulted.disturbed_bits, 0u);
      EXPECT_FALSE(stored_words(*faulted.pipeline) == before);
    } else {
      EXPECT_EQ(faulted.faultable_bits, 0u);
      EXPECT_EQ(faulted.disturbed_bits, 0u);
    }
    EXPECT_TRUE(stored_words(original) == before);
  }
}

TEST(FaultedCopy, ExtractorReadsTheCopysContext) {
  // The single-argument encode draws from the pipeline's own context. Had
  // the copy's extractor kept the original's context, encoding through the
  // copy would advance the original's chain, and the original's next encode
  // would no longer match an untouched twin's first one.
  HdFacePipeline pipe(copy_config(), 16, 16, 2);
  HdFacePipeline twin(copy_config(), 16, 16, 2);
  twin.prepare_concurrent();
  const image::Image img = dataset::render_face_window(16, 77);
  noise::FaultPlan plan;
  plan.model = {noise::FaultKind::kTransientFlip, 0.0};
  plan.prototypes = false;
  const FaultedCopy faulted = faulted_copy(pipe, plan);
  const core::Hypervector expected = twin.encode_image(img);
  EXPECT_EQ(faulted.pipeline->encode_image(img), expected);
  EXPECT_EQ(pipe.encode_image(img), expected);
}

TEST(FaultedCopy, DisturbanceTracksExpectedFraction) {
  auto& pipe = *fixture().detector.pipeline();
  struct Case {
    noise::FaultKind kind;
    double rate;
  };
  for (const auto& c : {Case{noise::FaultKind::kTransientFlip, 0.10},
                        Case{noise::FaultKind::kStuckAtZero, 0.10},
                        Case{noise::FaultKind::kWordBurst, 0.10}}) {
    noise::FaultPlan plan;
    plan.model = {c.kind, c.rate};
    const FaultedCopy faulted = faulted_copy(pipe, plan);
    ASSERT_GT(faulted.faultable_bits, 0u);
    const double p = noise::expected_disturbed_fraction(plan.model);
    const double observed = static_cast<double>(faulted.disturbed_bits) /
                            static_cast<double>(faulted.faultable_bits);
    // Word bursts disturb 64-bit blocks, so the effective trial count shrinks
    // by 64; 6σ over the whole faultable pool.
    const double n = static_cast<double>(faulted.faultable_bits) /
                     (c.kind == noise::FaultKind::kWordBurst ? 64.0 : 1.0);
    EXPECT_NEAR(observed, p, 6.0 * std::sqrt(p * (1.0 - p) / n))
        << fault_kind_name(c.kind);
  }
}

TEST(FaultedCopy, RateZeroPlanStillSwitchesInferenceMode) {
  // Clean-baseline cells of a sweep must run the same binary Hamming path as
  // faulted cells; at rate 0 the copy's override holds the *clean* binary
  // prototypes, and the original keeps its cosine scoring.
  auto& pipe = *fixture().detector.pipeline();
  noise::FaultPlan plan;
  plan.model = {noise::FaultKind::kStuckAtOne, 0.0};
  const FaultedCopy faulted = faulted_copy(pipe, plan);
  EXPECT_EQ(faulted.disturbed_bits, 0u);
  const learn::HdcClassifier& copied = faulted.pipeline->classifier();
  ASSERT_TRUE(copied.has_binary_override());
  EXPECT_EQ(copied.binary_override(), pipe.classifier().binary_prototypes());
  EXPECT_FALSE(pipe.classifier().has_binary_override());
}

TEST(FaultedCopy, ValidatesPlan) {
  HdFacePipeline pipe(copy_config(), 16, 16, 2);
  noise::FaultPlan plan;
  plan.model = {noise::FaultKind::kTransientFlip, 1.5};
  EXPECT_THROW(faulted_copy(pipe, plan), std::invalid_argument);
  plan.model.rate = -0.1;
  EXPECT_THROW(faulted_copy(pipe, plan), std::invalid_argument);
  plan.model.rate = std::nan("");
  EXPECT_THROW(faulted_copy(pipe, plan), std::invalid_argument);
}

}  // namespace
}  // namespace hdface::pipeline
