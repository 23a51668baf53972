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

HdFaceConfig session_config() {
  HdFaceConfig c;
  c.dim = 2048;
  c.mode = HdFaceMode::kHdHog;
  c.hd_hog_mode = hog::HdHogMode::kDecodeShortcut;
  c.hog.cell_size = 4;
  c.hog.bins = 8;
  c.epochs = 5;
  return c;
}

// One trained detector + scene, shared by the round-trip tests (training
// dominates runtime). Tests that corrupt state past recovery build their own.
struct SessionFixture {
  SessionFixture()
      : detector(api::DetectorBuilder()
                     .window(16)
                     .config(session_config())
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

SessionFixture& fixture() {
  static SessionFixture f;
  return f;
}

void expect_maps_identical(const DetectionMap& a, const DetectionMap& b) {
  ASSERT_EQ(a.predictions.size(), b.predictions.size());
  for (std::size_t i = 0; i < a.predictions.size(); ++i) {
    EXPECT_EQ(a.predictions[i], b.predictions[i]) << "window " << i;
    EXPECT_EQ(a.scores[i], b.scores[i]) << "window " << i;
  }
}

TEST(FaultSession, InjectThenRestoreLeavesDetectorBitIdentical) {
  // The ISSUE acceptance criterion: scan clean, scan under an injected plan,
  // scan clean again — the two clean maps must match bit for bit, proving
  // restore() put every stored word back exactly.
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

TEST(FaultSession, RestoreIsIdempotentAndClearsOverride) {
  auto& f = fixture();
  auto& pipe = *f.detector.pipeline();
  noise::FaultPlan plan;
  plan.model = {noise::FaultKind::kTransientFlip, 0.05};
  FaultSession session(pipe, plan);
  EXPECT_TRUE(session.active());
  EXPECT_GT(session.patched_vectors(), 0u);
  EXPECT_TRUE(pipe.classifier().has_binary_override());
  session.restore();
  EXPECT_FALSE(session.active());
  EXPECT_FALSE(pipe.classifier().has_binary_override());
  EXPECT_NO_THROW(session.restore());  // idempotent no-op
}

// A binary-prototype override unrelated to the trained accumulators, so a
// session that faults the wrong prototypes cannot pass by coincidence.
std::vector<core::Hypervector> random_override(const HdFacePipeline& pipe) {
  core::Rng rng(0x0BE5);
  std::vector<core::Hypervector> deployed;
  for (std::size_t c = 0; c < pipe.classifier().config().classes; ++c) {
    deployed.push_back(core::Hypervector::random(pipe.config().dim, rng));
  }
  return deployed;
}

TEST(FaultSession, RestorePutsBackAPriorOverride) {
  // A detector deployed with a binary-prototype override (as the benchmark's
  // is) must keep it bit for bit across a prototype-faulting session, not
  // fall back to cosine scoring.
  auto& f = fixture();
  auto& pipe = *f.detector.pipeline();
  const std::vector<core::Hypervector> deployed = random_override(pipe);
  pipe.mutable_classifier().set_binary_override(deployed);
  noise::FaultPlan plan;
  plan.model = {noise::FaultKind::kTransientFlip, 0.05};
  {
    FaultSession session(pipe, plan);
    EXPECT_NE(pipe.classifier().binary_override(), deployed);
    session.restore();
  }
  EXPECT_TRUE(pipe.classifier().has_binary_override());
  EXPECT_EQ(pipe.classifier().binary_override(), deployed);
  pipe.mutable_classifier().clear_binary_override();  // leave the fixture clean
}

TEST(FaultSession, PrototypePlanFaultsTheDeployedOverride) {
  // A detector deployed with an override scores against that override, so a
  // prototype plan must fault it, not the binarized accumulators: each class
  // carries exactly its own schedule mask applied to the deployed bits.
  auto& f = fixture();
  auto& pipe = *f.detector.pipeline();
  const std::vector<core::Hypervector> deployed = random_override(pipe);
  pipe.mutable_classifier().set_binary_override(deployed);
  noise::FaultPlan plan;
  plan.model = {noise::FaultKind::kTransientFlip, 0.05};
  plan.item_memory = false;
  {
    FaultSession session(pipe, plan);
    const auto& faulted = pipe.classifier().binary_override();
    ASSERT_EQ(faulted.size(), deployed.size());
    for (std::size_t c = 0; c < deployed.size(); ++c) {
      core::Rng rng(
          noise::fault_seed(plan.seed, noise::FaultTarget::kPrototype, c));
      const noise::FaultMask mask =
          noise::sample_fault_mask(plan.model, deployed[c].dim(), rng);
      EXPECT_EQ(faulted[c], mask.applied(deployed[c])) << "class " << c;
      EXPECT_NE(faulted[c], deployed[c]) << "class " << c;
    }
    session.restore();
  }
  EXPECT_EQ(pipe.classifier().binary_override(), deployed);
  pipe.mutable_classifier().clear_binary_override();  // leave the fixture clean
}

TEST(FaultSession, QueryOnlySessionWritesNothing) {
  // The serving layer runs a plan with no stored target under the shared
  // model lock, beside clean scans, on the promise that its session writes
  // no shared word: no patch, no faultable bit, and item memories, mask pool
  // and a deployed override stay bit-identical while the session is open.
  auto& f = fixture();
  auto& pipe = *f.detector.pipeline();
  const std::vector<core::Hypervector> deployed = random_override(pipe);
  pipe.mutable_classifier().set_binary_override(deployed);
  pipe.prepare_concurrent();  // the session warms the pool; snapshot it warm
  ASSERT_NE(pipe.hd_extractor(), nullptr);
  const auto stored_words = [&pipe] {
    std::vector<core::Hypervector> words;
    auto& ext = *pipe.hd_extractor();
    for (std::size_t i = 0; i < ext.item_memory().levels(); ++i) {
      words.push_back(ext.item_memory().level(i));
    }
    auto& hm = ext.mutable_histogram_memory();
    for (std::size_t i = 0; i < hm.levels(); ++i) words.push_back(hm.level(i));
    auto& ctx = pipe.context();
    for (std::size_t b = 0; b < ctx.pool_buckets(); ++b) {
      for (const auto& entry : ctx.mutable_pool_bucket(b)) {
        words.push_back(entry);
      }
    }
    return words;
  };
  const std::vector<core::Hypervector> before = stored_words();
  ASSERT_FALSE(before.empty());

  noise::FaultPlan plan;
  plan.model = {noise::FaultKind::kTransientFlip, 0.1};
  plan.item_memory = false;
  plan.prototypes = false;
  ASSERT_FALSE(plan.targets_stored_memory());
  {
    FaultSession session(pipe, plan);
    EXPECT_EQ(session.patched_vectors(), 0u);
    EXPECT_EQ(session.faultable_bits(), 0u);
    EXPECT_EQ(session.disturbed_bits(), 0u);
    EXPECT_TRUE(stored_words() == before);
    EXPECT_EQ(pipe.classifier().binary_override(), deployed);
    session.restore();
  }
  EXPECT_TRUE(stored_words() == before);
  EXPECT_EQ(pipe.classifier().binary_override(), deployed);
  pipe.mutable_classifier().clear_binary_override();  // leave the fixture clean
}

TEST(FaultSession, DisturbanceTracksExpectedFraction) {
  auto& f = fixture();
  auto& pipe = *f.detector.pipeline();
  struct Case {
    noise::FaultKind kind;
    double rate;
  };
  for (const auto& c : {Case{noise::FaultKind::kTransientFlip, 0.10},
                        Case{noise::FaultKind::kStuckAtZero, 0.10},
                        Case{noise::FaultKind::kWordBurst, 0.10}}) {
    noise::FaultPlan plan;
    plan.model = {c.kind, c.rate};
    FaultSession session(pipe, plan);
    ASSERT_GT(session.faultable_bits(), 0u);
    const double p = noise::expected_disturbed_fraction(plan.model);
    const double observed =
        static_cast<double>(session.disturbed_bits()) /
        static_cast<double>(session.faultable_bits());
    // Word bursts disturb 64-bit blocks, so the effective trial count shrinks
    // by 64; 6σ over the whole faultable pool.
    const double n = static_cast<double>(session.faultable_bits()) /
                     (c.kind == noise::FaultKind::kWordBurst ? 64.0 : 1.0);
    EXPECT_NEAR(observed, p, 6.0 * std::sqrt(p * (1.0 - p) / n))
        << fault_kind_name(c.kind);
    session.restore();
  }
}

TEST(FaultSession, RateZeroPlanStillSwitchesInferenceMode) {
  // Clean-baseline cells of a sweep must run the same binary Hamming path as
  // faulted cells; at rate 0 the override holds the *clean* binary
  // prototypes.
  auto& f = fixture();
  auto& pipe = *f.detector.pipeline();
  noise::FaultPlan plan;
  plan.model = {noise::FaultKind::kStuckAtOne, 0.0};
  FaultSession session(pipe, plan);
  EXPECT_EQ(session.disturbed_bits(), 0u);
  ASSERT_TRUE(pipe.classifier().has_binary_override());
  EXPECT_EQ(pipe.classifier().binary_override(),
            pipe.classifier().binary_prototypes());
  session.restore();
}

TEST(FaultSession, RestoreThrowsWhenStorageMutatedBehindIt) {
  // An untrained local pipeline: this test leaves storage corrupted (that is
  // the point), so it must not share the fixture.
  HdFacePipeline pipe(session_config(), 16, 16, 2);
  noise::FaultPlan plan;
  plan.model = {noise::FaultKind::kStuckAtOne, 0.1};
  FaultSession session(pipe, plan);
  ASSERT_NE(pipe.hd_extractor(), nullptr);
  pipe.hd_extractor()->mutable_item_memory().mutable_level(0).flip(7);
  EXPECT_THROW(session.restore(), std::runtime_error);
}

TEST(FaultSession, UpdateUnderOverrideThrows) {
  learn::HdcConfig hc;
  hc.dim = 256;
  hc.classes = 2;
  learn::HdcClassifier model(hc);
  core::Rng rng(5);
  const auto feature = core::Hypervector::random(256, rng);
  model.update(feature, 1);  // trains fine without an override
  model.set_binary_override(model.binary_prototypes());
  EXPECT_THROW(model.update(feature, 1), std::logic_error);
  model.clear_binary_override();
  EXPECT_NO_THROW(model.update(feature, 0));
}

TEST(FaultSession, ValidatesPlan) {
  HdFacePipeline pipe(session_config(), 16, 16, 2);
  noise::FaultPlan plan;
  plan.model = {noise::FaultKind::kTransientFlip, 1.5};
  EXPECT_THROW(FaultSession(pipe, plan), std::invalid_argument);
  plan.model.rate = -0.1;
  EXPECT_THROW(FaultSession(pipe, plan), std::invalid_argument);
  plan.model.rate = std::nan("");
  EXPECT_THROW(FaultSession(pipe, plan), std::invalid_argument);
}

}  // namespace
}  // namespace hdface::pipeline
