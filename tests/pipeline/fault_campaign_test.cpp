#include "pipeline/fault_campaign.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include <gtest/gtest.h>

#include "dataset/background_generator.hpp"
#include "dataset/face_generator.hpp"
#include "image/transform.hpp"

namespace hdface::pipeline {
namespace {

HdFaceConfig campaign_config() {
  HdFaceConfig c;
  c.dim = 1024;
  c.mode = HdFaceMode::kHdHog;
  c.hd_hog_mode = hog::HdHogMode::kDecodeShortcut;
  c.hog.cell_size = 4;
  c.hog.bins = 8;
  c.epochs = 5;
  return c;
}

// Trained subject, held-out set, and a planted-face scene, shared by every
// campaign test (training dominates runtime; a campaign faults only copies
// of the subject, so the subject stays clean between tests).
struct CampaignFixture {
  CampaignFixture()
      : pipeline(std::make_shared<HdFacePipeline>(campaign_config(), 16, 16, 2)),
        scene(48, 48, 0.5f) {
    dataset::FaceDatasetConfig data_cfg;
    data_cfg.num_samples = 60;
    data_cfg.image_size = 16;
    pipeline->fit(make_face_dataset(data_cfg));
    data_cfg.num_samples = 24;
    data_cfg.seed = 777;
    test = make_face_dataset(data_cfg);
    core::Rng rng(9);
    dataset::render_background(scene, dataset::BackgroundKind::kValueNoise, rng);
    image::paste(scene, dataset::render_face_window(16, 4321), 16, 16);
  }

  FaultCampaignConfig small_grid(std::size_t threads) const {
    FaultCampaignConfig cc;
    cc.kinds = {noise::FaultKind::kTransientFlip, noise::FaultKind::kStuckAtOne};
    cc.rates = {0.0, 0.10};
    cc.threads = threads;
    cc.min_chunk = 1;  // force real chunking on the small held-out set
    cc.stride = 8;
    return cc;
  }

  std::shared_ptr<HdFacePipeline> pipeline;
  dataset::Dataset test;
  image::Image scene;
  std::vector<Detection> truth = {{16, 16, 16, 0.0}};
};

CampaignFixture& fixture() {
  static CampaignFixture f;
  return f;
}

TEST(FaultCampaign, Validates) {
  FaultCampaignConfig cc;
  cc.kinds.clear();
  EXPECT_THROW(FaultCampaign{cc}, std::invalid_argument);
  cc = {};
  cc.rates = {1.5};
  EXPECT_THROW(FaultCampaign{cc}, std::invalid_argument);
  cc.rates = {0.0, std::nan("")};
  EXPECT_THROW(FaultCampaign{cc}, std::invalid_argument);
  FaultCampaign campaign;
  EXPECT_THROW(campaign.add_subject("x", nullptr, 16), std::invalid_argument);
  EXPECT_THROW(campaign.run(fixture().test), std::logic_error);  // no subjects
}

TEST(FaultCampaign, GridComesBackInSubjectKindRateOrder) {
  auto& f = fixture();
  FaultCampaign campaign(f.small_grid(1));
  campaign.add_subject("d1024", f.pipeline, 16);
  const auto cells = campaign.run(f.test);
  ASSERT_EQ(cells.size(), 4u);  // 1 subject x 2 kinds x 2 rates
  EXPECT_EQ(cells[0].kind, noise::FaultKind::kTransientFlip);
  EXPECT_DOUBLE_EQ(cells[0].rate, 0.0);
  EXPECT_DOUBLE_EQ(cells[1].rate, 0.10);
  EXPECT_EQ(cells[2].kind, noise::FaultKind::kStuckAtOne);
  for (const auto& c : cells) {
    EXPECT_EQ(c.subject, "d1024");
    EXPECT_EQ(c.dim, 1024u);
    EXPECT_EQ(c.samples, f.test.images.size());
    EXPECT_GE(c.accuracy, 0.0);
    EXPECT_LE(c.accuracy, 1.0);
    EXPECT_FALSE(c.has_scene);
    EXPECT_GT(c.faultable_bits, 0u);
  }
  // Rate-0 cells are the clean reference: nothing disturbed.
  EXPECT_EQ(cells[0].disturbed_bits, 0u);
  EXPECT_GT(cells[1].disturbed_bits, 0u);
  // The campaign restored its subject: a second run reproduces exactly.
  const auto again = campaign.run(f.test);
  ASSERT_EQ(again.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(again[i].accuracy, cells[i].accuracy) << "cell " << i;
    EXPECT_EQ(again[i].disturbed_bits, cells[i].disturbed_bits) << "cell " << i;
  }
}

TEST(FaultCampaign, ResultsBitIdenticalAcrossThreadCounts) {
  // The ISSUE acceptance criterion: the campaign's sharded tallies and
  // per-sample seed schedule make every cell a pure function of the grid,
  // independent of evaluation parallelism.
  auto& f = fixture();
  FaultCampaign serial(f.small_grid(1));
  serial.add_subject("d1024", f.pipeline, 16);
  const auto base = serial.run(f.test, f.scene, f.truth);

  FaultCampaign wide(f.small_grid(8));
  wide.add_subject("d1024", f.pipeline, 16);
  const auto cells = wide.run(f.test, f.scene, f.truth);

  ASSERT_EQ(cells.size(), base.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "cell " << i);
    EXPECT_EQ(cells[i].plan_seed, base[i].plan_seed);
    EXPECT_EQ(cells[i].accuracy, base[i].accuracy);
    EXPECT_EQ(cells[i].disturbed_bits, base[i].disturbed_bits);
    EXPECT_EQ(cells[i].num_detections, base[i].num_detections);
    EXPECT_EQ(cells[i].mean_best_iou, base[i].mean_best_iou);
  }
}

TEST(FaultCampaign, SceneOverloadScoresDetectionQuality) {
  auto& f = fixture();
  auto cc = f.small_grid(2);
  cc.kinds = {noise::FaultKind::kTransientFlip};
  cc.rates = {0.0};
  FaultCampaign campaign(cc);
  campaign.add_subject("d1024", f.pipeline, 16);
  const auto cells = campaign.run(f.test, f.scene, f.truth);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_TRUE(cells[0].has_scene);
  EXPECT_GE(cells[0].mean_best_iou, 0.0);
  EXPECT_LE(cells[0].mean_best_iou, 1.0);
}

TEST(FaultCampaignSeed, PureFunctionOfCellIdentityOnly) {
  const auto s = FaultCampaign::cell_seed(1, "a", noise::FaultKind::kWordBurst,
                                          0.1);
  EXPECT_EQ(s, FaultCampaign::cell_seed(1, "a", noise::FaultKind::kWordBurst,
                                        0.1));
  EXPECT_NE(s, FaultCampaign::cell_seed(2, "a", noise::FaultKind::kWordBurst,
                                        0.1));
  EXPECT_NE(s, FaultCampaign::cell_seed(1, "b", noise::FaultKind::kWordBurst,
                                        0.1));
  EXPECT_NE(s, FaultCampaign::cell_seed(1, "a",
                                        noise::FaultKind::kTransientFlip, 0.1));
  EXPECT_NE(s, FaultCampaign::cell_seed(1, "a", noise::FaultKind::kWordBurst,
                                        0.2));
}

}  // namespace
}  // namespace hdface::pipeline
