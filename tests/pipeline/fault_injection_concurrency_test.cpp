// A stored-memory fault plan runs on a private faulted copy of the model,
// so one Detector may serve faulted and clean detects at once with no lock:
// the clean maps must equal the serial clean reference bit for bit, and
// under the tsan preset a fault written into storage a clean scan reads
// would show as a data race.

#include <cstddef>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/detector.hpp"
#include "core/rng.hpp"
#include "dataset/background_generator.hpp"
#include "dataset/face_generator.hpp"
#include "hog/hd_hog.hpp"
#include "image/transform.hpp"
#include "pipeline/hdface_pipeline.hpp"

namespace hdface::pipeline {
namespace {

void expect_maps_identical(const DetectionMap& a, const DetectionMap& b) {
  ASSERT_EQ(a.predictions.size(), b.predictions.size());
  for (std::size_t i = 0; i < a.predictions.size(); ++i) {
    EXPECT_EQ(a.predictions[i], b.predictions[i]) << "window " << i;
    EXPECT_EQ(a.scores[i], b.scores[i]) << "window " << i;
  }
}

TEST(FaultedCopyConcurrency, StoredMemoryFaultsRaceCleanDetects) {
  api::Detector det = api::DetectorBuilder()
                          .window(16)
                          .dim(1024)
                          .hd_hog_mode(hog::HdHogMode::kDecodeShortcut)
                          .epochs(2)
                          .build();
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 40;
  det.fit(dataset::make_face_dataset(data_cfg));
  det.pipeline()->prepare_concurrent();

  image::Image scene(48, 48, 0.5f);
  core::Rng rng(21);
  dataset::render_background(scene, dataset::BackgroundKind::kValueNoise, rng);
  image::paste(scene, dataset::render_face_window(16, 4242), 16, 16);

  api::DetectOptions clean;
  clean.threads = 1;
  clean.stride = 8;
  api::DetectOptions faulty = clean;
  faulty.fault_plan = noise::FaultPlan{{noise::FaultKind::kStuckAtOne, 0.15},
                                       0xC0C0};
  const DetectionMap clean_reference = det.detect_map(scene, clean);
  const DetectionMap faulted_reference = det.detect_map(scene, faulty);
  bool any_diff = false;
  for (std::size_t i = 0; i < clean_reference.scores.size(); ++i) {
    any_diff |= faulted_reference.scores[i] != clean_reference.scores[i];
  }
  ASSERT_TRUE(any_diff) << "the plan must change the scan it faults";

  constexpr std::size_t kRounds = 3;
  std::vector<DetectionMap> faulted(kRounds);
  std::vector<DetectionMap> cleaned(kRounds);
  std::thread faulter([&det, &scene, &faulty, &faulted] {
    for (auto& map : faulted) map = det.detect_map(scene, faulty);
  });
  std::thread scanner([&det, &scene, &clean, &cleaned] {
    for (auto& map : cleaned) map = det.detect_map(scene, clean);
  });
  faulter.join();
  scanner.join();

  for (std::size_t r = 0; r < kRounds; ++r) {
    SCOPED_TRACE(r);
    expect_maps_identical(clean_reference, cleaned[r]);
    expect_maps_identical(faulted_reference, faulted[r]);
  }
  expect_maps_identical(clean_reference, det.detect_map(scene, clean));
}

}  // namespace
}  // namespace hdface::pipeline
