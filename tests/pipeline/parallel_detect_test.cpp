#include "pipeline/parallel_detect.hpp"

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/background_generator.hpp"
#include "dataset/face_generator.hpp"
#include "image/transform.hpp"
#include "pipeline/multiscale.hpp"
#include "util/thread_pool.hpp"

namespace hdface::pipeline {
namespace {

HdFaceConfig engine_config() {
  HdFaceConfig c;
  c.dim = 2048;
  c.mode = HdFaceMode::kHdHog;
  c.hd_hog_mode = hog::HdHogMode::kDecodeShortcut;
  c.hog.cell_size = 4;
  c.hog.bins = 8;
  c.epochs = 5;
  return c;
}

// One trained pipeline + clutter scene with a planted face, shared by the
// bit-exactness tests (training dominates the test's runtime).
struct EngineFixture {
  EngineFixture() : pipeline(engine_config(), 16, 16, 2), scene(48, 48, 0.5f) {
    dataset::FaceDatasetConfig data_cfg;
    data_cfg.num_samples = 60;
    data_cfg.image_size = 16;
    pipeline.fit(make_face_dataset(data_cfg));
    core::Rng rng(33);
    dataset::render_background(scene, dataset::BackgroundKind::kValueNoise, rng);
    image::paste(scene, dataset::render_face_window(16, 1234), 16, 16);
  }

  HdFacePipeline pipeline;
  image::Image scene;
};

EngineFixture& fixture() {
  static EngineFixture f;
  return f;
}

void expect_maps_identical(const DetectionMap& a, const DetectionMap& b) {
  ASSERT_EQ(a.steps_x, b.steps_x);
  ASSERT_EQ(a.steps_y, b.steps_y);
  ASSERT_EQ(a.predictions.size(), b.predictions.size());
  for (std::size_t i = 0; i < a.predictions.size(); ++i) {
    EXPECT_EQ(a.predictions[i], b.predictions[i]) << "window " << i;
    // Bit-identical, not approximately equal: the whole point of the
    // per-window seeding scheme.
    EXPECT_EQ(a.scores[i], b.scores[i]) << "window " << i;
  }
}

TEST(ParallelDetect, ValidatesGeometry) {
  auto& f = fixture();
  EXPECT_THROW(detect_windows_parallel(f.pipeline, f.scene, 0, 8, 1),
               std::invalid_argument);
  EXPECT_THROW(detect_windows_parallel(f.pipeline, f.scene, 16, 0, 1),
               std::invalid_argument);
  EXPECT_THROW(
      detect_windows_parallel(f.pipeline, image::Image(8, 8, 0.5f), 16, 8, 1),
      std::invalid_argument);
}

TEST(ParallelDetect, RejectsPositiveClassOutsideTheClasses) {
  // Every scan reads scores()[positive_class]: each entry refuses a class
  // outside the 2-class classifier before it scans.
  auto& f = fixture();
  ParallelDetectConfig cfg;
  cfg.threads = 1;
  const hog::CellPlane plane = build_scene_cell_plane(f.pipeline, f.scene, 4, cfg);
  MultiScaleConfig ms;
  ms.scales = {1.0, 0.5};
  for (const int positive_class : {2, 5, -1}) {
    SCOPED_TRACE(testing::Message() << "positive_class " << positive_class);
    EXPECT_THROW(detect_windows_parallel(f.pipeline, f.scene, 16, 8,
                                         positive_class, cfg),
                 std::invalid_argument);
    EXPECT_THROW(detect_windows_on_plane(f.pipeline, f.scene, plane, 16, 8,
                                         positive_class, cfg),
                 std::invalid_argument);
    EXPECT_THROW(
        detect_multiscale(f.pipeline, f.scene, 16, ms, positive_class, cfg),
        std::invalid_argument);
  }
}

TEST(ParallelDetect, MapGeometryMatchesStride) {
  auto& f = fixture();
  ParallelDetectConfig cfg;
  cfg.threads = 1;
  const auto map = detect_windows_parallel(f.pipeline, f.scene, 16, 8, 1, cfg);
  EXPECT_EQ(map.steps_x, 5u);  // (48-16)/8+1
  EXPECT_EQ(map.steps_y, 5u);
  EXPECT_EQ(map.predictions.size(), 25u);
  EXPECT_EQ(map.scores.size(), 25u);
}

TEST(ParallelDetect, BitIdenticalAcrossThreadCounts) {
  auto& f = fixture();
  ParallelDetectConfig serial;
  serial.threads = 1;
  const auto base = detect_windows_parallel(f.pipeline, f.scene, 16, 8, 1, serial);
  for (std::size_t threads : {2u, 8u}) {
    ParallelDetectConfig cfg;
    cfg.threads = threads;
    cfg.min_chunk = 1;  // force real chunking even on a small grid
    const auto map = detect_windows_parallel(f.pipeline, f.scene, 16, 8, 1, cfg);
    SCOPED_TRACE(testing::Message() << threads << " threads");
    expect_maps_identical(base, map);
  }
}

TEST(ParallelDetect, RepeatedCallsAreIdentical) {
  // Per-window seeding makes the engine a pure function of its inputs: two
  // scans of the same scene must match exactly.
  auto& f = fixture();
  ParallelDetectConfig cfg;
  cfg.threads = 2;
  const auto a = detect_windows_parallel(f.pipeline, f.scene, 16, 8, 1, cfg);
  const auto b = detect_windows_parallel(f.pipeline, f.scene, 16, 8, 1, cfg);
  expect_maps_identical(a, b);
}

TEST(ParallelDetect, FeatureCounterTotalsMatchAcrossThreadCounts) {
  auto& f = fixture();
  std::vector<core::OpCounter> counters(3);
  const std::size_t thread_counts[] = {1, 2, 8};
  for (std::size_t i = 0; i < 3; ++i) {
    ParallelDetectConfig cfg;
    cfg.threads = thread_counts[i];
    cfg.min_chunk = 1;
    cfg.feature_counter = &counters[i];
    detect_windows_parallel(f.pipeline, f.scene, 16, 8, 1, cfg);
  }
  EXPECT_GT(counters[0].total(), 0u);
  for (std::size_t i = 1; i < 3; ++i) {
    for (std::size_t k = 0; k < core::kOpKindCount; ++k) {
      EXPECT_EQ(counters[0].counts[k], counters[i].counts[k])
          << op_kind_name(static_cast<core::OpKind>(k)) << " at "
          << thread_counts[i] << " threads";
    }
  }
}

TEST(DetectionMap, AccessorsAreBoundsChecked) {
  DetectionMap map;
  map.window = 16;
  map.stride = 8;
  map.steps_x = 3;
  map.steps_y = 2;
  map.predictions = {0, 1, 0, 0, 0, 1};
  map.scores = {0.1, 0.9, 0.2, 0.3, 0.4, 0.8};
  EXPECT_EQ(map.prediction_at(1, 0), 1);
  EXPECT_DOUBLE_EQ(map.score_at(2, 1), 0.8);
  EXPECT_THROW(map.score_at(3, 0), std::out_of_range);
  EXPECT_THROW(map.score_at(0, 2), std::out_of_range);
  EXPECT_THROW(map.prediction_at(3, 2), std::out_of_range);
}

TEST(MapDetections, CollapsesNeighborsAndThresholds) {
  DetectionMap map;
  map.window = 16;
  map.stride = 8;
  map.steps_x = 4;
  map.steps_y = 1;
  // Two overlapping positives at steps 0 and 1 (16px boxes 8px apart, IoU
  // 1/3 > 0.3 threshold) plus one isolated positive at step 3.
  map.predictions = {1, 1, 0, 1};
  map.scores = {0.6, 0.9, 0.1, 0.5};
  const auto boxes = map_detections(map, 1, 0.0, 0.3);
  ASSERT_EQ(boxes.size(), 2u);
  EXPECT_DOUBLE_EQ(boxes[0].score, 0.9);  // winner of the overlapping pair
  EXPECT_EQ(boxes[0].x, 8u);
  EXPECT_DOUBLE_EQ(boxes[1].score, 0.5);
  EXPECT_EQ(boxes[1].x, 24u);

  // Score threshold drops the weak isolated box.
  const auto strict = map_detections(map, 1, 0.55, 0.3);
  ASSERT_EQ(strict.size(), 1u);
  EXPECT_DOUBLE_EQ(strict[0].score, 0.9);

  // IoU threshold above the pair's overlap keeps both.
  const auto loose = map_detections(map, 1, 0.0, 0.5);
  EXPECT_EQ(loose.size(), 3u);
}

TEST(MultiScale, ParallelDetectIsThreadCountInvariant) {
  auto& f = fixture();
  MultiScaleConfig ms;
  ms.scales = {1.0, 0.75};
  ms.stride = 8;
  ParallelDetectConfig one;
  one.threads = 1;
  ParallelDetectConfig many;
  many.threads = 4;
  many.min_chunk = 1;
  const auto a = detect_multiscale(f.pipeline, f.scene, 16, ms, 1, one);
  const auto b = detect_multiscale(f.pipeline, f.scene, 16, ms, 1, many);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].y, b[i].y);
    EXPECT_EQ(a[i].size, b[i].size);
    EXPECT_EQ(a[i].score, b[i].score);
  }
}

TEST(BuildPyramid, DropsLevelsSmallerThanWindow) {
  const image::Image scene(64, 48, 0.5f);
  const auto pyr = build_pyramid(scene, 16, {1.0, 0.5, 0.1});
  // 0.1 scale gives a 6x4 level — cannot fit a 16px window, dropped.
  ASSERT_EQ(pyr.scales.size(), 2u);
  EXPECT_DOUBLE_EQ(pyr.scales[0], 1.0);
  EXPECT_DOUBLE_EQ(pyr.scales[1], 0.5);
  ASSERT_EQ(pyr.levels.size(), 2u);
  EXPECT_EQ(pyr.levels[0].width(), 64u);
  EXPECT_EQ(pyr.levels[1].width(), 32u);
}

}  // namespace
}  // namespace hdface::pipeline
