// The sliding-window scan of paper Fig 6: its map geometry and detection
// quality through the scan engine (pipeline/parallel_detect.hpp), and the
// overlay rendering of its map (pipeline::render_overlay).

#include <stdexcept>

#include <gtest/gtest.h>

#include "dataset/background_generator.hpp"
#include "dataset/face_generator.hpp"
#include "image/transform.hpp"
#include "pipeline/multiscale.hpp"
#include "pipeline/parallel_detect.hpp"

namespace hdface::pipeline {
namespace {

HdFaceConfig detector_config() {
  HdFaceConfig c;
  c.dim = 2048;
  c.mode = HdFaceMode::kHdHog;
  // Cheap mode keeps this test fast; detection quality is what's under test.
  c.hd_hog_mode = hog::HdHogMode::kDecodeShortcut;
  c.hog.cell_size = 4;
  c.hog.bins = 8;
  c.epochs = 5;
  return c;
}

// A map of steps_x × steps_y windows with every window predicted `label`.
DetectionMap uniform_map(std::size_t window, std::size_t stride,
                         std::size_t steps_x, std::size_t steps_y, int label) {
  DetectionMap map;
  map.window = window;
  map.stride = stride;
  map.steps_x = steps_x;
  map.steps_y = steps_y;
  map.predictions.assign(steps_x * steps_y, label);
  map.scores.assign(steps_x * steps_y, 0.5);
  return map;
}

TEST(SlidingWindow, ValidatesGeometry) {
  // The overlay refuses a map whose geometry is degenerate or whose
  // predictions do not match its steps.
  const image::Image scene(32, 32, 0.5f);
  const DetectionMap map = uniform_map(16, 16, 2, 2, 1);
  EXPECT_NO_THROW(render_overlay(scene, map));
  DetectionMap bad = map;
  bad.window = 0;
  EXPECT_THROW(render_overlay(scene, bad), std::invalid_argument);
  bad = map;
  bad.stride = 0;
  EXPECT_THROW(render_overlay(scene, bad), std::invalid_argument);
  bad = map;
  bad.predictions.pop_back();
  EXPECT_THROW(render_overlay(scene, bad), std::invalid_argument);
}

TEST(SlidingWindow, RejectsSceneSmallerThanWindow) {
  // The overlay refuses a map whose windows do not all lie on the scene,
  // rather than write past its coverage buffer: a scene narrower than one
  // window, and one row of windows too many. (A map too large on both axes
  // is Detector.RenderOverlayRejectsMapOffTheScene.)
  EXPECT_THROW(render_overlay(image::Image(8, 32, 0.5f),
                              uniform_map(16, 8, 1, 1, 1)),
               std::invalid_argument);
  EXPECT_THROW(render_overlay(image::Image(32, 32, 0.5f),
                              uniform_map(16, 8, 3, 4, 1)),
               std::invalid_argument);
  // The largest map that fits is accepted.
  EXPECT_NO_THROW(render_overlay(image::Image(32, 32, 0.5f),
                                 uniform_map(16, 8, 3, 3, 1)));
}

TEST(SlidingWindow, MapGeometryMatchesStride) {
  // A non-square scene, so a swapped axis shows.
  HdFacePipeline pipe(detector_config(), 16, 16, 2);
  ParallelDetectConfig cfg;
  cfg.threads = 1;
  const auto map =
      detect_windows_parallel(pipe, image::Image(48, 32, 0.5f), 16, 8, 1, cfg);
  EXPECT_EQ(map.steps_x, 5u);  // (48-16)/8+1
  EXPECT_EQ(map.steps_y, 3u);
  EXPECT_EQ(map.predictions.size(), 15u);
  EXPECT_EQ(map.scores.size(), 15u);
}

TEST(SlidingWindow, FindsPlantedFace) {
  // Train a detector, then plant one face in a clutter scene: windows over
  // the face should score higher (positive-class cosine) than far-away
  // windows.
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.num_samples = 80;
  data_cfg.image_size = 16;
  const auto train = make_face_dataset(data_cfg);
  HdFacePipeline pipe(detector_config(), 16, 16, 2);
  pipe.fit(train);

  image::Image scene(48, 48, 0.5f);
  core::Rng rng(33);
  dataset::render_background(scene, dataset::BackgroundKind::kValueNoise, rng);
  const auto face = dataset::render_face_window(16, 1234);
  image::paste(scene, face, 16, 16);

  const auto map = detect_windows_parallel(pipe, scene, 16, 8, 1);
  // Face window sits at step (2, 2); compare its score against the average
  // of all windows that do not overlap the face at all.
  const double face_score = map.scores[2 * map.steps_x + 2];
  double off_face = 0.0;
  int n_off = 0;
  for (std::size_t sy = 0; sy < map.steps_y; ++sy) {
    for (std::size_t sx = 0; sx < map.steps_x; ++sx) {
      const std::size_t px = sx * map.stride;
      const std::size_t py = sy * map.stride;
      const bool overlaps = px + 16 > 16 && px < 32 && py + 16 > 16 && py < 32;
      if (!overlaps) {
        off_face += map.scores[sy * map.steps_x + sx];
        ++n_off;
      }
    }
  }
  ASSERT_GT(n_off, 0);
  EXPECT_GT(face_score, off_face / n_off - 0.02);
}

TEST(SlidingWindow, OverlayTintsDetections) {
  image::Image scene(32, 32, 0.5f);
  DetectionMap map = uniform_map(16, 16, 2, 2, 0);
  map.predictions[0] = 1;
  const auto overlay = render_overlay(scene, map);
  // Top-left window tinted blue; bottom-right untouched gray.
  EXPECT_GT(overlay.at(4, 4)[2], overlay.at(4, 4)[0]);
  EXPECT_EQ(overlay.at(20, 20)[0], overlay.at(20, 20)[2]);
  // Another positive class tints the other windows instead.
  const auto inverse = render_overlay(scene, map, 0);
  EXPECT_EQ(inverse.at(4, 4)[0], inverse.at(4, 4)[2]);
  EXPECT_GT(inverse.at(20, 20)[2], inverse.at(20, 20)[0]);
}

TEST(SlidingWindow, OverlayTintsOverlappingWindowsOnce) {
  // Two positive windows overlapping at stride < window: pixels in the
  // overlap must carry exactly the same tint as pixels covered by a single
  // window. (The seed tinted per window, so overlaps were darkened twice and
  // dense detection clusters rendered near-black instead of highlighted.)
  image::Image scene(32, 32, 0.5f);
  DetectionMap map = uniform_map(16, 8, 3, 3, 0);
  map.predictions[0] = 1;
  map.predictions[1] = 1;
  const auto overlay = render_overlay(scene, map);
  // (4, 4) is covered only by window 0; (12, 4) by both windows 0 and 1.
  const auto& once = overlay.at(4, 4);
  const auto& twice = overlay.at(12, 4);
  EXPECT_EQ(once[0], twice[0]);
  EXPECT_EQ(once[1], twice[1]);
  EXPECT_EQ(once[2], twice[2]);
}

}  // namespace
}  // namespace hdface::pipeline
