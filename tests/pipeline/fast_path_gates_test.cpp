// Count gates on the detector's fast paths, on the repository's benchmark
// model (D 4096 faithful HD-HOG, window 32, stride 8, binary-prototype
// inference, cascade stages at 1/16, 1/8, 1/4 and 1/2 of the words).
//
// Each gate is a property the fast path exists for, read from exact
// counters: core::OpCounter charges, CascadeStats and EncodeCacheStats are
// pure functions of (model, scene, scan config), equal at every thread count,
// so a gate here cannot pass or fail with host load the way a wall-clock
// ratio can. Identity between the paths is proved elsewhere (cascade, lazy
// plane, encode-cache and parallel-detect suites); this suite proves that the
// cheaper path is actually cheaper:
//
//   * cascade: on one mixed-background calibration scene, stage 0 passes
//     fewer than half the windows, no golden positive is rejected, and on a
//     prebuilt plane the exact scan charges at least 3x the ops of the
//     cascaded scan;
//   * cell plane: the per-window scan of the same scene charges more ops than
//     the cell-plane scan (plane build included);
//   * lazy plane: on a flat scene with one planted face, a prescreen-carrying
//     cascade rejects more than half the windows and leaves more than 40% of
//     the plane's cells unencoded, while the exact and the cascaded scans
//     both find the face.

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "api/detector.hpp"
#include "dataset/face_generator.hpp"
#include "image/transform.hpp"
#include "pipeline/cascade.hpp"
#include "pipeline/parallel_detect.hpp"

namespace hdface::pipeline {
namespace {

constexpr std::size_t kWindow = 32;
constexpr std::size_t kStride = 8;
constexpr std::size_t kDim = 4096;
constexpr std::uint64_t kSceneSeed = 0xCAFE;

// The benchmark's model, trained once per test process.
api::Detector& model() {
  static api::Detector det = [] {
    HdFaceConfig cfg;
    cfg.dim = kDim;
    cfg.mode = HdFaceMode::kHdHog;
    cfg.hd_hog_mode = hog::HdHogMode::kFaithful;
    cfg.hog.cell_size = 4;
    cfg.hog.bins = 8;
    cfg.epochs = 30;
    api::Detector d =
        api::DetectorBuilder().window(kWindow).dim(kDim).config(cfg).build();
    auto train_cfg = dataset::face2_config(400, 42);
    train_cfg.image_size = kWindow;
    d.fit(dataset::make_face_dataset(train_cfg));
    d.pipeline()->mutable_classifier().set_binary_override(
        d.pipeline()->classifier().binary_prototypes());
    return d;
  }();
  return det;
}

CascadeTable calibrate(const std::vector<image::Image>& scenes,
                       bool prescreen) {
  CascadeCalibrationConfig cc;
  cc.stage_fractions = {0.0625, 0.125, 0.25, 0.5};
  cc.slack = 0.001;
  cc.window = kWindow;
  cc.stride = kStride;
  cc.prescreen = prescreen;
  cc.prescreen_fraction = 0.25;
  return calibrate_cascade(*model().pipeline(), scenes, cc);
}

ParallelDetectConfig cell_plane_scan() {
  ParallelDetectConfig cfg;
  cfg.encode_mode = EncodeMode::kCellPlane;
  return cfg;
}

std::uint64_t positives(const DetectionMap& map) {
  std::uint64_t n = 0;
  for (const int p : map.predictions) n += p == 1 ? 1 : 0;
  return n;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return static_cast<double>(num) / static_cast<double>(den);
}

TEST(FastPathGates, CascadeAndCellPlaneChargeFewerOpsOnACalibrationScene) {
  HdFacePipeline& pl = *model().pipeline();
  const std::vector<image::Image> scenes = cascade_calibration_scenes(
      1, kWindow, 192, 144, 1, kSceneSeed);
  const image::Image& scene = scenes[0];
  const CascadeTable table = calibrate(scenes, /*prescreen=*/false);
  const Cascade cascade(pl.classifier(), table);

  // Cell-plane vs per-window encode, each scan charging its own encode.
  core::OpCounter per_window_ops;
  ParallelDetectConfig per_window;
  per_window.feature_counter = &per_window_ops;
  (void)detect_windows_parallel(pl, scene, kWindow, kStride, 1, per_window);
  core::OpCounter cell_plane_ops;
  ParallelDetectConfig cell_plane = cell_plane_scan();
  cell_plane.feature_counter = &cell_plane_ops;
  const DetectionMap golden =
      detect_windows_parallel(pl, scene, kWindow, kStride, 1, cell_plane);
  EXPECT_GT(per_window_ops.total(), cell_plane_ops.total())
      << "per-window " << per_window_ops.total() << " ops, cell plane "
      << cell_plane_ops.total();

  // Exact vs cascaded scan stage on one prebuilt plane: the plane build is
  // a cost both share, so only the scan is charged.
  const hog::CellPlane plane = build_scene_cell_plane(
      pl, scene, std::gcd(kStride, pl.config().hog.cell_size),
      cell_plane_scan());
  core::OpCounter exact_ops;
  ParallelDetectConfig exact = cell_plane_scan();
  exact.feature_counter = &exact_ops;
  (void)detect_windows_on_plane(pl, scene, plane, kWindow, kStride, 1, exact);
  core::OpCounter cascade_ops;
  CascadeStats stats;
  ParallelDetectConfig cascaded = cell_plane_scan();
  cascaded.cascade = &cascade;
  cascaded.cascade_stats = &stats;
  cascaded.feature_counter = &cascade_ops;
  const DetectionMap survivors =
      detect_windows_on_plane(pl, scene, plane, kWindow, kStride, 1, cascaded);
  EXPECT_GE(exact_ops.total(), 3 * cascade_ops.total())
      << "exact scan " << exact_ops.total() << " ops, cascaded "
      << cascade_ops.total();

  ASSERT_FALSE(stats.stages.empty());
  const CascadeStageCounters& stage0 = stats.stages[0];
  ASSERT_GT(stage0.entered, 0u);
  EXPECT_LT(ratio(stage0.entered - stage0.rejected, stage0.entered), 0.5)
      << "stage 0 passed " << stage0.entered - stage0.rejected << " of "
      << stage0.entered;

  std::uint64_t false_rejects = 0;
  for (std::size_t i = 0; i < golden.predictions.size(); ++i) {
    false_rejects +=
        golden.predictions[i] == 1 && survivors.predictions[i] != 1 ? 1 : 0;
  }
  EXPECT_GE(positives(golden), 1u);
  EXPECT_EQ(false_rejects, 0u);
}

TEST(FastPathGates, PrescreenLeavesMostOfALazyPlaneUnencoded) {
  HdFacePipeline& pl = *model().pipeline();
  const CascadeTable table = calibrate(
      cascade_calibration_scenes(2, kWindow, 256, 192, 1, kSceneSeed),
      /*prescreen=*/true);
  const Cascade cascade(pl.classifier(), table);

  // A flat scene with one face from the training distribution (the first
  // positive: make_face_dataset puts negatives at even indices).
  constexpr std::size_t kFaceX = 128;
  constexpr std::size_t kFaceY = 96;
  image::Image scene(256, 192, 0.5f);
  auto face_cfg = dataset::face2_config(2, 0x5EED);
  face_cfg.image_size = kWindow;
  const dataset::Dataset faces = dataset::make_face_dataset(face_cfg);
  ASSERT_EQ(faces.labels[1], 1);
  image::paste(scene, faces.images[1], kFaceX, kFaceY);

  const DetectionMap exact = detect_windows_parallel(
      pl, scene, kWindow, kStride, 1, cell_plane_scan());
  EncodeCacheStats cache;
  CascadeStats stats;
  ParallelDetectConfig lazy = cell_plane_scan();
  lazy.plane_mode = PlaneMode::kLazy;
  lazy.cascade = &cascade;
  lazy.cache_stats = &cache;
  lazy.cascade_stats = &stats;
  const DetectionMap cascaded =
      detect_windows_parallel(pl, scene, kWindow, kStride, 1, lazy);

  const std::size_t face_window =
      (kFaceY / kStride) * exact.steps_x + kFaceX / kStride;
  EXPECT_EQ(positives(exact), 1u);
  EXPECT_EQ(exact.predictions[face_window], 1);
  EXPECT_EQ(positives(cascaded), 1u);
  EXPECT_EQ(cascaded.predictions[face_window], 1);

  EXPECT_LT(ratio(cache.cells_computed, cache.cells_total), 0.6)
      << cache.cells_computed << " of " << cache.cells_total
      << " cells materialized";
  EXPECT_GT(2 * stats.prescreen_rejected, stats.prescreen_entered)
      << "prescreen rejected " << stats.prescreen_rejected << " of "
      << stats.prescreen_entered;
}

}  // namespace
}  // namespace hdface::pipeline
