#include "api/detector.hpp"

#include <stdexcept>

#include <gtest/gtest.h>

#include "core/kernels/kernels.hpp"
#include "dataset/background_generator.hpp"
#include "dataset/emotion_generator.hpp"
#include "dataset/face_generator.hpp"
#include "hog/hd_hog.hpp"
#include "image/pnm.hpp"
#include "image/transform.hpp"
#include "pipeline/cascade.hpp"
#include "pipeline/hdface_pipeline.hpp"
#include "pipeline/multiscale.hpp"

namespace hdface::api {
namespace {

Detector small_face_detector() {
  return DetectorBuilder()
      .window(16)
      .dim(2048)
      .hd_hog_mode(hog::HdHogMode::kDecodeShortcut)
      .epochs(5)
      .build();
}

TEST(DetectorBuilder, RejectsUnusableGeometry) {
  EXPECT_THROW(DetectorBuilder().window(0).build(), std::invalid_argument);
  EXPECT_THROW(DetectorBuilder().classes(1).build(), std::invalid_argument);
  // 18 is not tiled by the default cell size of 4.
  EXPECT_THROW(DetectorBuilder().window(18).build(), std::invalid_argument);
}

TEST(DetectorBuilder, DefaultsProduceWorkingDetector) {
  Detector det = DetectorBuilder().build();
  EXPECT_EQ(det.window(), 32u);
  ASSERT_NE(det.pipeline(), nullptr);
  EXPECT_EQ(det.pipeline()->classifier().config().classes, 2u);
}

TEST(Detector, FitEvaluatePredictFace) {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 60;
  const auto train = dataset::make_face_dataset(data_cfg);
  data_cfg.num_samples = 24;
  data_cfg.seed = 999;
  const auto test = dataset::make_face_dataset(data_cfg);

  Detector det = small_face_detector();
  det.fit(train);
  const double acc = det.evaluate(test);
  EXPECT_GT(acc, 0.6);  // synthetic faces vs clutter separates easily
  const int pred = det.predict(test.images.front());
  EXPECT_TRUE(pred == 0 || pred == 1);
}

TEST(Detector, DetectMapAndBoxesOnPlantedFace) {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 60;
  Detector det = small_face_detector();
  det.fit(dataset::make_face_dataset(data_cfg));

  image::Image scene(48, 48, 0.5f);
  core::Rng rng(33);
  dataset::render_background(scene, dataset::BackgroundKind::kValueNoise, rng);
  image::paste(scene, dataset::render_face_window(16, 1234), 16, 16);

  DetectOptions opts;
  opts.threads = 1;
  opts.stride = 8;
  const auto map = det.detect_map(scene, opts);
  EXPECT_EQ(map.steps_x, 5u);
  EXPECT_EQ(map.steps_y, 5u);

  // NMS off (default): one box per positive window.
  const auto raw = det.detect(scene, opts);
  std::size_t positives = 0;
  for (const auto p : map.predictions) positives += (p == 1);
  EXPECT_EQ(raw.size(), positives);

  // NMS on: never more boxes than raw positives.
  opts.nms = true;
  const auto merged = det.detect(scene, opts);
  EXPECT_LE(merged.size(), raw.size());
  // Boxes sorted by descending score.
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_GE(merged[i - 1].score, merged[i].score);
  }

  const auto overlay = det.render_overlay(scene, map);
  EXPECT_EQ(overlay.width, scene.width());
  const auto boxes_img = det.render(scene, merged);
  EXPECT_EQ(boxes_img.height, scene.height());
}

TEST(Detector, NmsOffByDefaultMatchesRawMapDetections) {
  // The default DetectOptions must reproduce the seed's raw Fig 6 view:
  // detect() without nms is exactly map_detections over the same map with a
  // never-suppressing IoU threshold — same boxes, same scores, same order.
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 60;
  Detector det = small_face_detector();
  det.fit(dataset::make_face_dataset(data_cfg));

  image::Image scene(48, 48, 0.5f);
  core::Rng rng(44);
  dataset::render_background(scene, dataset::BackgroundKind::kMixed, rng);
  image::paste(scene, dataset::render_face_window(16, 555), 8, 24);

  DetectOptions opts;
  opts.threads = 1;
  EXPECT_FALSE(opts.nms);
  const auto map = det.detect_map(scene, opts);
  const auto expected = pipeline::map_detections(
      map, opts.positive_class, opts.score_threshold, /*iou_threshold=*/2.0);
  const auto raw = det.detect(scene, opts);
  ASSERT_EQ(raw.size(), expected.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(raw[i].x, expected[i].x);
    EXPECT_EQ(raw[i].y, expected[i].y);
    EXPECT_EQ(raw[i].size, expected[i].size);
    EXPECT_EQ(raw[i].score, expected[i].score);
  }
}

TEST(Detector, DetectIsThreadCountInvariant) {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 60;
  Detector det = small_face_detector();
  det.fit(dataset::make_face_dataset(data_cfg));

  image::Image scene(48, 32, 0.5f);
  core::Rng rng(7);
  dataset::render_background(scene, dataset::BackgroundKind::kMixed, rng);

  DetectOptions one;
  one.threads = 1;
  DetectOptions four;
  four.threads = 4;
  const auto a = det.detect_map(scene, one);
  const auto b = det.detect_map(scene, four);
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    EXPECT_EQ(a.scores[i], b.scores[i]) << "window " << i;
    EXPECT_EQ(a.predictions[i], b.predictions[i]) << "window " << i;
  }
}

// Golden determinism across kernel backends: a full detect forced to the
// scalar reference must be bit-identical to the automatic (best SIMD)
// backend on every scan path — per-window and cell-plane encodes, a
// two-scale pyramid, and a lazy plane under a calibrated prescreen cascade —
// both as the window map and as the merged boxes. The detector runs the
// faithful chain (which arms the fused cell kernel) with binary-prototype
// inference (which scores through hamming_many). This is the end-to-end
// counterpart of the per-kernel property suite in
// tests/core/kernels_test.cpp and what licenses treating the backend as a
// pure performance knob.
TEST(Detector, DetectMapBitIdenticalAcrossKernelBackends) {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 60;
  Detector det = DetectorBuilder()
                     .window(16)
                     .dim(2048)
                     .hd_hog_mode(hog::HdHogMode::kFaithful)
                     .epochs(5)
                     .build();
  det.fit(dataset::make_face_dataset(data_cfg));
  pipeline::HdFacePipeline& pl = *det.pipeline();
  pl.mutable_classifier().set_binary_override(
      pl.classifier().binary_prototypes());

  pipeline::CascadeCalibrationConfig cc;
  cc.stage_fractions = {0.25, 0.5};
  cc.slack = 0.01;
  cc.window = 16;
  cc.stride = 8;
  cc.prescreen = true;
  cc.prescreen_fraction = 0.25;
  const pipeline::CascadeTable table = pipeline::calibrate_cascade(
      pl, pipeline::cascade_calibration_scenes(2, 16, 64, 48, 1, 0x5EED), cc);

  image::Image scene(48, 32, 0.5f);
  core::Rng rng(19);
  dataset::render_background(scene, dataset::BackgroundKind::kMixed, rng);
  image::paste(scene, dataset::render_face_window(16, 555), 24, 8);

  DetectOptions per_window;
  per_window.threads = 1;
  per_window.stride = 8;
  DetectOptions cell_plane = per_window;
  cell_plane.encode_mode = pipeline::EncodeMode::kCellPlane;
  DetectOptions pyramid = cell_plane;
  pyramid.scales = {1.0, 0.5};
  DetectOptions lazy_prescreen = cell_plane;
  lazy_prescreen.plane_mode = pipeline::PlaneMode::kLazy;
  lazy_prescreen.cascade =
      pipeline::CascadeConfig{pipeline::CascadeMode::kCalibrated, table};

  for (const DetectOptions& opts :
       {per_window, cell_plane, pyramid, lazy_prescreen}) {
    pipeline::DetectionMap a;
    std::vector<pipeline::Detection> boxes_a;
    {
      const core::kernels::ScopedBackend scalar(
          core::kernels::Backend::kScalar);
      a = det.detect_map(scene, opts);
      boxes_a = det.detect(scene, opts);
    }
    const auto b = det.detect_map(scene, opts);
    ASSERT_EQ(a.scores.size(), b.scores.size());
    for (std::size_t i = 0; i < a.scores.size(); ++i) {
      EXPECT_EQ(a.scores[i], b.scores[i]) << "window " << i;
      EXPECT_EQ(a.predictions[i], b.predictions[i]) << "window " << i;
    }
    const auto boxes_b = det.detect(scene, opts);
    ASSERT_EQ(boxes_a.size(), boxes_b.size());
    for (std::size_t i = 0; i < boxes_a.size(); ++i) {
      EXPECT_EQ(boxes_a[i].x, boxes_b[i].x) << "box " << i;
      EXPECT_EQ(boxes_a[i].y, boxes_b[i].y) << "box " << i;
      EXPECT_EQ(boxes_a[i].size, boxes_b[i].size) << "box " << i;
      EXPECT_EQ(boxes_a[i].score, boxes_b[i].score) << "box " << i;
    }
  }
}

TEST(Detector, MultiScaleOptionsUsePyramid) {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 60;
  Detector det = small_face_detector();
  det.fit(dataset::make_face_dataset(data_cfg));

  image::Image scene(64, 48, 0.5f);
  core::Rng rng(11);
  dataset::render_background(scene, dataset::BackgroundKind::kValueNoise, rng);
  image::paste(scene, dataset::render_face_window(32, 77), 24, 8);

  DetectOptions opts;
  opts.threads = 1;
  opts.stride = 8;
  opts.scales = {1.0, 0.5};
  opts.nms = true;
  const auto boxes = det.detect(scene, opts);
  // The pyramid path may return any box count, but every box must fit the
  // scene and carry one of the two pyramid sizes.
  for (const auto& b : boxes) {
    EXPECT_TRUE(b.size == 16 || b.size == 32) << b.size;
    EXPECT_LE(b.x + b.size, scene.width());
    EXPECT_LE(b.y + b.size, scene.height());
  }
}

TEST(Detector, MultiScaleHonorsPositiveClass) {
  // A multi-scale scan boxes the windows predicted as options.positive_class
  // and scores them with that class's cosine, so its native-scale boxes are
  // windows of the single-scale map of the same class. (Multi-scale scans
  // used to keep class 1 whatever the option said.)
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 60;
  Detector det = small_face_detector();
  det.fit(dataset::make_face_dataset(data_cfg));
  const image::Image scene(48, 48, 0.5f);

  DetectOptions single;
  single.threads = 1;
  single.positive_class = 0;
  const auto map = det.detect_map(scene, single);
  DetectOptions multi = single;
  multi.scales = {1.0, 0.75};
  const auto boxes = det.detect(scene, multi);
  std::size_t native = 0;
  for (const auto& b : boxes) {
    if (b.size != 16) continue;
    ++native;
    const std::size_t idx = (b.y / 8) * map.steps_x + b.x / 8;
    SCOPED_TRACE(testing::Message() << "box at (" << b.x << "," << b.y << ")");
    EXPECT_EQ(map.predictions[idx], 0);
    EXPECT_EQ(map.scores[idx], b.score);
  }
  EXPECT_GT(native, 0u);
}

TEST(Detector, RenderOverlayRejectsMapOffTheScene) {
  // A 3×3-step map (window 16, stride 8) spans 32 px: on a 16×16 scene it
  // is refused, not rendered past the overlay's buffer.
  const Detector det = small_face_detector();
  pipeline::DetectionMap map;
  map.window = 16;
  map.stride = 8;
  map.steps_x = 3;
  map.steps_y = 3;
  map.predictions.assign(9, 1);
  map.scores.assign(9, 0.5);
  EXPECT_THROW((void)det.render_overlay(image::Image(16, 16, 0.5f), map),
               std::invalid_argument);
}

TEST(Detector, EmotionWorkloadSevenClasses) {
  dataset::EmotionDatasetConfig data_cfg;
  data_cfg.num_samples = 70;
  const auto train = dataset::make_emotion_dataset(data_cfg);

  Detector det = DetectorBuilder()
                     .window(48)
                     .classes(dataset::kNumEmotions)
                     .dim(2048)
                     .hd_hog_mode(hog::HdHogMode::kDecodeShortcut)
                     .epochs(3)
                     .build();
  det.fit(train);
  const int pred = det.predict(train.images.front());
  EXPECT_GE(pred, 0);
  EXPECT_LT(pred, static_cast<int>(dataset::kNumEmotions));
}

TEST(Detector, RequestPathMatchesLegacyDetect) {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 60;
  Detector det = small_face_detector();
  det.fit(dataset::make_face_dataset(data_cfg));

  image::Image scene(48, 48, 0.5f);
  core::Rng rng(21);
  dataset::render_background(scene, dataset::BackgroundKind::kMixed, rng);
  image::paste(scene, dataset::render_face_window(16, 321), 16, 8);

  Request request;
  request.id = 7;
  request.tenant = 3;
  request.scene = scene;
  request.options.threads = 1;
  request.options.stride = 8;

  auto outcome = det.detect(request);
  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  EXPECT_EQ(outcome.value().id, 7u);
  EXPECT_EQ(outcome.value().tenant, 3u);
  // The sync wrapper never reads clocks; timing stays zero.
  EXPECT_EQ(outcome.value().timing.total, 0u);

  const auto legacy = det.detect(scene, request.options);
  const auto& served = outcome.value().detections;
  ASSERT_EQ(served.size(), legacy.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].x, legacy[i].x);
    EXPECT_EQ(served[i].y, legacy[i].y);
    EXPECT_EQ(served[i].size, legacy[i].size);
    EXPECT_EQ(served[i].score, legacy[i].score);
  }
}

TEST(Detector, RequestPathReturnsTypedErrorsInsteadOfThrowing) {
  Detector det = small_face_detector();

  Request bad_options;
  bad_options.scene = image::Image(32, 32, 0.5f);
  bad_options.options.stride = 0;
  auto outcome = det.detect(bad_options);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kInvalidOptions);

  Request tiny_scene;
  tiny_scene.scene = image::Image(8, 8, 0.5f);  // smaller than the window
  outcome = det.detect(tiny_scene);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kInvalidOptions);

  // The legacy wrappers keep throwing — now the typed exception form.
  DetectOptions opts;
  opts.scales = {};
  EXPECT_THROW((void)det.detect_map(tiny_scene.scene, opts),
               InvalidOptionsError);
  EXPECT_THROW((void)det.detect(tiny_scene.scene, opts), std::invalid_argument);
}

TEST(Detector, RejectsPositiveClassOutsideTheClasses) {
  // positive_class indexes the 2-class score vector. Outside [0, 2) every
  // entry point refuses it before scanning, instead of reading past the
  // scores: typed kInvalidOptions on the Request path, InvalidOptionsError
  // from the wrappers, single- and multi-scale.
  Detector det = small_face_detector();
  const image::Image scene(32, 32, 0.5f);
  for (const int positive_class : {5, -1}) {
    SCOPED_TRACE(testing::Message() << "positive_class " << positive_class);
    Request request;
    request.scene = scene;
    request.options.threads = 1;
    request.options.positive_class = positive_class;
    ASSERT_TRUE(det.check(request).has_value());
    EXPECT_EQ(det.check(request)->code, ErrorCode::kInvalidOptions);
    const auto outcome = det.detect(request);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, ErrorCode::kInvalidOptions);

    EXPECT_THROW((void)det.detect_map(scene, request.options),
                 InvalidOptionsError);
    DetectOptions multi = request.options;
    multi.scales = {1.0, 0.5};
    EXPECT_THROW((void)det.detect(scene, multi), InvalidOptionsError);
  }
  Request in_range;
  in_range.scene = scene;
  in_range.options.positive_class = 0;
  EXPECT_FALSE(det.check(in_range).has_value());
}

TEST(Detector, CellPlaneFaultPlanNeedsNoSink) {
  // A call is not invalid for lack of an observer: a cell-plane fault-plan
  // scan validates without an encode-cache sink and returns exactly the map
  // the same call returns with one attached.
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 40;
  Detector det = small_face_detector();
  det.fit(dataset::make_face_dataset(data_cfg));

  image::Image scene(48, 32, 0.5f);
  image::paste(scene, dataset::render_face_window(16, 77), 16, 8);
  DetectOptions opts;
  opts.threads = 2;
  opts.encode_mode = pipeline::EncodeMode::kCellPlane;
  noise::FaultPlan plan;
  plan.model = noise::FaultModel{noise::FaultKind::kTransientFlip, 0.05};
  opts.fault_plan = plan;
  ASSERT_EQ(validate(opts), std::nullopt);
  const pipeline::DetectionMap bare = det.detect_map(scene, opts);

  pipeline::EncodeCacheStats cache;
  opts.telemetry = Telemetry{nullptr, &cache};
  ASSERT_EQ(validate(opts), std::nullopt);
  const pipeline::DetectionMap observed = det.detect_map(scene, opts);
  EXPECT_GT(cache.windows_assembled, 0u);
  ASSERT_EQ(bare.predictions.size(), observed.predictions.size());
  for (std::size_t i = 0; i < bare.predictions.size(); ++i) {
    EXPECT_EQ(bare.predictions[i], observed.predictions[i]) << "window " << i;
    EXPECT_EQ(bare.scores[i], observed.scores[i]) << "window " << i;
  }
}

TEST(Detector, TelemetryEncodeCacheSinkSeesCellPlaneTraffic) {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 40;
  Detector det = small_face_detector();
  det.fit(dataset::make_face_dataset(data_cfg));

  pipeline::EncodeCacheStats cache;
  DetectOptions opts;
  opts.threads = 1;
  opts.encode_mode = pipeline::EncodeMode::kCellPlane;
  opts.telemetry = Telemetry{nullptr, &cache};
  det.detect_map(image::Image(32, 32, 0.5f), opts);
  EXPECT_GT(cache.cells_computed, 0u);
  EXPECT_GT(cache.windows_assembled, 0u);
}

TEST(Detector, FeatureCounterAccumulatesThroughOptions) {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 40;
  Detector det = small_face_detector();
  det.fit(dataset::make_face_dataset(data_cfg));

  core::OpCounter ops;
  DetectOptions opts;
  opts.threads = 2;
  opts.telemetry = Telemetry{&ops, nullptr};
  det.detect_map(image::Image(32, 32, 0.5f), opts);
  EXPECT_GT(ops.total(), 0u);
}

}  // namespace
}  // namespace hdface::api
