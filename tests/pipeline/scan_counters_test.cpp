// Exact-counter pins for every scan path of the detection engine.
//
// One fixed scene is scanned by each {per-window, eager plane, prebuilt
// plane, lazy plane} × {exact, staged cascade, cascade + prescreen} path
// (per-window has no cascade) at 1 and 4 threads. Each run's DetectionMap
// hash and its OpCounter, CascadeStats and EncodeCacheStats totals must equal
// the pinned summary string. The identity suites elsewhere prove that paths
// agree with each other; this suite proves that none of their totals moves,
// so a refactor of the scan loop cannot shift a counter unnoticed. A change
// that is meant to move a counter must update the pin (the failure message
// prints the actual summary).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/face_generator.hpp"
#include "image/transform.hpp"
#include "pipeline/cascade.hpp"
#include "pipeline/parallel_detect.hpp"

namespace hdface::pipeline {
namespace {

constexpr std::size_t kWindow = 16;
constexpr std::size_t kStride = 8;

enum class ScanPath { kPerWindow, kEager, kPrebuilt, kLazy };
enum class Scoring { kExact, kCascade, kPrescreen };

HdFaceConfig pin_config() {
  HdFaceConfig c;
  c.dim = 1024;
  c.mode = HdFaceMode::kHdHog;
  c.hd_hog_mode = hog::HdHogMode::kFaithful;
  c.hog.cell_size = 4;
  c.hog.bins = 8;
  c.epochs = 5;
  return c;
}

// A trained pipeline, both cascade tables and the fixed scene: a flat field
// (the prescreen rejects it) with one planted face and a textured strip
// (windows the prescreen passes and the stages must decide).
struct PinFixture {
  PinFixture() : pipeline(pin_config(), kWindow, kWindow, 2), scene(64, 48) {
    dataset::FaceDatasetConfig data_cfg;
    data_cfg.num_samples = 60;
    data_cfg.image_size = kWindow;
    pipeline.fit(make_face_dataset(data_cfg));
    pipeline.mutable_classifier().set_binary_override(
        pipeline.classifier().binary_prototypes());

    const auto scenes =
        cascade_calibration_scenes(2, kWindow, 64, 48, 1, 0x5EED);
    CascadeCalibrationConfig cc;
    cc.stage_fractions = {0.25, 0.5};
    cc.slack = 0.01;
    cc.window = kWindow;
    cc.stride = kStride;
    table = calibrate_cascade(pipeline, scenes, cc);
    cc.prescreen = true;
    cc.prescreen_fraction = 0.25;
    prescreen_table = calibrate_cascade(pipeline, scenes, cc);

    for (float& p : scene.pixels()) p = 0.5f;
    image::paste(scene, image::crop(scenes[1], 40, 0, 24, 48), 40, 0);
    image::paste(scene, dataset::render_face_window(kWindow, 1234), 8, 16);
  }

  HdFacePipeline pipeline;
  image::Image scene;
  CascadeTable table;
  CascadeTable prescreen_table;
};

PinFixture& fixture() {
  static PinFixture f;
  return f;
}

// Everything one scan reports, as one comparable line.
std::string summarize(const DetectionMap& map, const core::OpCounter& ops,
                      const CascadeStats& cascade,
                      const EncodeCacheStats& cache) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  const auto mix = [&hash](std::uint64_t v) {
    hash = (hash ^ v) * 0x100000001B3ULL;
  };
  for (std::size_t i = 0; i < map.predictions.size(); ++i) {
    mix(static_cast<std::uint64_t>(map.predictions[i]));
    mix(std::bit_cast<std::uint64_t>(map.scores[i]));
  }
  std::ostringstream out;
  out << "map=" << std::hex << hash << std::dec << " ops=";
  for (std::size_t k = 0; k < core::kOpKindCount; ++k) {
    out << (k ? "," : "") << ops.counts[k];
  }
  out << " cascade=" << cascade.windows << "," << cascade.exact_scored << ","
      << cascade.prescreen_entered << "," << cascade.prescreen_rejected;
  for (const CascadeStageCounters& s : cascade.stages) {
    out << ";" << s.entered << "/" << s.rejected;
  }
  out << " cache=" << cache.cells_computed << "," << cache.cells_total << ","
      << cache.cells_forced_prescreen << "," << cache.ensure_checks << ","
      << cache.slot_reads << "," << cache.windows_assembled;
  return out.str();
}

struct ScanPin {
  const char* name;
  ScanPath path;
  Scoring scoring;
  const char* expected;
};

std::ostream& operator<<(std::ostream& os, const ScanPin& pin) {
  return os << pin.name;
}

std::string run_pinned_scan(const ScanPin& pin, std::size_t threads) {
  PinFixture& f = fixture();
  const CascadeTable* table = pin.scoring == Scoring::kCascade    ? &f.table
                              : pin.scoring == Scoring::kPrescreen
                                  ? &f.prescreen_table
                                  : nullptr;
  const std::optional<Cascade> cascade =
      table ? std::optional<Cascade>(std::in_place, f.pipeline.classifier(),
                                     *table)
            : std::nullopt;

  core::OpCounter ops;
  CascadeStats cascade_stats;
  EncodeCacheStats cache;
  ParallelDetectConfig cfg;
  cfg.threads = threads;
  cfg.min_chunk = 1;  // real chunking on the small grid
  cfg.encode_mode = pin.path == ScanPath::kPerWindow ? EncodeMode::kPerWindow
                                                     : EncodeMode::kCellPlane;
  cfg.plane_mode =
      pin.path == ScanPath::kLazy ? PlaneMode::kLazy : PlaneMode::kEager;
  cfg.cascade = cascade ? &*cascade : nullptr;

  DetectionMap map;
  if (pin.path == ScanPath::kPrebuilt) {
    // Only the scan on the prebuilt plane reports; its build stays silent.
    const std::size_t grid_step =
        std::gcd(kStride, f.pipeline.config().hog.cell_size);
    const hog::CellPlane plane =
        build_scene_cell_plane(f.pipeline, f.scene, grid_step, cfg);
    cfg.feature_counter = &ops;
    cfg.cascade_stats = &cascade_stats;
    cfg.cache_stats = &cache;
    map = detect_windows_on_plane(f.pipeline, f.scene, plane, kWindow, kStride,
                                  1, cfg);
  } else {
    cfg.feature_counter = &ops;
    cfg.cascade_stats = &cascade_stats;
    cfg.cache_stats = &cache;
    map = detect_windows_parallel(f.pipeline, f.scene, kWindow, kStride, 1,
                                  cfg);
  }
  return summarize(map, ops, cascade_stats, cache);
}

class ScanCounterPins : public testing::TestWithParam<ScanPin> {};

TEST_P(ScanCounterPins, TotalsMatchAtOneAndFourThreads) {
  const ScanPin& pin = GetParam();
  for (const std::size_t threads : {1u, 4u}) {
    EXPECT_EQ(run_pinned_scan(pin, threads), pin.expected)
        << pin.name << " at " << threads << " threads";
  }
}

// Summary fields: map hash; ops by OpKind; cascade = windows, exact_scored,
// prescreen_entered, prescreen_rejected then entered/rejected per stage;
// cache = cells_computed, cells_total, cells_forced_prescreen, ensure_checks,
// slot_reads, windows_assembled.
const ScanPin kPins[] = {
    {"per_window_exact", ScanPath::kPerWindow, Scoring::kExact,
     "map=93cfb2ac184cb9f5 ops=10285984,1138384,147377,1311744,0,0,0,0,0,0 "
     "cascade=0,0,0,0 cache=0,0,0,0,0,0"},
    {"eager_exact", ScanPath::kEager, Scoring::kExact,
     "map=4312ae5344d16b54 ops=3557840,391856,50793,1381376,0,0,0,0,0,0 "
     "cascade=0,0,0,0 cache=192,192,0,0,4480,35"},
    {"eager_cascade", ScanPath::kEager, Scoring::kCascade,
     "map=9e52ae5344d16b54 ops=3553368,392360,50793,1062912,0,0,0,0,0,0 "
     "cascade=35,22,0,0;35/7;28/6 cache=192,192,0,0,4480,35"},
    {"eager_prescreen", ScanPath::kEager, Scoring::kPrescreen,
     "map=f104f12961ceef3c ops=3551624,392512,50793,941568,0,0,0,0,0,0 "
     "cascade=26,18,35,9;26/5;21/3 cache=192,192,0,0,4448,35"},
    {"prebuilt_exact", ScanPath::kPrebuilt, Scoring::kExact,
     "map=4312ae5344d16b54 ops=21584,0,0,1381376,0,0,0,0,0,0 "
     "cascade=0,0,0,0 cache=0,0,0,0,4480,35"},
    {"prebuilt_cascade", ScanPath::kPrebuilt, Scoring::kCascade,
     "map=9e52ae5344d16b54 ops=17112,504,0,1062912,0,0,0,0,0,0 "
     "cascade=35,22,0,0;35/7;28/6 cache=0,0,0,0,4480,35"},
    {"prebuilt_prescreen", ScanPath::kPrebuilt, Scoring::kPrescreen,
     "map=f104f12961ceef3c ops=15368,656,0,941568,0,0,0,0,0,0 "
     "cascade=26,18,35,9;26/5;21/3 cache=0,0,0,0,4448,35"},
    {"lazy_exact", ScanPath::kLazy, Scoring::kExact,
     "map=4312ae5344d16b54 ops=3557840,391856,50793,1381376,0,0,0,0,0,0 "
     "cascade=0,0,0,0 cache=192,192,0,560,4480,35"},
    {"lazy_cascade", ScanPath::kLazy, Scoring::kCascade,
     "map=9e52ae5344d16b54 ops=3553368,392360,50793,1062912,0,0,0,0,0,0 "
     "cascade=35,22,0,0;35/7;28/6 cache=192,192,0,560,4480,35"},
    {"lazy_prescreen", ScanPath::kLazy, Scoring::kPrescreen,
     "map=f104f12961ceef3c ops=3162440,349552,45202,941568,0,0,0,0,0,0 "
     "cascade=26,18,35,9;26/5;21/3 cache=171,192,48,556,4448,35"},
};

INSTANTIATE_TEST_SUITE_P(AllPaths, ScanCounterPins, testing::ValuesIn(kPins),
                         [](const testing::TestParamInfo<ScanPin>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace hdface::pipeline
