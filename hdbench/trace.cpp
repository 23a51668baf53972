#include "trace.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/accumulator.hpp"
#include "core/hypervector.hpp"
#include "core/prototype_block.hpp"
#include "core/rng.hpp"
#include "hog/cell_plane.hpp"
#include "hog/gradient.hpp"
#include "hog/hd_hog.hpp"
#include "hog/lazy_cell_plane.hpp"
#include "pipeline/cascade.hpp"
#include "pipeline/hdface_pipeline.hpp"
#include "pipeline/multiscale.hpp"
#include "pipeline/parallel_detect.hpp"

namespace hdbench {

using namespace hdface;

namespace {

// The scene levels one detect call scans: the scene itself when
// single-scale (Detector::detect builds no pyramid then), else the pyramid.
struct Levels {
  const image::Image* scene = nullptr;
  pipeline::ScalePyramid pyramid;
  bool single = true;

  std::size_t count() const { return single ? 1 : pyramid.levels.size(); }
  const image::Image& image(std::size_t level) const {
    return single ? *scene : pyramid.levels[level];
  }
  double scale(std::size_t level) const {
    return single ? 1.0 : pyramid.scales[level];
  }
};

Levels levels_of(const api::Request& request) {
  Levels lv;
  lv.scene = &request.scene;
  const auto& scales = request.options.scales;
  lv.single = scales.size() == 1 && scales.front() == 1.0;
  if (!lv.single) {
    lv.pyramid = pipeline::build_pyramid(request.scene, kWindow, scales);
  }
  return lv;
}

// Boxes from per-level maps, exactly as Detector::detect forms them:
// map_detections for one scale, the scene-coordinate merge + NMS otherwise.
std::vector<pipeline::Detection> merge_levels(
    const Levels& lv, const std::vector<pipeline::DetectionMap>& maps,
    const api::DetectOptions& o) {
  if (lv.single) {
    return pipeline::map_detections(maps.front(), o.positive_class,
                                    o.score_threshold,
                                    o.nms ? o.nms_iou : 2.0);
  }
  std::vector<pipeline::Detection> all;
  for (std::size_t level = 0; level < maps.size(); ++level) {
    const double scale = lv.scale(level);
    const pipeline::DetectionMap& map = maps[level];
    for (std::size_t sy = 0; sy < map.steps_y; ++sy) {
      for (std::size_t sx = 0; sx < map.steps_x; ++sx) {
        const std::size_t idx = sy * map.steps_x + sx;
        if (map.predictions[idx] != 1) continue;
        if (map.scores[idx] < o.score_threshold) continue;
        pipeline::Detection d;
        d.x = static_cast<std::size_t>(
            std::lround(static_cast<double>(sx * o.stride) / scale));
        d.y = static_cast<std::size_t>(
            std::lround(static_cast<double>(sy * o.stride) / scale));
        d.size = static_cast<std::size_t>(
            std::lround(static_cast<double>(kWindow) / scale));
        d.score = map.scores[idx];
        all.push_back(d);
      }
    }
  }
  auto kept = pipeline::non_max_suppression(std::move(all),
                                            o.nms ? o.nms_iou : 0.3);
  std::sort(kept.begin(), kept.end(), pipeline::detection_before);
  return kept;
}

bool maps_equal(const pipeline::DetectionMap& a,
                const pipeline::DetectionMap& b) {
  if (a.steps_x != b.steps_x || a.steps_y != b.steps_y ||
      a.predictions != b.predictions || a.scores.size() != b.scores.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a.scores[i]) !=
        std::bit_cast<std::uint64_t>(b.scores[i])) {
      return false;
    }
  }
  return true;
}

// One serial replay of a detect call as the public calls the engine makes
// (pipeline/parallel_detect.cpp, lazy plane): per level, the level-index
// plane, each cell's fused encode on first read, the parity prescreen, and
// the staged cascade (or full assembly + full-D scoring without one); then
// the merge. Every layer is timed at its call boundary, in ms.
struct Replay {
  double cascade_build = 0.0;
  double pyramid = 0.0;
  double level_plane = 0.0;
  double cells = 0.0;
  double prescreen = 0.0;
  double stages = 0.0;
  double assemble = 0.0;
  double full_d = 0.0;
  double merge = 0.0;
  double wall = 0.0;
  std::vector<double> cell_us;
  std::vector<double> prescreen_us;
  std::vector<pipeline::Detection> detections;

  double layers_sum() const {
    return cascade_build + pyramid + level_plane + cells + prescreen + stages +
           assemble + full_d + merge;
  }
};

Replay replay(Model& model, const api::Request& request) {
  Replay r;
  const auto wall0 = Clock::now();
  pipeline::HdFacePipeline& pl = *model.detector.pipeline();
  const hog::HdHogExtractor& ex = *pl.hd_extractor();
  const api::DetectOptions& o = request.options;

  auto t0 = Clock::now();
  std::optional<pipeline::Cascade> cascade;
  if (o.cascade && o.cascade->mode == pipeline::CascadeMode::kCalibrated) {
    cascade.emplace(pl.classifier(), o.cascade->table);
  }
  r.cascade_build = ms_since(t0);

  t0 = Clock::now();
  const Levels lv = levels_of(request);
  r.pyramid = ms_since(t0);

  const std::size_t cell = ex.config().hog.cell_size;
  const std::size_t bins = ex.config().hog.bins;
  const std::size_t grid_step = std::gcd(o.stride, cell);
  const std::size_t gstep = cell / grid_step;
  const std::size_t per_side = kWindow / cell;
  const bool prescreen = cascade && cascade->has_prescreen();
  const std::uint64_t seed = pl.config().seed;
  pl.prepare_concurrent();

  std::vector<pipeline::DetectionMap> maps;
  for (std::size_t level = 0; level < lv.count(); ++level) {
    const image::Image& img = lv.image(level);
    t0 = Clock::now();
    const hog::LevelIndexPlane index =
        hog::build_level_index_plane(img, ex.item_memory());
    r.level_plane += ms_since(t0);

    hog::LazyCellPlane lazy(hog::make_cell_plane_geometry(
        img.width(), img.height(), cell, bins, grid_step, level));
    const hog::CellPlane& plane = lazy.plane();
    core::StochasticContext scratch = pl.fork_context(seed);
    const auto ensure = [&](std::size_t gx, std::size_t gy) {
      if (lazy.materialized(gx, gy)) return;
      const auto c0 = Clock::now();
      lazy.ensure_cell(gx, gy, [&](double* out) {
        scratch.reseed(hog::cell_plane_seed(seed, level, gx, gy));
        ex.cell_raw_values(img, &index, gx * plane.grid_step,
                           gy * plane.grid_step, scratch, out);
      });
      const double ms = ms_since(c0);
      r.cells += ms;
      r.cell_us.push_back(ms * 1e3);
    };

    pipeline::DetectionMap map;
    map.window = kWindow;
    map.stride = o.stride;
    map.steps_x = (img.width() - kWindow) / o.stride + 1;
    map.steps_y = (img.height() - kWindow) / o.stride + 1;
    const std::size_t total = map.steps_x * map.steps_y;
    map.predictions.assign(total, 0);
    map.scores.assign(total, 0.0);
    hog::HdHogExtractor::StagedWindow win(ex);
    pipeline::Cascade::Scratch cascade_scratch;
    pipeline::CascadeStats stats;
    for (std::size_t idx = 0; idx < total; ++idx) {
      const std::size_t ox = (idx % map.steps_x) * o.stride;
      const std::size_t oy = (idx / map.steps_x) * o.stride;
      const std::size_t gx0 = ox / plane.grid_step;
      const std::size_t gy0 = oy / plane.grid_step;
      if (prescreen) {
        for (std::size_t cy = 0; cy < per_side; ++cy) {
          if ((gy0 + cy) % 2 != 0) continue;
          for (std::size_t cx = 0; cx < per_side; ++cx) {
            if ((gx0 + cx) % 2 == 0) ensure(gx0 + cx, gy0 + cy);
          }
        }
        const auto p0 = Clock::now();
        win.reset_prescreen(plane, ox, oy, cascade->table().prescreen_vmax);
        const auto res = cascade->prescreen(win, cascade_scratch, stats);
        const double ms = ms_since(p0);
        r.prescreen += ms;
        r.prescreen_us.push_back(ms * 1e3);
        if (res.rejected) {
          map.predictions[idx] = res.prediction;
          map.scores[idx] = res.score;
          continue;
        }
      }
      for (std::size_t cy = 0; cy < per_side; ++cy) {
        for (std::size_t cx = 0; cx < per_side; ++cx) {
          ensure(gx0 + cx * gstep, gy0 + cy * gstep);
        }
      }
      if (cascade) {
        const auto s0 = Clock::now();
        win.reset(plane, ox, oy);
        const auto res =
            cascade->classify(pl.classifier(), win, cascade_scratch, stats);
        r.stages += ms_since(s0);
        map.predictions[idx] = res.prediction;
        map.scores[idx] = res.score;
      } else {
        const auto a0 = Clock::now();
        const core::Hypervector feature =
            ex.extract_from_plane(plane, ox, oy, nullptr);
        const auto f0 = Clock::now();
        r.assemble += ms_between(a0, f0);
        const std::vector<double> scores = pl.classifier().scores(feature);
        r.full_d += ms_since(f0);
        map.predictions[idx] = static_cast<int>(
            std::max_element(scores.begin(), scores.end()) - scores.begin());
        map.scores[idx] = scores[static_cast<std::size_t>(o.positive_class)];
      }
    }
    maps.push_back(std::move(map));
  }

  t0 = Clock::now();
  r.detections = merge_levels(lv, maps, o);
  r.merge = ms_since(t0);
  r.wall = ms_since(wall0);
  return r;
}

// Median wall time per call (ns) of `calls` back-to-back calls, over 9
// batches: for kernels too short to time one call at a time.
template <typename Fn>
double ns_per_call(std::size_t calls, Fn&& fn) {
  std::vector<double> batches;
  for (int b = 0; b < 10; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    if (b > 0) batches.push_back(ms_since(t0) * 1e6 / static_cast<double>(calls));
  }
  return median(batches);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

bool add_layer_metrics(Report& report, Model& model, const Case& c,
                       double budget_s) {
  pipeline::HdFacePipeline& pl = *model.detector.pipeline();
  const hog::HdHogExtractor& ex = *pl.hd_extractor();
  const api::DetectOptions& o = c.request.options;
  bool correct = true;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) std::printf("FAIL: %s\n", what);
    correct = correct && ok;
  };

  // --- closure: untraced serial detect vs the traced serial replay --------
  api::Request serial = c.request;
  serial.options.threads = 1;
  const auto detect_hash = [&](const api::Request& request) {
    auto out = model.detector.detect(request);
    return out.ok() ? detections_hash(out.value().detections) : 0;
  };
  const auto probe0 = Clock::now();
  expect(detect_hash(serial) == c.ref_hash, "serial detect != reference");
  const double probe_ms = std::max(ms_since(probe0), 0.05);
  // One round = an untraced call, a replay and the engine-level timings.
  const auto reps = static_cast<std::size_t>(std::clamp(
      budget_s * 1e3 / (6.0 * probe_ms), 3.0, 200.0));

  std::vector<double> untraced;
  std::vector<Replay> replays;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    const std::uint64_t h = detect_hash(serial);
    untraced.push_back(ms_since(t0));
    expect(h == c.ref_hash, "untraced detect != reference");
    replays.push_back(replay(model, serial));
    expect(detections_hash(replays.back().detections) == c.ref_hash,
           "traced replay != reference");
  }
  const auto replay_median = [&](double Replay::*field) {
    std::vector<double> v;
    for (const Replay& r : replays) v.push_back(r.*field);
    return median(v);
  };
  std::vector<double> sums, cell_us, prescreen_us;
  for (const Replay& r : replays) {
    sums.push_back(r.layers_sum());
    cell_us.insert(cell_us.end(), r.cell_us.begin(), r.cell_us.end());
    prescreen_us.insert(prescreen_us.end(), r.prescreen_us.begin(),
                        r.prescreen_us.end());
  }
  const double untraced_ms = median(untraced);
  const double layers_sum = median(sums);

  // --- engine-level layers at the workload's thread count -----------------
  std::optional<pipeline::Cascade> cascade;
  if (o.cascade && o.cascade->mode == pipeline::CascadeMode::kCalibrated) {
    cascade.emplace(pl.classifier(), o.cascade->table);
  }
  const Levels lv = levels_of(c.request);
  const std::size_t grid_step =
      std::gcd(o.stride, ex.config().hog.cell_size);
  const auto engine = [&](std::size_t level) {
    pipeline::ParallelDetectConfig cfg;
    cfg.threads = o.threads;
    cfg.encode_mode = pipeline::EncodeMode::kCellPlane;
    cfg.scale_index = level;
    cfg.cascade = cascade ? &*cascade : nullptr;
    return cfg;
  };
  std::vector<hog::CellPlane> planes(lv.count());
  std::vector<pipeline::DetectionMap> on_plane(lv.count()), scanned(lv.count());
  // Each round times every engine-level call once, so a drift in machine
  // speed hits them alike and their differences stay meaningful. The engine
  // scan and the full detect call swap order every round: a call right
  // after the eager plane work runs measurably slower (memory state), and
  // alternating keeps that out of their difference. Round 0 is a warm-up.
  std::vector<double> plane_eager, scan_on_plane, engine_scan, level_plane,
      pyramid, detect;
  const auto timed = [](std::vector<double>& out, auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    out.push_back(ms_since(t0));
  };
  const auto time_engine_scan = [&] {
    timed(engine_scan, [&] {
      for (std::size_t l = 0; l < lv.count(); ++l) {
        auto cfg = engine(l);
        cfg.plane_mode = o.plane_mode;
        scanned[l] = pipeline::detect_windows_parallel(
            pl, lv.image(l), kWindow, o.stride, o.positive_class, cfg);
      }
    });
  };
  const auto time_detect = [&] {
    timed(detect, [&] {
      expect(detect_hash(c.request) == c.ref_hash, "detect != reference");
    });
  };
  for (std::size_t round = 0; round <= reps; ++round) {
    timed(plane_eager, [&] {
      for (std::size_t l = 0; l < lv.count(); ++l) {
        planes[l] = pipeline::build_scene_cell_plane(pl, lv.image(l),
                                                     grid_step, engine(l));
      }
    });
    timed(scan_on_plane, [&] {
      for (std::size_t l = 0; l < lv.count(); ++l) {
        on_plane[l] = pipeline::detect_windows_on_plane(
            pl, lv.image(l), planes[l], kWindow, o.stride, o.positive_class,
            engine(l));
      }
    });
    timed(level_plane, [&] {
      for (std::size_t l = 0; l < lv.count(); ++l) {
        (void)hog::build_level_index_plane(lv.image(l), ex.item_memory());
      }
    });
    if (!lv.single) {
      timed(pyramid, [&] {
        (void)pipeline::build_pyramid(c.request.scene, kWindow, o.scales);
      });
    }
    if (round % 2 == 0) {
      time_engine_scan();
      time_detect();
    } else {
      time_detect();
      time_engine_scan();
    }
  }
  for (std::size_t l = 0; l < lv.count(); ++l) {
    expect(maps_equal(on_plane[l], scanned[l]),
           "scan on a prebuilt eager plane != engine scan");
  }
  if (pyramid.empty()) pyramid.assign(detect.size(), 0.0);
  // Medians over the timed rounds (round 0 is the warm-up); the residual
  // layers are medians of per-round differences, so drift common to a round
  // cancels.
  const auto over_rounds = [&](auto&& value_of) {
    std::vector<double> v;
    for (std::size_t r = 1; r < detect.size(); ++r) v.push_back(value_of(r));
    return median(std::move(v));
  };
  const auto column = [&](const std::vector<double>& times) {
    return over_rounds([&](std::size_t r) { return times[r]; });
  };
  const double plane_eager_ms = column(plane_eager);
  const double scan_on_plane_ms = column(scan_on_plane);
  const double level_plane_ms = column(level_plane);
  const double pyramid_ms = column(pyramid);
  const double lazy_residual_ms = over_rounds([&](std::size_t r) {
    return engine_scan[r] - level_plane[r] - scan_on_plane[r];
  });
  const double detect_overhead_ms = over_rounds([&](std::size_t r) {
    return detect[r] - pyramid[r] - engine_scan[r];
  });

  // --- per-call kernels ---------------------------------------------------
  const double cascade_build_us =
      cascade ? median(time_reps(2, 50, [&] {
        const pipeline::Cascade built(pl.classifier(), o.cascade->table);
        (void)built;
      })) * 1e3
              : 0.0;
  std::vector<double> assemble_us;
  {
    const hog::CellPlane& plane = planes.front();
    const pipeline::DetectionMap& map = on_plane.front();
    const std::size_t windows = map.steps_x * map.steps_y;
    const std::size_t step = std::max<std::size_t>(1, windows / 64);
    hog::HdHogExtractor::StagedWindow win(ex);
    for (std::size_t idx = 0; idx < windows; idx += step) {
      const auto t0 = Clock::now();
      win.reset(plane, (idx % map.steps_x) * o.stride,
                (idx / map.steps_x) * o.stride);
      win.assemble_to(win.total_words());
      assemble_us.push_back(ms_since(t0) * 1e3);
    }
  }
  const core::Hypervector feature =
      ex.extract_from_plane(planes.front(), 0, 0, nullptr);
  const double full_d_us =
      median(time_reps(10, 200, [&] { (void)pl.classifier().scores(feature); })) *
      1e3;
  core::Rng rng(0xC0DE);
  const core::Hypervector query = core::Hypervector::random(kDim, rng);
  const core::Hypervector other = core::Hypervector::random(kDim, rng);
  const auto prototypes = pl.classifier().binary_prototypes();
  const core::PrototypeBlock block(prototypes);
  std::vector<std::size_t> distances(block.count());
  const double hamming_many_ns = ns_per_call(20000, [&] {
    block.hamming_many(query, std::span<std::size_t>(distances));
  });
  core::Accumulator acc(kDim);
  const double add_xor_ns =
      ns_per_call(2000, [&] { acc.add_xor(query, other, 1.0); });

  // --- exact counters the API returns -------------------------------------
  pipeline::EncodeCacheStats es;
  pipeline::CascadeStats cs;
  {
    api::Request counted = c.request;
    api::Telemetry telemetry;
    telemetry.encode_cache = &es;
    telemetry.cascade = &cs;
    counted.options.telemetry = telemetry;
    expect(detect_hash(counted) == c.ref_hash, "counted detect != reference");
  }

  report.add("hog.level_plane_ms", level_plane_ms, "ms");
  report.add("hog.cell_us", cell_us.empty() ? 0.0 : median(cell_us), "us");
  report.add("hog.plane_eager_ms", plane_eager_ms, "ms");
  report.add("hog.cells_materialized", static_cast<double>(es.cells_computed),
             "count");
  report.add("hog.materialized_frac", ratio(es.cells_computed, es.cells_total),
             "ratio");
  report.add("hog.plane_hit_rate",
             es.ensure_checks == 0
                 ? 0.0
                 : 1.0 - ratio(es.cells_computed, es.ensure_checks),
             "ratio");
  report.add("hog.assemble_us", median(assemble_us), "us");
  report.add("pipeline.prescreen_us",
             prescreen_us.empty() ? 0.0 : median(prescreen_us), "us");
  report.add("pipeline.prescreen_reject_frac",
             ratio(cs.prescreen_rejected, cs.prescreen_entered), "ratio");
  report.add("pipeline.stages_ms", replay_median(&Replay::stages), "ms");
  for (std::size_t s = 0; s < 4; ++s) {
    const double pass =
        s < cs.stages.size() && cs.stages[s].entered > 0
            ? 1.0 - ratio(cs.stages[s].rejected, cs.stages[s].entered)
            : 0.0;
    report.add("pipeline.stage_pass_rate." + std::to_string(s), pass, "ratio");
  }
  report.add("pipeline.survivors", static_cast<double>(cs.exact_scored),
             "count");
  report.add("pipeline.scan_on_plane_ms", scan_on_plane_ms, "ms");
  report.add("pipeline.lazy_residual_ms", lazy_residual_ms, "ms");
  report.add("pipeline.pyramid_ms", pyramid_ms, "ms");
  report.add("pipeline.nms_us", replay_median(&Replay::merge) * 1e3, "us");
  report.add("learn.full_d_us", full_d_us, "us");
  report.add("core.hamming_many_ns", hamming_many_ns, "ns");
  report.add("core.add_xor_ns", add_xor_ns, "ns");
  report.add("api.cascade_build_us", cascade_build_us, "us");
  report.add("api.detect_overhead_us", detect_overhead_ms * 1e3, "us");
  report.add("trace.untraced_ms", untraced_ms, "ms");
  report.add("trace.layers_sum_ms", layers_sum, "ms");
  report.add("trace.closure_residual",
             std::abs(untraced_ms - layers_sum) / untraced_ms, "ratio");
  report.add("trace.overhead_ms", replay_median(&Replay::wall) - untraced_ms,
             "ms");
  std::printf(
      "trace: %zu reps; serial detect %.3f ms untraced, replay layers sum "
      "%.3f ms (cascade %.3f, pyramid %.3f, level plane %.3f, cells %.3f "
      "[%zu], prescreen %.3f, stages %.3f, assemble %.3f, full-D %.3f, "
      "merge %.3f)\n",
      reps, untraced_ms, layers_sum, replay_median(&Replay::cascade_build),
      replay_median(&Replay::pyramid), replay_median(&Replay::level_plane),
      replay_median(&Replay::cells), replays.front().cell_us.size(),
      replay_median(&Replay::prescreen), replay_median(&Replay::stages),
      replay_median(&Replay::assemble), replay_median(&Replay::full_d),
      replay_median(&Replay::merge));
  return correct;
}

}  // namespace hdbench
