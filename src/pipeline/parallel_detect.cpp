#include "pipeline/parallel_detect.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/rng.hpp"
#include "hog/gradient.hpp"
#include "hog/lazy_cell_plane.hpp"
#include "image/transform.hpp"
#include "pipeline/cascade.hpp"

namespace hdface::pipeline {

namespace {

// Salt separating the batched scan's per-window seed stream from every other
// consumer of the pipeline seed.
constexpr std::uint64_t kWindowStreamSalt = 0xBA7C4ED0ULL;

// One chunk's accounting, for every scan path. The runner merges the shards
// once, after the scan, and run_scan publishes the totals to the config's
// sinks — so every total is exact and identical at every thread count.
struct ScanShard {
  core::OpCounter ops;
  CascadeStats cascade;
  EncodeCacheStats cache;

  void merge(const ScanShard& other) {
    ops.merge(other.ops);
    cascade.merge(other.cascade);
    cache.merge(other.cache);
  }
};

// Run body(scratch, ops, shard, lo, hi) over the chunks of [0, total) and
// publish the merged shard to the config's sinks. Callers first freeze the
// shared mask pool with pipeline.prepare_concurrent() (the one mutation,
// before any dispatch). threads == 1 runs one chunk on the caller; a caller
// pool wins over the threads knob; otherwise 0 = the global pool and N = a
// call-local pool of exactly N workers. Each chunk gets a scratch context
// forked from the pipeline — bodies reseed it from a pure key before every
// use, so the fork seed never reaches a result — counting into the shard's
// OpCounter when the config carries a feature counter (`ops` is null
// otherwise).
template <typename Body>
void run_scan(const HdFacePipeline& pipeline,
              const ParallelDetectConfig& config, std::size_t total,
              const Body& body) {
  std::unique_ptr<util::ThreadPool> local;
  util::ThreadPool* pool = config.pool;
  if (pool == nullptr && config.threads != 1) {
    if (config.threads == 0) {
      pool = &util::global_pool();
    } else {
      local = std::make_unique<util::ThreadPool>(config.threads);
      pool = local.get();
    }
  }
  const std::uint64_t seed = pipeline.config().seed;
  const ScanShard totals = util::parallel_for_sharded<ScanShard>(
      pool, 0, total, config.min_chunk,
      [&pipeline, &config, &body, seed](ScanShard& shard, std::size_t lo,
                                        std::size_t hi) {
        core::StochasticContext scratch =
            pipeline.fork_context(core::mix64(seed, lo));
        core::OpCounter* ops = config.feature_counter ? &shard.ops : nullptr;
        scratch.set_counter(ops);
        body(scratch, ops, shard, lo, hi);
      });
  if (config.feature_counter) config.feature_counter->merge(totals.ops);
  if (config.cascade_stats) config.cascade_stats->merge(totals.cascade);
  if (config.cache_stats) config.cache_stats->merge(totals.cache);
}

DetectionMap make_map_geometry(const image::Image& scene, std::size_t window,
                               std::size_t stride) {
  if (window == 0 || stride == 0) {
    throw std::invalid_argument("detect_windows_parallel: zero geometry");
  }
  if (scene.width() < window || scene.height() < window) {
    throw std::invalid_argument(
        "detect_windows_parallel: scene smaller than window");
  }
  DetectionMap map;
  map.window = window;
  map.stride = stride;
  map.steps_x = (scene.width() - window) / stride + 1;
  map.steps_y = (scene.height() - window) / stride + 1;
  const std::size_t total = map.steps_x * map.steps_y;
  map.predictions.assign(total, 0);
  map.scores.assign(total, 0.0);
  return map;
}

const hog::HdHogExtractor& require_hd_hog(HdFacePipeline& pipeline,
                                          const char* entry) {
  const hog::HdHogExtractor* extractor = pipeline.hd_extractor();
  if (extractor == nullptr) {
    throw std::invalid_argument(
        std::string(entry) +
        ": cell-plane scans require an HD-HOG pipeline (kOrigHogEncoder has "
        "no hypervector encode to cache)");
  }
  return *extractor;
}

// The one validation of a cell-plane scan, run before any cell is encoded:
// the cascade fits the call, the plane's cell/bin shape matches the
// extractor, every scan window lands on the plane's grid with its far corner
// inside, and a prescreen gets the parity subgrid it reads.
void validate_plane_scan(const char* entry,
                         const hog::HdHogExtractor& extractor,
                         const hog::CellPlane& plane, const DetectionMap& map,
                         const ParallelDetectConfig& config,
                         int positive_class) {
  const auto fail = [entry](const char* why) {
    throw std::invalid_argument(std::string(entry) + ": " + why);
  };
  const Cascade* cascade = config.cascade;
  if (cascade != nullptr && config.fault_plan != nullptr) {
    fail("cascade scans are incompatible with fault_plan (in-flight query "
         "faults need the full feature)");
  }
  if (cascade != nullptr && cascade->table().positive_class != positive_class) {
    fail("cascade table positive_class mismatches the scan");
  }
  const std::size_t cell = extractor.config().hog.cell_size;
  if (plane.cell_size != cell || plane.bins != extractor.config().hog.bins) {
    fail("plane cell/bin shape mismatches the pipeline's extractor");
  }
  // Origins are the multiples of stride, so stride % grid_step == 0 puts
  // every origin on the grid; the far-corner extent is monotone in the
  // origin, so checking the last window covers the rest.
  const std::size_t cells_per_side = map.window / cell;
  if (plane.grid_step == 0 || map.stride % plane.grid_step != 0 ||
      !plane.window_on_grid(0, 0, cells_per_side, cells_per_side) ||
      !plane.window_on_grid((map.steps_x - 1) * map.stride,
                            (map.steps_y - 1) * map.stride, cells_per_side,
                            cells_per_side)) {
    fail("plane does not cover the scan grid (build it with grid_step = "
         "gcd(stride, cell_size) over the same scene)");
  }
  if (cascade != nullptr && cascade->has_prescreen() &&
      plane.grid_step != cell) {
    fail("a prescreen-carrying cascade table needs stride % cell_size == 0 "
         "so the parity subgrid is well defined");
  }
}

// Classify one encoded window into slot idx of the map. The plan's in-flight
// query fault lands first; it is a pure function of (plan seed, window
// index), so faulted scans keep the any-thread-count identity.
void classify_window(const HdFacePipeline& pipeline,
                     const ParallelDetectConfig& config, int positive_class,
                     std::size_t idx, core::Hypervector& feature,
                     DetectionMap& map) {
  if (config.fault_plan) {
    noise::apply_query_fault(*config.fault_plan, idx, feature);
  }
  const auto class_scores = pipeline.classifier().scores(feature);
  map.predictions[idx] = static_cast<int>(
      std::max_element(class_scores.begin(), class_scores.end()) -
      class_scores.begin());
  map.scores[idx] = class_scores[static_cast<std::size_t>(positive_class)];
}

// Returns encode(plane, gx, gy, scratch, out), which encodes grid cell
// (gx, gy) on a chunk's scratch context reseeded from the pure (seed,
// scale_index, gx, gy) key: a cell holds the same bytes whichever thread,
// order or plane mode computes it. The scene-scale pixel→level pass is shared
// by every cell (the per-cell chain reads border pixels up to four times, and
// shared borders once per adjacent cell).
auto cell_encoder(const HdFacePipeline& pipeline,
                  const hog::HdHogExtractor& extractor,
                  const image::Image& scene,
                  const ParallelDetectConfig& config) {
  return [&extractor, &scene, &config, seed = pipeline.config().seed,
          levels =
              hog::build_level_index_plane(scene, extractor.item_memory())](
             const hog::CellPlane& plane, std::size_t gx, std::size_t gy,
             core::StochasticContext& scratch, double* out) {
    scratch.reseed(hog::cell_plane_seed(seed, config.scale_index, gx, gy));
    extractor.cell_raw_values(scene, &levels, gx * plane.grid_step,
                              gy * plane.grid_step, scratch, out);
  };
}

// Fill every cell of `plane` (fresh geometry from make_cell_plane_geometry).
hog::CellPlane fill_cell_plane(const HdFacePipeline& pipeline,
                               const hog::HdHogExtractor& extractor,
                               const image::Image& scene, hog::CellPlane plane,
                               const ParallelDetectConfig& config) {
  const auto encode = cell_encoder(pipeline, extractor, scene, config);
  run_scan(pipeline, config, plane.cells(),
           [&plane, &encode](core::StochasticContext& scratch,
                             core::OpCounter*, ScanShard& shard,
                             std::size_t lo, std::size_t hi) {
             for (std::size_t idx = lo; idx < hi; ++idx) {
               const std::size_t gx = idx % plane.grid_x;
               const std::size_t gy = idx / plane.grid_x;
               encode(plane, gx, gy, scratch, plane.mutable_cell(gx, gy));
             }
             shard.cache.cells_computed += hi - lo;
             shard.cache.cells_total += hi - lo;
           });
  return plane;
}

// Number of even values in [g0, g0 + count) — the parity-subgrid cell count
// along one axis of a window (prescreen geometry has grid step 1 per cell).
std::size_t even_count(std::size_t g0, std::size_t count) {
  return (count + 1 - (g0 & 1)) / 2;
}

// Read-only state shared by every chunk of one cell-plane scan.
struct PlaneScan {
  const HdFacePipeline& pipeline;
  const hog::HdHogExtractor& extractor;
  const hog::CellPlane& plane;
  const ParallelDetectConfig& config;
  int positive_class;
};

// The window kernel of every cell-plane scan, over windows [lo, hi) of the
// map. The cell source is `ensure(gx, gy)`, called for each cell before a
// window reads it: a no-op on a prebuilt plane, the once-per-cell encode on a
// LazyCellPlane. With a prescreen-carrying cascade a window first ensures
// only its even/even parity cells and prescreens on them; only survivors
// ensure their full cell set. Scoring is the cascade's staged prefix path
// when the config carries one (survivors bit-identical to the exact path),
// else the exact full-D path. Nothing here draws randomness, so results are
// independent of scheduling; accounting lands in the chunk's shard (a
// prescreen-rejected window reads only its parity slots).
template <typename Ensure>
void scan_windows(const PlaneScan& scan, const Ensure& ensure,
                  core::OpCounter* ops, ScanShard& shard, std::size_t lo,
                  std::size_t hi, DetectionMap& map) {
  const hog::CellPlane& plane = scan.plane;
  const Cascade* cascade = scan.config.cascade;
  const bool prescreen = cascade != nullptr && cascade->has_prescreen();
  const std::size_t cell = scan.extractor.config().hog.cell_size;
  const std::size_t cells_per_side = map.window / cell;
  // Grid cells between adjacent window cells (1 when grid_step == cell).
  const std::size_t gstep = cell / plane.grid_step;
  hog::HdHogExtractor::StagedWindow win(scan.extractor);
  Cascade::Scratch cascade_scratch;
  for (std::size_t idx = lo; idx < hi; ++idx) {
    const std::size_t ox = (idx % map.steps_x) * map.stride;
    const std::size_t oy = (idx / map.steps_x) * map.stride;
    const std::size_t gx0 = ox / plane.grid_step;
    const std::size_t gy0 = oy / plane.grid_step;
    ++shard.cache.windows_assembled;
    if (prescreen) {
      // Parity pass (gstep == 1: validate_plane_scan pinned grid_step ==
      // cell for prescreen tables).
      for (std::size_t gy = gy0; gy < gy0 + cells_per_side; ++gy) {
        for (std::size_t gx = gx0; gx < gx0 + cells_per_side; ++gx) {
          if (gx % 2 == 0 && gy % 2 == 0) ensure(gx, gy);
        }
      }
      shard.cache.slot_reads += even_count(gx0, cells_per_side) *
                                even_count(gy0, cells_per_side) * plane.bins;
      win.reset_prescreen(plane, ox, oy, cascade->table().prescreen_vmax);
      const Cascade::Result r =
          cascade->prescreen(win, cascade_scratch, shard.cascade, ops);
      if (r.rejected) {
        map.predictions[idx] = r.prediction;
        map.scores[idx] = r.score;
        continue;
      }
    }
    for (std::size_t cy = 0; cy < cells_per_side; ++cy) {
      for (std::size_t cx = 0; cx < cells_per_side; ++cx) {
        ensure(gx0 + cx * gstep, gy0 + cy * gstep);
      }
    }
    shard.cache.slot_reads += scan.extractor.slots();
    if (cascade != nullptr) {
      win.reset(plane, ox, oy);
      const Cascade::Result r = cascade->classify(
          scan.pipeline.classifier(), win, cascade_scratch, shard.cascade, ops);
      map.predictions[idx] = r.prediction;
      map.scores[idx] = r.score;
    } else {
      core::Hypervector feature =
          scan.extractor.extract_from_plane(plane, ox, oy, ops);
      classify_window(scan.pipeline, scan.config, scan.positive_class, idx,
                      feature, map);
    }
  }
}

// Scan every window of `map` on a fully materialized plane.
void scan_prebuilt_plane(const PlaneScan& scan, DetectionMap& map) {
  run_scan(scan.pipeline, scan.config, map.predictions.size(),
           [&scan, &map](core::StochasticContext&, core::OpCounter* ops,
                         ScanShard& shard, std::size_t lo, std::size_t hi) {
             scan_windows(scan, [](std::size_t, std::size_t) {}, ops, shard,
                          lo, hi, map);
           });
}

// Scan every window of `map` on a lazy plane over `geometry`: a cell is
// encoded the first time any window reads it, and cells read only by
// prescreen-rejected windows are never encoded. Every cell reseeds from the
// same pure key as the eager build, so the map is bit-identical to kEager at
// any thread count: laziness changes when (and whether) a cell's bytes are
// computed, never the bytes. Threads write disjoint cells (the once-gate
// serializes racers per cell) and read only cells they ensured.
void scan_lazy_plane(const HdFacePipeline& pipeline,
                     const hog::HdHogExtractor& extractor,
                     const image::Image& scene, hog::CellPlane geometry,
                     const ParallelDetectConfig& config, int positive_class,
                     DetectionMap& map) {
  hog::LazyCellPlane lazy(std::move(geometry));
  const hog::CellPlane& plane = lazy.plane();
  const PlaneScan scan{pipeline, extractor, plane, config, positive_class};
  const auto encode = cell_encoder(pipeline, extractor, scene, config);
  run_scan(pipeline, config, map.predictions.size(),
           [&scan, &lazy, &plane, &encode, &map](
               core::StochasticContext& scratch, core::OpCounter* ops,
               ScanShard& shard, std::size_t lo, std::size_t hi) {
             const auto ensure = [&lazy, &plane, &encode, &scratch, &shard](
                                     std::size_t gx, std::size_t gy) {
               ++shard.cache.ensure_checks;
               lazy.ensure_cell(gx, gy, [&](double* out) {
                 encode(plane, gx, gy, scratch, out);
               });
             };
             scan_windows(scan, ensure, ops, shard, lo, hi, map);
           });
  if (config.cache_stats) {
    // Compute-side accounting from the materialization flags: the SET of
    // materialized cells is a pure function of (model, scene, table) — which
    // thread filled a cell varies, whether it got filled does not.
    config.cache_stats->cells_total += plane.cells();
    config.cache_stats->cells_computed += lazy.count_materialized(false);
    if (config.cascade != nullptr && config.cascade->has_prescreen()) {
      config.cache_stats->cells_forced_prescreen +=
          lazy.count_materialized(true);
    }
  }
}

void require_positive_class(const HdFacePipeline& pipeline,
                            int positive_class, const char* entry) {
  if (auto why = positive_class_error(pipeline, positive_class)) {
    throw std::invalid_argument(std::string(entry) + ": " + *why);
  }
}

}  // namespace

std::optional<std::string> positive_class_error(const HdFacePipeline& pipeline,
                                                int positive_class) {
  const std::size_t classes = pipeline.classifier().config().classes;
  if (positive_class >= 0 &&
      static_cast<std::size_t>(positive_class) < classes) {
    return std::nullopt;
  }
  return "positive_class " + std::to_string(positive_class) +
         " outside the classifier's classes [0, " + std::to_string(classes) +
         ")";
}

DetectionMap detect_windows_on_plane(HdFacePipeline& pipeline,
                                     const image::Image& scene,
                                     const hog::CellPlane& plane,
                                     std::size_t window, std::size_t stride,
                                     int positive_class,
                                     const ParallelDetectConfig& config) {
  require_positive_class(pipeline, positive_class, "detect_windows_on_plane");
  DetectionMap map = make_map_geometry(scene, window, stride);
  const hog::HdHogExtractor& extractor =
      require_hd_hog(pipeline, "detect_windows_on_plane");
  validate_plane_scan("detect_windows_on_plane", extractor, plane, map, config,
                      positive_class);
  pipeline.prepare_concurrent();
  scan_prebuilt_plane({pipeline, extractor, plane, config, positive_class},
                      map);
  return map;
}

hog::CellPlane build_scene_cell_plane(HdFacePipeline& pipeline,
                                      const image::Image& scene,
                                      std::size_t grid_step,
                                      const ParallelDetectConfig& config) {
  const hog::HdHogExtractor& extractor =
      require_hd_hog(pipeline, "build_scene_cell_plane");
  const hog::HogConfig& hog = extractor.config().hog;
  hog::CellPlane geometry = hog::make_cell_plane_geometry(
      scene.width(), scene.height(), hog.cell_size, hog.bins, grid_step,
      config.scale_index);
  pipeline.prepare_concurrent();
  return fill_cell_plane(pipeline, extractor, scene, std::move(geometry),
                         config);
}

DetectionMap detect_windows_parallel(HdFacePipeline& pipeline,
                                     const image::Image& scene,
                                     std::size_t window, std::size_t stride,
                                     int positive_class,
                                     const ParallelDetectConfig& config) {
  require_positive_class(pipeline, positive_class, "detect_windows_parallel");
  if (config.plane_mode == PlaneMode::kLazy &&
      config.encode_mode != EncodeMode::kCellPlane) {
    throw std::invalid_argument(
        "detect_windows_parallel: plane_mode kLazy requires "
        "EncodeMode::kCellPlane (the per-window encode has no plane to "
        "materialize)");
  }
  if (config.cascade != nullptr &&
      config.encode_mode == EncodeMode::kPerWindow) {
    throw std::invalid_argument(
        "detect_windows_parallel: a cascade requires EncodeMode::kCellPlane "
        "(the per-window encode has no prefix to stage)");
  }
  DetectionMap map = make_map_geometry(scene, window, stride);

  if (config.encode_mode == EncodeMode::kPerWindow) {
    pipeline.prepare_concurrent();
    const HdFacePipeline& frozen = pipeline;
    const std::uint64_t seed_base =
        core::mix64(pipeline.config().seed, kWindowStreamSalt);
    // Each window crops its patch and runs the full chain on the scratch
    // context reseeded from mix64(seed_base, idx): a pure function of
    // (pipeline, window pixels, window index).
    run_scan(frozen, config, map.predictions.size(),
             [&frozen, &scene, &config, &map, window, positive_class,
              seed_base](core::StochasticContext& scratch, core::OpCounter*,
                         ScanShard&, std::size_t lo, std::size_t hi) {
               image::Image patch;  // reused across the chunk's windows
               for (std::size_t idx = lo; idx < hi; ++idx) {
                 scratch.reseed(core::mix64(seed_base, idx));
                 image::crop_into(scene, (idx % map.steps_x) * map.stride,
                                  (idx / map.steps_x) * map.stride, window,
                                  window, patch);
                 core::Hypervector feature =
                     frozen.encode_image(patch, scratch);
                 classify_window(frozen, config, positive_class, idx, feature,
                                 map);
               }
             });
    return map;
  }

  const hog::HdHogExtractor& extractor =
      require_hd_hog(pipeline, "detect_windows_parallel");
  const hog::HogConfig& hog = extractor.config().hog;
  hog::CellPlane geometry = hog::make_cell_plane_geometry(
      scene.width(), scene.height(), hog.cell_size, hog.bins,
      std::gcd(stride, hog.cell_size), config.scale_index);
  validate_plane_scan("detect_windows_parallel", extractor, geometry, map,
                      config, positive_class);
  pipeline.prepare_concurrent();
  if (config.plane_mode == PlaneMode::kLazy) {
    scan_lazy_plane(pipeline, extractor, scene, std::move(geometry), config,
                    positive_class, map);
  } else {
    const hog::CellPlane plane = fill_cell_plane(
        pipeline, extractor, scene, std::move(geometry), config);
    scan_prebuilt_plane({pipeline, extractor, plane, config, positive_class},
                        map);
  }
  return map;
}

}  // namespace hdface::pipeline
