#pragma once

// Parallel batched detection engine.
//
// The sliding-window scan is embarrassingly parallel — the paper's whole
// pitch for HDC arithmetic (§4) is that it is "fully parallel" bitwise work.
// Every scan here is one kernel run by one runner:
//
//   * Kernels. A per-window scan crops each window and runs the full
//     stochastic chain on it. Every cell-plane scan — on a prebuilt plane
//     (detect_windows_on_plane, kEager) or a lazy one (kLazy) — runs one
//     window kernel that reads cells through a cell source: a prebuilt
//     plane's ensure(gx, gy) does nothing, a LazyCellPlane's encodes the
//     cell once. The same kernel scores exactly, or through a cascade with
//     or without its parity prescreen.
//   * Runner. util::parallel_for_sharded splits the grid into contiguous
//     chunks on util::ThreadPool (threads == 1 runs the same code as one
//     chunk on the caller). Each chunk gets a scratch StochasticContext
//     forked from the pipeline's (same basis V₁, same warmed mask pool) and
//     one cache-line-padded shard of {OpCounter, CascadeStats,
//     EncodeCacheStats}; the shards merge once, after the scan, into the
//     config's sinks.
//
// Determinism: every random draw restarts from a pure key — mix64(pipeline
// seed, window index) for a per-window encode, cell_plane_seed(seed, scale,
// gx, gy) for a cell — so a DetectionMap is a pure function of (pipeline
// state, scene, config), independent of thread count, chunk boundaries and
// scheduling: a 1-thread and an 8-thread run are bit-identical, and so are
// eager and lazy planes. Accounting is exact too: shard totals merge with
// integer adds, so every counter is equal at every thread count.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/op_counter.hpp"
#include "hog/cell_plane.hpp"
#include "image/image.hpp"
#include "noise/fault_model.hpp"
#include "pipeline/cascade_types.hpp"
#include "pipeline/detection.hpp"
#include "pipeline/encode_mode.hpp"
#include "pipeline/hdface_pipeline.hpp"
#include "util/thread_pool.hpp"

namespace hdface::pipeline {

class Cascade;

struct ParallelDetectConfig {
  // 0 = use every worker of the pool; 1 = serial (same code path and same
  // bit-exact results, just no dispatch).
  std::size_t threads = 0;
  // Windows per chunk floor: keeps per-chunk scratch setup amortized.
  std::size_t min_chunk = 4;
  // Pool to dispatch on; nullptr = util::global_pool().
  util::ThreadPool* pool = nullptr;
  // Optional feature-op accounting (merged shard totals; see file comment).
  core::OpCounter* feature_counter = nullptr;
  // Optional query-plane fault injection: when set and the plan targets
  // queries, each window's encoded hypervector is corrupted in flight via
  // noise::apply_query_fault before classification. The fault pattern is a
  // pure function of (plan seed, window index), so faulted scans keep the
  // engine's any-thread-count bit-identical contract. Stored-memory targets
  // of the plan are NOT injected here — scan a pipeline::faulted_copy for
  // those. Must outlive the call.
  const noise::FaultPlan* fault_plan = nullptr;
  // Encode strategy (see EncodeMode). kPerWindow reproduces the engine's
  // historical bit streams exactly; kCellPlane is the fast path.
  EncodeMode encode_mode = EncodeMode::kPerWindow;
  // Pyramid level this scan represents; part of the cell-plane reseed key so
  // every level of a multiscale scan draws an independent deterministic
  // stream (detect_multiscale sets it per level). Ignored by kPerWindow.
  std::size_t scale_index = 0;
  // Cell-plane population strategy (see PlaneMode): kEager builds the whole
  // plane before the scan, kLazy materializes each cell on its first window
  // read — bit-identical DetectionMaps, and with a prescreen-carrying
  // cascade most cells of a sparse scene are never encoded. kLazy requires
  // kCellPlane (throws std::invalid_argument otherwise) and is ignored by
  // detect_windows_on_plane (its caller-built plane is already materialized).
  PlaneMode plane_mode = PlaneMode::kEager;
  // Optional cell-plane cache accounting (exact totals at any thread count;
  // untouched in kPerWindow mode).
  EncodeCacheStats* cache_stats = nullptr;
  // Early-reject cascade (pipeline/cascade.hpp): when set, the cell-plane
  // scan scores every window through the cascade's calibrated prefix stages,
  // escalating only survivors to the exact full-D path. Survivor results are
  // bit-identical to a cascade-free scan; rejected windows report the prefix
  // verdict. Requires kCellPlane (the per-window encode has no cheap prefix)
  // and is incompatible with fault_plan (in-flight query faults need the
  // fully assembled feature) — both throw std::invalid_argument. The exact
  // cascade mode is represented by LEAVING this null: the scan then runs
  // today's path untouched. Must outlive the call.
  const Cascade* cascade = nullptr;
  // Optional cascade stage accounting, merged from per-chunk shards after
  // the scan (exact at any thread count; untouched when `cascade` is null).
  CascadeStats* cascade_stats = nullptr;
  // Per-pyramid-level stage accounting: detect_multiscale appends one entry
  // per kept scale, in pyramid order. Ignored by single-scale scans.
  std::vector<CascadeStats>* cascade_per_scale = nullptr;
};

// Build the scene-level cell-plane cache the kCellPlane scan uses: the raw
// per-(cell, bin) slot values over the whole scene's cell grid, every cell's
// scratch context reseeded from the pure key (pipeline seed, scale_index,
// gx, gy) — bit-identical at any thread count and reusable across scans of
// the same scene/scale (exposed for benches and tests; detect_windows_parallel
// builds one internally per call). `grid_step` must divide the extractor's
// cell size; pass gcd(stride, cell_size) to cover every window of a scan.
// Calls pipeline.prepare_concurrent() (the one mutation, before dispatch).
// Throws std::invalid_argument unless the pipeline runs HD-HOG.
hog::CellPlane build_scene_cell_plane(HdFacePipeline& pipeline,
                                      const image::Image& scene,
                                      std::size_t grid_step,
                                      const ParallelDetectConfig& config = {});

// Why a scan cannot score `positive_class`, or nullopt when it can: every
// scan reads classifier().scores()[positive_class], so it must name one of
// the classifier's classes. Each scan entry throws std::invalid_argument with
// this reason before any work; api::Detector returns it as a typed
// kInvalidOptions Error.
std::optional<std::string> positive_class_error(const HdFacePipeline& pipeline,
                                                int positive_class);

// Scan-stage entry for a PREBUILT cell plane: classify every window of the
// scan grid against `plane` without re-encoding the scene. This is exactly
// the post-plane half of the kCellPlane scan — a scan on a freshly built
// plane is bit-identical to detect_windows_parallel in kCellPlane mode, and
// config.cascade selects cascaded vs exact scoring just like there. Reuse a
// plane across scans of the SAME scene/scale (threshold sweeps, cascade-vs-
// exact comparisons, re-detection): the plane build is the scan's dominant
// fixed cost, and this entry is how callers amortize it. `scene` supplies
// only the scan-grid geometry (its pixels are not re-read). Throws
// std::invalid_argument on a positive_class outside the classes, zero
// geometry, a scene smaller than the window, a plane whose cell/bin shape
// mismatches the pipeline's extractor, or a plane too coarse/small to cover
// every window of the grid.
DetectionMap detect_windows_on_plane(HdFacePipeline& pipeline,
                                     const image::Image& scene,
                                     const hog::CellPlane& plane,
                                     std::size_t window, std::size_t stride,
                                     int positive_class,
                                     const ParallelDetectConfig& config = {});

// Scan `scene` with `window`-sized windows at `stride`, classifying each with
// the trained pipeline. Calls pipeline.prepare_concurrent() internally (the
// one mutation, before any dispatch). Throws std::invalid_argument on a
// positive_class outside the classes, zero geometry, a scene smaller than
// the window, or a lazy plane or cascade without kCellPlane.
DetectionMap detect_windows_parallel(HdFacePipeline& pipeline,
                                     const image::Image& scene,
                                     std::size_t window, std::size_t stride,
                                     int positive_class,
                                     const ParallelDetectConfig& config = {});

}  // namespace hdface::pipeline
