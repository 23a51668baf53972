#pragma once

// Encode-strategy knob and cache accounting for the batched detection
// engine, split out of parallel_detect.hpp so the public facade
// (api/detector.hpp) can carry them without pulling the engine (and its
// pipeline/thread-pool/cell-plane dependency cone).

#include <cstdint>

namespace hdface::pipeline {

// How the scan turns window pixels into feature hypervectors.
enum class EncodeMode {
  // Seed behavior: every window re-runs the full per-pixel stochastic chain
  // on its own reseeded scratch context.
  kPerWindow,
  // Scene-level cell-plane cache (hog/cell_plane.hpp): the per-pixel chain
  // runs once per grid cell of the whole scene, windows assemble from cached
  // cells. Roughly (window/stride)²-cheaper on the encode stage; results are
  // a (deterministically) different random stream than kPerWindow, still
  // bit-identical at every thread count. Requires an HD-HOG pipeline
  // (kOrigHogEncoder has no hypervector encode to cache — throws
  // std::invalid_argument).
  kCellPlane,
};

// How the cell-plane cache is populated (ignored by kPerWindow scans).
enum class PlaneMode {
  // Seed behavior: build_scene_cell_plane encodes EVERY grid cell up front.
  kEager,
  // Lazy materialization (hog/lazy_cell_plane.hpp): a cell's stochastic chain
  // runs the first time any window reads it. Bit-identical DetectionMaps to
  // kEager by construction (every cell reseeds from the same pure key); the
  // win is cells never read — with a prescreen-carrying cascade, cells that
  // belong only to prescreen-rejected windows are never encoded. Requires
  // EncodeMode::kCellPlane (throws std::invalid_argument otherwise).
  kLazy,
};

// Exact cache accounting for a cell-plane scan, merged from per-chunk shards
// after the scan — totals are identical at every thread count.
// The lazy-mode extras are exact too: the SET of materialized cells is a pure
// function of (model, scene, cascade table), not of scheduling, so its size
// and parity-subgrid slice are thread-count invariant.
struct EncodeCacheStats {
  // Cells whose stochastic chain actually ran (the compute side; in lazy mode
  // this is the materialized-cell count, ≤ cells_total).
  std::uint64_t cells_computed = 0;
  // Grid cells the plane geometry holds (eager mode computes all of them).
  // cells_computed / cells_total is the materialized fraction
  // (FastPathGates checks it stays below 0.6 on a sparse scene).
  std::uint64_t cells_total = 0;
  // Materialized cells on the even/even parity subgrid the cascade prescreen
  // reads — the cells the prescreen driver forced (lazy + prescreen scans
  // only; 0 otherwise).
  std::uint64_t cells_forced_prescreen = 0;
  // Lazy-mode materialization-gate probes (one per window × cell-it-reads).
  // 1 − cells_computed / ensure_checks is the plane hit rate: the fraction of
  // probes answered by an already-materialized cell.
  std::uint64_t ensure_checks = 0;
  // Cached (cell, bin) slot values consumed by window assembly (the hit
  // side; per_window mode would have recomputed each of these). A
  // prescreen-rejected window consumes only its parity-subset slots.
  std::uint64_t slot_reads = 0;
  std::uint64_t windows_assembled = 0;

  void merge(const EncodeCacheStats& other) {
    cells_computed += other.cells_computed;
    cells_total += other.cells_total;
    cells_forced_prescreen += other.cells_forced_prescreen;
    ensure_checks += other.ensure_checks;
    slot_reads += other.slot_reads;
    windows_assembled += other.windows_assembled;
  }
};

}  // namespace hdface::pipeline
