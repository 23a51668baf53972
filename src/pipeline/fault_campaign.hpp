#pragma once

// Fault-injection campaign runner: the end-to-end robustness sweep behind
// Table 2 and the §2 motivation numbers, generalized to the full fault
// taxonomy of noise/fault_model.hpp.
//
// A campaign sweeps a (subject × fault kind × error rate) grid. A *subject*
// is one trained detector — typically one dimensionality of the same
// workload — so a dimensionality sweep registers one subject per D. For each
// grid cell the runner:
//
//   1. derives the cell's FaultPlan seed with cell_seed() — a pure function
//      of (campaign seed, subject name, kind, rate), never of enumeration
//      order, so adding a rate or reordering kinds shifts no other cell;
//   2. builds a pipeline::faulted_copy of the subject (faults in its item
//      memories, mask pool and binarized prototypes; the subject itself is
//      only read);
//   3. measures window-classification accuracy over a held-out dataset, with
//      per-query transient faults applied in flight;
//   4. optionally scans a scene through the parallel detection engine and
//      scores the resulting boxes against ground-truth boxes (mean best-IoU).
//
// Parallelism: cells are independent (each evaluates its own copy) and run
// one after another, while the evaluation inside a cell fans out over
// util::parallel_for_sharded. Hit counts aggregate through its per-chunk
// shards (exact integer merge) and every per-sample encoding reseeds from
// the sample index, so a campaign's results are bit-identical at any thread
// count — the same determinism contract the clean detection engine makes.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataset/dataset.hpp"
#include "image/image.hpp"
#include "noise/fault_model.hpp"
#include "pipeline/hdface_pipeline.hpp"
#include "pipeline/multiscale.hpp"
#include "util/thread_pool.hpp"

namespace hdface::pipeline {

struct FaultCampaignConfig {
  std::vector<noise::FaultKind> kinds = {
      noise::FaultKind::kTransientFlip, noise::FaultKind::kStuckAtZero,
      noise::FaultKind::kStuckAtOne, noise::FaultKind::kWordBurst};
  // Include 0.0 to get the clean reference row (same binary-inference mode
  // as the faulted cells, so the comparison isolates the faults).
  std::vector<double> rates = {0.0, 0.02, 0.05, 0.10, 0.15};
  std::uint64_t seed = 0xCA4A16;
  // Which storage planes every cell's plan targets.
  bool item_memory = true;
  bool prototypes = true;
  bool queries = true;
  // Evaluation parallelism (same conventions as ParallelDetectConfig).
  std::size_t threads = 0;
  std::size_t min_chunk = 4;
  util::ThreadPool* pool = nullptr;
  // Scene-scan settings (used only when run() is given a scene).
  std::size_t stride = 8;
  double score_threshold = 0.0;
  double nms_iou = 0.3;
  int positive_class = 1;
};

struct FaultCampaignCell {
  std::string subject;
  std::size_t dim = 0;
  noise::FaultKind kind = noise::FaultKind::kTransientFlip;
  double rate = 0.0;
  std::uint64_t plan_seed = 0;

  // Window-classification accuracy over the held-out set under fault.
  double accuracy = 0.0;
  std::uint64_t samples = 0;

  // Scene detection quality: mean over truth boxes of the best IoU any
  // detection achieves. Only meaningful when has_scene is set.
  bool has_scene = false;
  double mean_best_iou = 0.0;
  std::size_t num_detections = 0;

  // Empirical disturbance of the stored planes (from the faulted copy), for
  // sanity-checking the sweep against expected_disturbed_fraction.
  std::uint64_t disturbed_bits = 0;
  std::uint64_t faultable_bits = 0;
};

class FaultCampaign {
 public:
  explicit FaultCampaign(const FaultCampaignConfig& config = {});

  // Register one trained detector as a grid subject. The pipeline must stay
  // alive (and untrained-upon) for the duration of run().
  void add_subject(std::string name, std::shared_ptr<HdFacePipeline> pipeline,
                   std::size_t window);

  std::size_t num_subjects() const { return subjects_.size(); }
  const FaultCampaignConfig& config() const { return config_; }

  // Sweep the full grid. Cells come back in (subject, kind, rate) order.
  std::vector<FaultCampaignCell> run(const dataset::Dataset& test);
  std::vector<FaultCampaignCell> run(const dataset::Dataset& test,
                                     const image::Image& scene,
                                     const std::vector<Detection>& truth);

  // The cell seed schedule — exposed so tests can pin individual cells.
  static std::uint64_t cell_seed(std::uint64_t campaign_seed,
                                 const std::string& subject,
                                 noise::FaultKind kind, double rate);

 private:
  struct Subject {
    std::string name;
    std::shared_ptr<HdFacePipeline> pipeline;
    std::size_t window;
  };

  std::vector<FaultCampaignCell> run_impl(const dataset::Dataset& test,
                                          const image::Image* scene,
                                          const std::vector<Detection>* truth);
  FaultCampaignCell evaluate_cell(Subject& subject, const noise::FaultPlan& plan,
                                  const dataset::Dataset& test,
                                  const image::Image* scene,
                                  const std::vector<Detection>* truth,
                                  util::ThreadPool& pool);

  FaultCampaignConfig config_;
  std::vector<Subject> subjects_;
};

}  // namespace hdface::pipeline
