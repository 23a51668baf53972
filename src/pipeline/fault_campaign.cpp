#include "pipeline/fault_campaign.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/rng.hpp"
#include "pipeline/fault_injection.hpp"
#include "pipeline/parallel_detect.hpp"

namespace hdface::pipeline {

namespace {

// Salt separating the campaign's per-sample encoding streams from every
// other consumer of the plan seed.
constexpr std::uint64_t kEvalStreamSalt = 0xE7A1CA4AULL;

}  // namespace

FaultCampaign::FaultCampaign(const FaultCampaignConfig& config)
    : config_(config) {
  if (config_.kinds.empty()) {
    throw std::invalid_argument("FaultCampaign: no fault kinds");
  }
  if (config_.rates.empty()) {
    throw std::invalid_argument("FaultCampaign: no rates");
  }
  for (double r : config_.rates) {
    if (!noise::valid_rate(r)) {
      throw std::invalid_argument("FaultCampaign: rate outside [0, 1]");
    }
  }
}

void FaultCampaign::add_subject(std::string name,
                                std::shared_ptr<HdFacePipeline> pipeline,
                                std::size_t window) {
  if (!pipeline) throw std::invalid_argument("FaultCampaign: null pipeline");
  if (window == 0) throw std::invalid_argument("FaultCampaign: window 0");
  subjects_.push_back(Subject{std::move(name), std::move(pipeline), window});
}

std::uint64_t FaultCampaign::cell_seed(std::uint64_t campaign_seed,
                                       const std::string& subject,
                                       noise::FaultKind kind, double rate) {
  // Pure function of the cell's identity — never of enumeration order.
  std::uint64_t h = core::mix64(campaign_seed, 0xCE11ULL);
  for (const char c : subject) {
    h = core::mix64(h, static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  h = core::mix64(h, static_cast<std::uint64_t>(kind));
  std::uint64_t rate_bits = 0;
  static_assert(sizeof(rate_bits) == sizeof(rate));
  std::memcpy(&rate_bits, &rate, sizeof(rate_bits));
  return core::mix64(h, rate_bits);
}

std::vector<FaultCampaignCell> FaultCampaign::run(const dataset::Dataset& test) {
  return run_impl(test, nullptr, nullptr);
}

std::vector<FaultCampaignCell> FaultCampaign::run(
    const dataset::Dataset& test, const image::Image& scene,
    const std::vector<Detection>& truth) {
  return run_impl(test, &scene, &truth);
}

std::vector<FaultCampaignCell> FaultCampaign::run_impl(
    const dataset::Dataset& test, const image::Image* scene,
    const std::vector<Detection>* truth) {
  if (subjects_.empty()) throw std::logic_error("FaultCampaign: no subjects");
  if (test.images.empty() || test.images.size() != test.labels.size()) {
    throw std::invalid_argument("FaultCampaign: bad test set");
  }

  // One pool serves every cell (same resolution rules as the detection
  // engine: caller pool > explicit thread count > global pool).
  util::ThreadPool* pool = config_.pool;
  std::unique_ptr<util::ThreadPool> local_pool;
  if (pool == nullptr) {
    if (config_.threads == 0) {
      pool = &util::global_pool();
    } else {
      local_pool = std::make_unique<util::ThreadPool>(config_.threads);
      pool = local_pool.get();
    }
  }

  std::vector<FaultCampaignCell> cells;
  cells.reserve(subjects_.size() * config_.kinds.size() * config_.rates.size());
  // Each cell evaluates its own faulted copy of the subject; all
  // parallelism lives inside evaluate_cell.
  for (auto& subject : subjects_) {
    for (const auto kind : config_.kinds) {
      for (const double rate : config_.rates) {
        noise::FaultPlan plan;
        plan.model = noise::FaultModel{kind, rate};
        plan.seed = cell_seed(config_.seed, subject.name, kind, rate);
        plan.item_memory = config_.item_memory;
        plan.prototypes = config_.prototypes;
        plan.queries = config_.queries;
        cells.push_back(
            evaluate_cell(subject, plan, test, scene, truth, *pool));
      }
    }
  }
  return cells;
}

FaultCampaignCell FaultCampaign::evaluate_cell(
    Subject& subject, const noise::FaultPlan& plan,
    const dataset::Dataset& test, const image::Image* scene,
    const std::vector<Detection>* truth, util::ThreadPool& pool) {
  FaultCampaignCell cell;
  cell.subject = subject.name;
  cell.dim = subject.pipeline->config().dim;
  cell.kind = plan.model.kind;
  cell.rate = plan.model.rate;
  cell.plan_seed = plan.seed;
  cell.samples = test.images.size();

  // Fault one copy; both the accuracy pass and the scene scan read its
  // faulted storage, exactly like a deployed detector with bad cells.
  const FaultedCopy faulted = faulted_copy(*subject.pipeline, plan);
  cell.disturbed_bits = faulted.disturbed_bits;
  cell.faultable_bits = faulted.faultable_bits;
  HdFacePipeline& pipe = *faulted.pipeline;

  // --- window-classification accuracy --------------------------------------
  // Per-sample reseed makes every encoding a pure function of (pipeline,
  // image, sample index); integer hit shards merge exactly. Both are
  // independent of chunk boundaries, so accuracy is bit-identical at any
  // thread count.
  const std::uint64_t eval_base = core::mix64(plan.seed, kEvalStreamSalt);
  const std::size_t total = test.images.size();
  const std::uint64_t hits = util::parallel_for_sharded<std::uint64_t>(
      &pool, 0, total, config_.min_chunk,
      [&pipe, &plan, &test, eval_base](std::uint64_t& shard, std::size_t lo,
                                       std::size_t hi) {
        core::StochasticContext scratch =
            pipe.fork_context(core::mix64(eval_base, lo));
        for (std::size_t i = lo; i < hi; ++i) {
          scratch.reseed(core::mix64(eval_base, i));
          core::Hypervector feature =
              pipe.encode_image(test.images[i], scratch);
          noise::apply_query_fault(plan, i, feature);
          const auto scores = pipe.classifier().scores(feature);
          const auto pred = static_cast<int>(
              std::max_element(scores.begin(), scores.end()) - scores.begin());
          if (pred == test.labels[i]) ++shard;
        }
      });
  cell.accuracy = static_cast<double>(hits) / static_cast<double>(total);

  // --- scene detection quality ---------------------------------------------
  if (scene != nullptr) {
    cell.has_scene = true;
    ParallelDetectConfig engine;
    engine.pool = &pool;
    engine.min_chunk = config_.min_chunk;
    engine.fault_plan = &plan;
    const DetectionMap map = detect_windows_parallel(
        pipe, *scene, subject.window, config_.stride, config_.positive_class,
        engine);
    const auto boxes =
        map_detections(map, config_.positive_class, config_.score_threshold,
                       config_.nms_iou);
    cell.num_detections = boxes.size();
    if (truth != nullptr && !truth->empty()) {
      double sum = 0.0;
      for (const auto& t : *truth) {
        double best = 0.0;
        for (const auto& d : boxes) best = std::max(best, box_iou(t, d));
        sum += best;
      }
      cell.mean_best_iou = sum / static_cast<double>(truth->size());
    }
  }
  return cell;
}

}  // namespace hdface::pipeline
