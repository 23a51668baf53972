#include "api/detector.hpp"

#include <stdexcept>
#include <utility>

#include "core/op_counter.hpp"
#include "dataset/dataset.hpp"
#include "image/pnm.hpp"
#include "pipeline/cascade.hpp"
#include "pipeline/fault_injection.hpp"
#include "pipeline/hdface_pipeline.hpp"
#include "pipeline/multiscale.hpp"
#include "pipeline/parallel_detect.hpp"

namespace hdface::api {

namespace {

// The legacy wrappers throw an options Error as InvalidOptionsError.
void throw_if_invalid(std::optional<Error> err) {
  if (err) throw InvalidOptionsError(std::move(*err));
}

// The engine config of one call. `cascade` is the per-call staged scorer
// (null for exact mode — the engine then runs the pre-cascade path
// untouched); it must outlive the scan the returned config drives.
pipeline::ParallelDetectConfig engine_config(const DetectOptions& options,
                                             const pipeline::Cascade* cascade) {
  pipeline::ParallelDetectConfig engine;
  engine.threads = options.threads;
  // The sinks point into caller-owned storage that outlives the call.
  if (options.telemetry) {
    engine.feature_counter = options.telemetry->feature_ops;
    engine.cache_stats = options.telemetry->encode_cache;
    engine.cascade_stats = options.telemetry->cascade;
    engine.cascade_per_scale = options.telemetry->cascade_per_scale;
  }
  // Points into the caller's options, which outlive the scan call.
  engine.fault_plan = options.fault_plan ? &*options.fault_plan : nullptr;
  engine.encode_mode = options.encode_mode;
  engine.plane_mode = options.plane_mode;
  engine.cascade = cascade;
  return engine;
}

// Runs scan(pipeline, engine config) for one validated call. A call whose
// fault plan targets stored memory scans a faulted copy of the pipeline
// (pipeline::faulted_copy), so the plan's stored-memory faults span the whole
// scan (every pyramid level of it) and the shared pipeline is only read. Any
// other call scans the shared pipeline; a query-only plan's faults land on
// each window's own query in the scan loop. A calibrated cascade request
// gets its per-call staged scorer. validate() rejects a cascade with a fault
// plan, so no call needs both. The Cascade constructor re-validates the
// table against the trained classifier (dim/classes/positive_class): a table
// calibrated for a different model throws std::invalid_argument — typed
// kInvalidOptions on the Request path.
template <typename Scan>
auto run_scan(pipeline::HdFacePipeline& pipeline, const DetectOptions& options,
              const Scan& scan) {
  if (options.fault_plan && options.fault_plan->targets_stored_memory()) {
    const pipeline::FaultedCopy faulted =
        pipeline::faulted_copy(pipeline, *options.fault_plan);
    return scan(*faulted.pipeline, engine_config(options, nullptr));
  }
  if (options.cascade &&
      options.cascade->mode == pipeline::CascadeMode::kCalibrated) {
    const pipeline::Cascade cascade(pipeline.classifier(),
                                    options.cascade->table);
    return scan(pipeline, engine_config(options, &cascade));
  }
  return scan(pipeline, engine_config(options, nullptr));
}

// The single-scale window map of one validated call.
pipeline::DetectionMap scan_map(pipeline::HdFacePipeline& pipeline,
                                const image::Image& scene, std::size_t window,
                                const DetectOptions& options) {
  return run_scan(pipeline, options,
                  [&](pipeline::HdFacePipeline& scanned,
                      const pipeline::ParallelDetectConfig& engine) {
                    return pipeline::detect_windows_parallel(
                        scanned, scene, window, options.stride,
                        options.positive_class, engine);
                  });
}

}  // namespace

Detector::Detector(std::shared_ptr<pipeline::HdFacePipeline> pipeline,
                   std::size_t window)
    : pipeline_(std::move(pipeline)), window_(window) {
  if (!pipeline_) throw std::invalid_argument("Detector: null pipeline");
  if (window_ == 0) throw std::invalid_argument("Detector: window 0");
}

void Detector::fit(const dataset::Dataset& train) { pipeline_->fit(train); }

double Detector::evaluate(const dataset::Dataset& test) {
  return pipeline_->evaluate(test);
}

int Detector::predict(const image::Image& window_img) {
  return pipeline_->predict(window_img);
}

std::optional<Error> Detector::check_options(
    const DetectOptions& options) const {
  if (auto err = validate(options)) return err;
  if (auto why =
          pipeline::positive_class_error(*pipeline_, options.positive_class)) {
    return Error::invalid_options("DetectOptions: " + *why);
  }
  return std::nullopt;
}

std::optional<Error> Detector::check(const Request& request) const {
  if (auto err = check_options(request.options)) return err;
  if (request.scene.width() < window_ || request.scene.height() < window_) {
    return Error::invalid_options(
        "Request: scene smaller than the detector window");
  }
  return std::nullopt;
}

pipeline::DetectionMap Detector::detect_map(const image::Image& scene,
                                            const DetectOptions& options) {
  throw_if_invalid(check_options(options));
  return scan_map(*pipeline_, scene, window_, options);
}

std::vector<pipeline::Detection> Detector::detect_validated(
    const image::Image& scene, const DetectOptions& options) {
  if (options.scales.size() == 1 && options.scales.front() == 1.0) {
    const pipeline::DetectionMap map =
        scan_map(*pipeline_, scene, window_, options);
    // NMS off: every positive window is its own box (the raw Fig 6 view);
    // iou_threshold > 1 means nothing ever suppresses.
    const double iou = options.nms ? options.nms_iou : 2.0;
    return pipeline::map_detections(map, options.positive_class,
                                    options.score_threshold, iou);
  }
  pipeline::MultiScaleConfig ms;
  ms.scales = options.scales;
  ms.stride = options.stride;
  ms.score_threshold = options.score_threshold;
  // The multiscale merge always suppresses cross-scale duplicates of one
  // face; options.nms_iou only tunes how aggressively.
  ms.iou_threshold = options.nms ? options.nms_iou : 0.3;
  return run_scan(*pipeline_, options,
                  [&](pipeline::HdFacePipeline& scanned,
                      const pipeline::ParallelDetectConfig& engine) {
                    return pipeline::detect_multiscale(
                        scanned, scene, window_, ms, options.positive_class,
                        engine);
                  });
}

std::vector<pipeline::Detection> Detector::detect(const image::Image& scene,
                                                  const DetectOptions& options) {
  throw_if_invalid(check_options(options));
  return detect_validated(scene, options);
}

Outcome<Response> Detector::detect(const Request& request) {
  if (auto err = check(request)) return std::move(*err);
  Response response;
  response.id = request.id;
  response.tenant = request.tenant;
  try {
    response.detections = detect_validated(request.scene, request.options);
  } catch (const std::invalid_argument& e) {
    // Engine-level rejections (encode mode unsupported by this pipeline,
    // a cascade table for another model, degenerate geometry) stay typed.
    return Error::invalid_options(e.what());
  } catch (const std::exception& e) {
    return Error::internal(e.what());
  }
  return response;
}

image::RgbImage Detector::render_overlay(const image::Image& scene,
                                         const pipeline::DetectionMap& map,
                                         int positive_class) const {
  return pipeline::render_overlay(scene, map, positive_class);
}

image::RgbImage Detector::render(
    const image::Image& scene,
    const std::vector<pipeline::Detection>& detections) const {
  return pipeline::render_detections(scene, detections);
}

// --- DetectorBuilder --------------------------------------------------------

namespace {

pipeline::HdFaceConfig default_builder_config() {
  pipeline::HdFaceConfig c;
  c.hog.cell_size = 4;
  return c;
}

}  // namespace

DetectorBuilder::DetectorBuilder()
    : config_(std::make_unique<pipeline::HdFaceConfig>(default_builder_config())) {}

DetectorBuilder::~DetectorBuilder() = default;

DetectorBuilder::DetectorBuilder(const DetectorBuilder& other)
    : window_(other.window_),
      classes_(other.classes_),
      config_(std::make_unique<pipeline::HdFaceConfig>(*other.config_)) {}

DetectorBuilder& DetectorBuilder::operator=(const DetectorBuilder& other) {
  if (this != &other) {
    window_ = other.window_;
    classes_ = other.classes_;
    *config_ = *other.config_;
  }
  return *this;
}

DetectorBuilder::DetectorBuilder(DetectorBuilder&&) noexcept = default;
DetectorBuilder& DetectorBuilder::operator=(DetectorBuilder&&) noexcept = default;

DetectorBuilder& DetectorBuilder::window(std::size_t w) {
  window_ = w;
  return *this;
}
DetectorBuilder& DetectorBuilder::classes(std::size_t c) {
  classes_ = c;
  return *this;
}
DetectorBuilder& DetectorBuilder::dim(std::size_t d) {
  config_->dim = d;
  return *this;
}
DetectorBuilder& DetectorBuilder::mode(pipeline::HdFaceMode m) {
  config_->mode = m;
  return *this;
}
DetectorBuilder& DetectorBuilder::hd_hog_mode(hog::HdHogMode m) {
  config_->hd_hog_mode = m;
  return *this;
}
DetectorBuilder& DetectorBuilder::cell_size(std::size_t c) {
  config_->hog.cell_size = c;
  return *this;
}
DetectorBuilder& DetectorBuilder::bins(std::size_t b) {
  config_->hog.bins = b;
  return *this;
}
DetectorBuilder& DetectorBuilder::epochs(std::size_t e) {
  config_->epochs = e;
  return *this;
}
DetectorBuilder& DetectorBuilder::seed(std::uint64_t s) {
  config_->seed = s;
  return *this;
}
DetectorBuilder& DetectorBuilder::config(const pipeline::HdFaceConfig& c) {
  *config_ = c;
  return *this;
}

Detector DetectorBuilder::build() const {
  if (classes_ < 2) throw std::invalid_argument("DetectorBuilder: classes < 2");
  if (config_->hog.cell_size == 0 || window_ % config_->hog.cell_size != 0) {
    // The HOG layers silently drop partial cells; at the facade a window that
    // is not a whole number of cells is almost certainly a typo.
    throw std::invalid_argument("DetectorBuilder: window not tiled by cell_size");
  }
  auto pipeline = std::make_shared<pipeline::HdFacePipeline>(
      *config_, window_, window_, classes_);
  return Detector(std::move(pipeline), window_);
}

}  // namespace hdface::api
