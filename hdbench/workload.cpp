#include "workload.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <set>
#include <utility>

#include "core/rng.hpp"
#include "dataset/face_generator.hpp"
#include "image/draw.hpp"
#include "image/transform.hpp"
#include "measure.hpp"
#include "noise/fault_model.hpp"
#include "pipeline/cascade.hpp"
#include "pipeline/hdface_pipeline.hpp"
#include "pipeline/multiscale.hpp"

namespace hdbench {

using namespace hdface;

namespace {

// Salts separating the seed streams of each input family.
constexpr std::uint64_t kSparseSalt = 0x5BA2'5E00ULL;
constexpr std::uint64_t kServedSalt = 0x5E2F'ED00ULL;

constexpr std::size_t kSceneW = 384;
constexpr std::size_t kSceneH = 288;
constexpr std::size_t kFacesPerScene = 2;
// Served requests alternate between two tenants (index % 2).
constexpr std::size_t kTenants = 2;
// Distinct pre-rendered scenes per served kind (the factory's default is
// 4): a scene scan's cost hinges on its clutter, and more scenes keep the
// mix's mean cost about the same at every seed.
constexpr std::size_t kScenePool = 32;
// Stream prefix served_mix_cases reads; at every seed it meets each of the
// kScenePool scenes of both kinds.
constexpr std::uint64_t kCasePrefix = 2000;

// FNV-1a, one byte at a time.
class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFULL;
      h_ *= 1099511628211ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

// What makes two served requests the same input: the scene's pixels and the
// fault-plan seed.
std::uint64_t input_key(const api::Request& request) {
  Fnv f;
  f.mix(request.scene.width());
  f.mix(request.scene.height());
  for (const float p : request.scene.pixels()) {
    f.mix(std::bit_cast<std::uint32_t>(p));
  }
  const auto& plan = request.options.fault_plan;
  f.mix(plan ? 1 : 0);
  f.mix(plan ? plan->seed : 0);
  return f.value();
}

std::optional<std::vector<pipeline::Detection>> direct_detect(
    Model& model, api::Request request) {
  pipeline::EncodeCacheStats sink;
  if (request.options.fault_plan) attach_cache_sink(request, &sink);
  auto outcome = model.detector.detect(request);
  if (!outcome.ok()) {
    std::printf("FAIL: direct detect of request %llu: %s\n",
                static_cast<unsigned long long>(request.id),
                outcome.error().message.c_str());
    return std::nullopt;
  }
  return std::move(outcome).take().detections;
}

// Training-distribution face windows (jittered, blurred, noisy positives).
std::vector<image::Image> dataset_faces(std::size_t count, std::uint64_t seed) {
  auto cfg = dataset::face2_config(2 * count, seed);
  cfg.image_size = kWindow;
  const dataset::Dataset data = dataset::make_face_dataset(cfg);
  std::vector<image::Image> faces;
  for (std::size_t i = 0; i < data.size() && faces.size() < count; ++i) {
    if (data.labels[i] == 1) faces.push_back(data.images[i]);
  }
  return faces;
}

bool overlaps(const Box& a, const Box& b, std::size_t gap) {
  return a.x < b.x + b.size + gap && b.x < a.x + a.size + gap &&
         a.y < b.y + b.size + gap && b.y < a.y + a.size + gap;
}

// Non-overlapping window-sized boxes, origins on the stride grid.
std::vector<Box> place_boxes(std::size_t count, core::Rng& rng) {
  std::vector<Box> boxes;
  for (std::size_t n = 0; n < count; ++n) {
    for (int attempt = 0; attempt < 1000; ++attempt) {
      Box b;
      b.size = kWindow;
      b.x = rng.below((kSceneW - kWindow) / kStride + 1) * kStride;
      b.y = rng.below((kSceneH - kWindow) / kStride + 1) * kStride;
      bool clear = true;
      for (const Box& o : boxes) clear = clear && !overlaps(b, o, kStride);
      if (clear) {
        boxes.push_back(b);
        break;
      }
    }
  }
  return boxes;
}

pipeline::Detection as_detection(const Box& b) {
  pipeline::Detection d;
  d.x = b.x;
  d.y = b.y;
  d.size = b.size;
  return d;
}

// A flat mid-grey scene with training-distribution faces pasted at
// stride-aligned positions (the paper's scan setting: faces are rare).
Case flat_scene_case(std::uint64_t seed) {
  core::Rng rng(seed);
  Case c;
  c.request.scene = image::Image(kSceneW, kSceneH, 0.5f);
  c.faces = place_boxes(kFacesPerScene, rng);
  const auto faces = dataset_faces(c.faces.size(), rng.next());
  for (std::size_t f = 0; f < c.faces.size(); ++f) {
    image::paste(c.request.scene, faces[f],
                 static_cast<std::ptrdiff_t>(c.faces[f].x),
                 static_cast<std::ptrdiff_t>(c.faces[f].y));
  }
  return c;
}

// Cold single-scale cell-plane scan: lazy plane + calibrated cascade.
api::DetectOptions scan_options(const Model& model, std::size_t threads) {
  api::DetectOptions o;
  o.threads = threads;
  o.stride = kStride;
  o.encode_mode = pipeline::EncodeMode::kCellPlane;
  o.plane_mode = pipeline::PlaneMode::kLazy;
  o.cascade = pipeline::CascadeConfig{pipeline::CascadeMode::kCalibrated,
                                      model.table};
  return o;
}

serve::LoadGenConfig stream_config(std::uint64_t seed) {
  serve::LoadGenConfig cfg;
  cfg.seed = core::mix64(seed, kServedSalt);
  cfg.scene_pool = kScenePool;
  cfg.tenants = kTenants;
  cfg.stride = kStride;
  return cfg;
}

}  // namespace

std::optional<WorkloadKind> parse_workload(std::string_view name) {
  if (name == "sparse_scene") return WorkloadKind::kSparseScene;
  if (name == "served_mix") return WorkloadKind::kServedMix;
  return std::nullopt;
}

Model build_model() {
  const auto t0 = Clock::now();
  pipeline::HdFaceConfig cfg;
  cfg.dim = kDim;
  cfg.hog.cell_size = 4;
  cfg.hog.bins = 8;
  cfg.epochs = 30;
  api::Detector det =
      api::DetectorBuilder().window(kWindow).dim(kDim).config(cfg).build();
  auto train_cfg = dataset::face2_config(400, 42);
  train_cfg.image_size = kWindow;
  det.fit(dataset::make_face_dataset(train_cfg));
  det.pipeline()->mutable_classifier().set_binary_override(
      det.pipeline()->classifier().binary_prototypes());
  const double fit_ms = ms_since(t0);

  const auto t1 = Clock::now();
  const auto calib_scenes = pipeline::cascade_calibration_scenes(
      2, kWindow, kSceneW, kSceneH, 2, 0xCAFE);
  pipeline::CascadeCalibrationConfig cc;
  cc.stage_fractions = {0.0625, 0.125, 0.25, 0.5};
  cc.slack = 0.001;
  cc.window = kWindow;
  cc.stride = kStride;
  cc.prescreen = true;
  cc.prescreen_fraction = 0.25;
  pipeline::CascadeTable table =
      pipeline::calibrate_cascade(*det.pipeline(), calib_scenes, cc);
  const double calibrate_ms = ms_since(t1);
  return Model{std::move(det), std::move(table), fit_ms / 1e3,
               calibrate_ms / 1e3};
}

void attach_cache_sink(api::Request& request,
                       pipeline::EncodeCacheStats* sink) {
  api::Telemetry telemetry;
  telemetry.encode_cache = sink;
  request.options.telemetry = telemetry;
}

std::uint64_t detections_hash(
    const std::vector<pipeline::Detection>& detections) {
  Fnv f;
  f.mix(detections.size());
  for (const pipeline::Detection& d : detections) {
    f.mix(d.x);
    f.mix(d.y);
    f.mix(d.size);
    f.mix(std::bit_cast<std::uint64_t>(d.score));
  }
  return f.value();
}

std::vector<Case> sparse_scene_cases(const Model& model, std::uint64_t seed,
                                     std::size_t threads) {
  std::vector<Case> cases;
  for (std::uint64_t k = 0; k < 8; ++k) {
    Case c = flat_scene_case(core::mix64(core::mix64(seed, kSparseSalt), k));
    c.request.id = k;
    c.request.options = scan_options(model, threads);
    cases.push_back(std::move(c));
  }
  return cases;
}

ServedStream::ServedStream(const Model& model, std::uint64_t seed)
    : model_(&model), factory_(kWindow, stream_config(seed)) {}

Kind ServedStream::kind_of(std::uint64_t index) const {
  switch (factory_.kind_of(index)) {
    case serve::MixKind::kSingleWindow: return Kind::kWindow;
    case serve::MixKind::kMultiscaleScene: return Kind::kScene;
    case serve::MixKind::kFaultedQuery: return Kind::kFaulted;
  }
  return Kind::kWindow;
}

api::Request ServedStream::make(std::uint64_t index) const {
  api::Request request = factory_.make(index);
  request.options.encode_mode = pipeline::EncodeMode::kCellPlane;
  if (kind_of(index) == Kind::kScene) {
    request.options.plane_mode = pipeline::PlaneMode::kLazy;
    request.options.cascade = pipeline::CascadeConfig{
        pipeline::CascadeMode::kCalibrated, model_->table};
  }
  if (request.options.fault_plan) {
    // Stored-memory faults stay off: sampling their masks costs ~0.2 s per
    // request under the server's exclusive model lock, and
    // FaultSession::restore() clears the binary prototype override the
    // model is deployed with instead of restoring it.
    request.options.fault_plan->item_memory = false;
    request.options.fault_plan->prototypes = false;
  }
  return request;
}

std::vector<Case> served_mix_cases(const ServedStream& stream) {
  std::vector<Case> cases;
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < kCasePrefix; ++i) {
    const Kind kind = stream.kind_of(i);
    if (kind == Kind::kFaulted) continue;
    api::Request request = stream.make(i);
    if (!seen.insert(input_key(request)).second) continue;
    Case c;
    c.kind = kind;
    c.request = std::move(request);
    c.faces_known = kind == Kind::kWindow;
    if (c.faces_known) c.faces.push_back({0, 0, kWindow});
    cases.push_back(std::move(c));
  }
  return cases;
}

bool compute_references(Model& model, std::vector<Case>& cases) {
  for (Case& c : cases) {
    auto detections = direct_detect(model, c.request);
    if (!detections) return false;
    c.ref_detections = std::move(*detections);
    c.ref_hash = detections_hash(c.ref_detections);
  }
  return true;
}

void References::add(const api::Request& request, std::uint64_t hash) {
  by_input_.emplace(input_key(request), hash);
}

std::optional<std::uint64_t> References::get(Model& model,
                                             const api::Request& request) {
  const std::uint64_t key = input_key(request);
  if (const auto it = by_input_.find(key); it != by_input_.end()) {
    return it->second;
  }
  const auto detections = direct_detect(model, request);
  if (!detections) return std::nullopt;
  const std::uint64_t hash = detections_hash(*detections);
  by_input_.emplace(key, hash);
  return hash;
}

double Quality::recall() const {
  return planted == 0 ? 0.0
                      : static_cast<double>(matched) /
                            static_cast<double>(planted);
}

double Quality::false_pos_per_scene() const {
  return static_cast<double>(false_pos) /
         static_cast<double>(std::max<std::size_t>(1, scenes));
}

Quality reference_quality(const std::vector<Case>& cases) {
  Quality q;
  for (const Case& c : cases) {
    if (!c.faces_known) continue;
    q.scenes += 1;
    q.planted += c.faces.size();
    for (const Box& face : c.faces) {
      for (const pipeline::Detection& d : c.ref_detections) {
        if (pipeline::box_iou(d, as_detection(face)) >= 0.5) {
          q.matched += 1;
          break;
        }
      }
    }
    for (const pipeline::Detection& d : c.ref_detections) {
      bool matched = false;
      for (const Box& face : c.faces) {
        matched = matched || pipeline::box_iou(d, as_detection(face)) >= 0.5;
      }
      q.false_pos += matched ? 0 : 1;
    }
  }
  return q;
}

Golden golden_of(const std::vector<Case>& cases) {
  Fnv f;
  for (const Case& c : cases) f.mix(c.ref_hash);
  const Quality q = reference_quality(cases);
  return Golden{f.value(), q.matched, q.false_pos};
}

Golden recorded_golden(WorkloadKind workload) {
  switch (workload) {
    case WorkloadKind::kSparseScene: return {0x2b89be415e0fefa6ULL, 10, 0};
    case WorkloadKind::kServedMix: return {0xe019e229849b53bcULL, 24, 0};
  }
  return {};
}

}  // namespace hdbench
