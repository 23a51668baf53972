#pragma once

// The system under test and the benchmark's inputs.
//
// The model (training set, calibration scenes) is fixed: every run of every
// workload measures the same trained detector. The seed varies only the
// inputs — scenes, planted faces, the served request stream and its arrival
// times — each a pure function of it.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string_view>
#include <vector>

#include "api/detector.hpp"
#include "pipeline/cascade_types.hpp"
#include "pipeline/detection.hpp"
#include "serve/load_gen.hpp"

namespace hdbench {

// Geometry shared by every workload.
inline constexpr std::size_t kDim = 4096;
inline constexpr std::size_t kWindow = 32;
inline constexpr std::size_t kStride = 8;

enum class WorkloadKind { kSparseScene, kServedMix };

std::optional<WorkloadKind> parse_workload(std::string_view name);

// Trained detector plus its calibrated cascade table (the same training and
// calibration bench/plane_encode uses).
struct Model {
  hdface::api::Detector detector;
  hdface::pipeline::CascadeTable table;
  double fit_s = 0.0;        // training data + fit + binarized prototypes
  double calibrate_s = 0.0;  // cascade calibration
};

Model build_model();

struct Box {
  std::size_t x = 0;
  std::size_t y = 0;
  std::size_t size = 0;
};

// Request kinds of the served mix, in serve::MixKind order (scan workloads
// send only kScene).
enum class Kind : std::uint8_t { kWindow = 0, kScene = 1, kFaulted = 2 };
inline constexpr std::size_t kKinds = 3;
inline constexpr const char* kKindNames[kKinds] = {"window", "scene",
                                                   "faulted"};

// One distinct input: a request, the faces planted in its scene, and the
// hash of the detections a direct Detector::detect call returns for it —
// computed once at setup; every later call must reproduce it.
struct Case {
  hdface::api::Request request;
  Kind kind = Kind::kScene;
  // False when the scene holds faces at positions the benchmark does not
  // know (the serving mix's scene scans); such cases stay out of Quality.
  bool faces_known = true;
  std::vector<Box> faces;
  std::uint64_t ref_hash = 0;
  std::vector<hdface::pipeline::Detection> ref_detections;
};

// Fault-plan scans on the cell-plane path must carry an encode-cache sink
// (api::validate); the sink must outlive the call.
void attach_cache_sink(hdface::api::Request& request,
                       hdface::pipeline::EncodeCacheStats* sink);

// FNV-1a over every detection's box and score bits.
std::uint64_t detections_hash(
    const std::vector<hdface::pipeline::Detection>& detections);

// sparse_scene: eight flat 384x288 scenes, two planted faces each, one
// scale, `threads` engine threads per call.
std::vector<Case> sparse_scene_cases(const Model& model, std::uint64_t seed,
                                     std::size_t threads);

// served_mix: the repository's serving mix — serve::RequestFactory with its
// default MixWeights (single windows, two-scale + NMS scene scans, fault-plan
// scans) and fault rate — with the options the benchmark pins on top: the
// cell-plane encode on every request, a lazy plane and the calibrated
// cascade on scene scans, and fault plans that target only the query
// hypervectors. Every phase of a run replays the same stream from index 0.
class ServedStream {
 public:
  ServedStream(const Model& model, std::uint64_t seed);

  // Request `index` of the stream; its id is `index`.
  hdface::api::Request make(std::uint64_t index) const;
  Kind kind_of(std::uint64_t index) const;

 private:
  const Model* model_;
  hdface::serve::RequestFactory factory_;
};

// One Case per distinct single-window and scene-scan input among the
// stream's first requests. A single window's face fills it, so its box is
// known; the factory's scene scans place their face internally. Fault-plan
// requests are left out: each carries its own fault seed, so each is its
// own input.
std::vector<Case> served_mix_cases(const ServedStream& stream);

// Runs every case once through a direct detect call and stores its
// reference detections. Returns false (with a message) if a call fails.
bool compute_references(Model& model, std::vector<Case>& cases);

// Reference hashes of direct Detector::detect calls, one per distinct input
// (scene pixels and fault-plan seed; a served request's other options follow
// from its kind).
class References {
 public:
  void add(const hdface::api::Request& request, std::uint64_t hash);
  // The reference of `request`, from a direct call the first time its input
  // is seen; nullopt (with a message) if that call fails.
  std::optional<std::uint64_t> get(Model& model,
                                   const hdface::api::Request& request);

 private:
  std::map<std::uint64_t, std::uint64_t> by_input_;
};

// Planted faces matched by a reference detection at IoU >= 0.5, and
// reference detections that match no planted face, over the cases whose
// faces are known.
struct Quality {
  std::size_t planted = 0;
  std::size_t matched = 0;
  std::size_t false_pos = 0;
  std::size_t scenes = 0;

  double recall() const;
  double false_pos_per_scene() const;
};
Quality reference_quality(const std::vector<Case>& cases);

// What the detector returns for a fixed input set: the workload's inputs at
// kGoldenSeed. The references above come from the build under test, so they
// only pin one of its paths to another; the golden pins every path to the
// detections recorded when this benchmark was written. Every run recomputes
// it and fails on any difference.
inline constexpr std::uint64_t kGoldenSeed = 0;
struct Golden {
  std::uint64_t hash = 0;  // over every case's reference hash, in order
  std::size_t matched = 0;
  std::size_t false_pos = 0;

  bool operator==(const Golden&) const = default;
};
Golden golden_of(const std::vector<Case>& cases);
Golden recorded_golden(WorkloadKind workload);

}  // namespace hdbench
