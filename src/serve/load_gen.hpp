#pragma once

// The repository's serving request mix: a RequestFactory turns (config,
// window, index) into one api::Request — a single window, a 3x-window
// multiscale scene, or a scene scanned under a query fault plan — with every
// field a pure function of its inputs. The benchmark's served workload
// (hdbench/) drives a DetectionServer with this stream and replays the same
// requests through direct Detector::detect calls to check that served
// results are bit-identical.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "api/types.hpp"
#include "image/image.hpp"

namespace hdface::serve {

// The three request shapes of the serving mix.
enum class MixKind : std::uint8_t {
  kSingleWindow = 0,    // window-sized scene: one classification
  kMultiscaleScene,     // 3x-window scene, two pyramid scales + NMS
  kFaultedQuery,        // single-scale scene scanned under a fault plan
};

struct MixWeights {
  double single_window = 0.6;
  double multiscale_scene = 0.25;
  double faulted_query = 0.15;
};

struct LoadGenConfig {
  std::uint64_t seed = 0x5E12E;
  MixWeights mix;
  // Distinct pre-rendered scenes per mix kind (requests index into the pool
  // deterministically; rendering stays off the submission path).
  std::size_t scene_pool = 4;
  // Requests carry tenant = index % tenants.
  std::size_t tenants = 1;
  // Base scan stride for every mix kind.
  std::size_t stride = 8;
  // Per-bit transient-flip rate of the faulted-query mix.
  double fault_rate = 2e-3;
};

// Deterministic request source. Scenes are rendered once at construction
// (seed-pure); make(i) assembles a Request whose every field — scene choice,
// mix kind, tenant, options, fault plan — is a pure function of
// (config.seed, i).
class RequestFactory {
 public:
  RequestFactory(std::size_t window, const LoadGenConfig& config);

  api::Request make(std::uint64_t index) const;
  MixKind kind_of(std::uint64_t index) const;
  const LoadGenConfig& config() const { return config_; }

 private:
  std::size_t window_;
  LoadGenConfig config_;
  std::vector<image::Image> window_scenes_;  // window-sized, one window each
  std::vector<image::Image> wide_scenes_;    // 3x window, multiscale/faulted
};

}  // namespace hdface::serve
