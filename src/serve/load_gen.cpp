#include "serve/load_gen.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/rng.hpp"
#include "dataset/background_generator.hpp"
#include "dataset/face_generator.hpp"
#include "image/transform.hpp"
#include "util/check.hpp"

namespace hdface::serve {

namespace {

constexpr std::uint64_t kSceneSalt = 0x5CEC3;
constexpr std::uint64_t kKindSalt = 0x417D;
constexpr std::uint64_t kFaultSalt = 0xFA017;

// A window-or-wider scene with clutter and one planted face — enough signal
// that detection results are non-trivial, cheap enough to render a pool at
// factory construction.
image::Image render_scene(std::size_t side, std::size_t window,
                          std::uint64_t seed) {
  image::Image scene(side, side, 0.5f);
  core::Rng rng(seed);
  dataset::render_background(scene, dataset::BackgroundKind::kMixed, rng);
  const std::size_t max_off = side - window;
  const std::size_t fx = max_off == 0 ? 0 : rng.below(max_off + 1);
  const std::size_t fy = max_off == 0 ? 0 : rng.below(max_off + 1);
  image::paste(scene, dataset::render_face_window(window, rng.next()),
               static_cast<std::ptrdiff_t>(fx), static_cast<std::ptrdiff_t>(fy));
  return scene;
}

}  // namespace

RequestFactory::RequestFactory(std::size_t window, const LoadGenConfig& config)
    : window_(window), config_(config) {
  HD_CHECK(window_ > 0, "RequestFactory: window 0");
  const std::size_t pool = std::max<std::size_t>(1, config_.scene_pool);
  window_scenes_.reserve(pool);
  wide_scenes_.reserve(pool);
  for (std::size_t i = 0; i < pool; ++i) {
    window_scenes_.push_back(
        render_scene(window_, window_, core::mix64(config_.seed, kSceneSalt + 2 * i)));
    wide_scenes_.push_back(render_scene(
        3 * window_, window_, core::mix64(config_.seed, kSceneSalt + 2 * i + 1)));
  }
}

MixKind RequestFactory::kind_of(std::uint64_t index) const {
  core::Rng rng(core::mix64(core::mix64(config_.seed, kKindSalt), index));
  const double total = config_.mix.single_window + config_.mix.multiscale_scene +
                       config_.mix.faulted_query;
  if (total <= 0.0) return MixKind::kSingleWindow;
  const double u = rng.uniform() * total;
  if (u < config_.mix.single_window) return MixKind::kSingleWindow;
  if (u < config_.mix.single_window + config_.mix.multiscale_scene) {
    return MixKind::kMultiscaleScene;
  }
  return MixKind::kFaultedQuery;
}

api::Request RequestFactory::make(std::uint64_t index) const {
  api::Request request;
  request.id = index;
  request.tenant = static_cast<std::uint32_t>(
      index % std::max<std::size_t>(1, config_.tenants));
  request.options.threads = 1;
  request.options.stride = config_.stride;

  core::Rng rng(core::mix64(core::mix64(config_.seed, kSceneSalt), index));
  switch (kind_of(index)) {
    case MixKind::kSingleWindow:
      request.scene = window_scenes_[rng.below(window_scenes_.size())];
      // One window: the scene IS the window.
      request.options.stride = window_;
      break;
    case MixKind::kMultiscaleScene:
      request.scene = wide_scenes_[rng.below(wide_scenes_.size())];
      request.options.scales = {1.0, 0.5};
      request.options.nms = true;
      break;
    case MixKind::kFaultedQuery: {
      request.scene = wide_scenes_[rng.below(wide_scenes_.size())];
      noise::FaultPlan plan;
      plan.model.kind = noise::FaultKind::kTransientFlip;
      plan.model.rate = config_.fault_rate;
      plan.seed = core::mix64(core::mix64(config_.seed, kFaultSalt), index);
      request.options.fault_plan = plan;
      break;
    }
  }
  return request;
}

}  // namespace hdface::serve
