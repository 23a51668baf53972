#include "pipeline/multiscale.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "image/transform.hpp"

namespace hdface::pipeline {

double box_iou(const Detection& a, const Detection& b) {
  const double ax1 = static_cast<double>(a.x) + a.size;
  const double ay1 = static_cast<double>(a.y) + a.size;
  const double bx1 = static_cast<double>(b.x) + b.size;
  const double by1 = static_cast<double>(b.y) + b.size;
  const double ix = std::max(0.0, std::min(ax1, bx1) -
                                      std::max<double>(a.x, b.x));
  const double iy = std::max(0.0, std::min(ay1, by1) -
                                      std::max<double>(a.y, b.y));
  const double inter = ix * iy;
  const double uni = static_cast<double>(a.size) * a.size +
                     static_cast<double>(b.size) * b.size - inter;
  return uni > 0.0 ? inter / uni : 0.0;
}

bool detection_before(const Detection& a, const Detection& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.y != b.y) return a.y < b.y;
  if (a.x != b.x) return a.x < b.x;
  return a.size < b.size;
}

std::vector<Detection> non_max_suppression(std::vector<Detection> detections,
                                           double iou_threshold) {
  std::sort(detections.begin(), detections.end(), detection_before);
  std::vector<Detection> kept;
  for (const auto& d : detections) {
    bool suppressed = false;
    for (const auto& k : kept) {
      if (box_iou(d, k) > iou_threshold) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) kept.push_back(d);
  }
  return kept;
}

std::vector<Detection> map_detections(const DetectionMap& map,
                                      int positive_class,
                                      double score_threshold,
                                      double iou_threshold) {
  std::vector<Detection> boxes;
  for (std::size_t sy = 0; sy < map.steps_y; ++sy) {
    for (std::size_t sx = 0; sx < map.steps_x; ++sx) {
      const std::size_t idx = sy * map.steps_x + sx;
      if (map.predictions[idx] != positive_class) continue;
      if (map.scores[idx] < score_threshold) continue;
      boxes.push_back(Detection{sx * map.stride, sy * map.stride, map.window,
                                map.scores[idx]});
    }
  }
  auto kept = non_max_suppression(std::move(boxes), iou_threshold);
  std::sort(kept.begin(), kept.end(), detection_before);
  return kept;
}

image::RgbImage render_detections(const image::Image& scene,
                                  const std::vector<Detection>& detections) {
  image::RgbImage rgb = image::to_rgb(scene);
  auto mark = [&](std::size_t x, std::size_t y) {
    if (x >= rgb.width || y >= rgb.height) return;
    auto& px = rgb.at(x, y);
    px = {60, 120, 255};
  };
  for (const auto& d : detections) {
    for (std::size_t i = 0; i <= d.size; ++i) {
      mark(d.x + i, d.y);
      mark(d.x + i, d.y + d.size);
      mark(d.x, d.y + i);
      mark(d.x + d.size, d.y + i);
    }
  }
  return rgb;
}

image::RgbImage render_overlay(const image::Image& scene,
                               const DetectionMap& map, int positive_class) {
  if (map.window == 0 || map.stride == 0) {
    throw std::invalid_argument("render_overlay: zero window or stride");
  }
  // The last window's far edge bounds every other window's; compared in
  // the division form so no product can overflow.
  const auto fits = [&map](std::size_t steps, std::size_t extent) {
    return steps == 0 || (map.window <= extent &&
                          steps - 1 <= (extent - map.window) / map.stride);
  };
  if (!fits(map.steps_x, scene.width()) || !fits(map.steps_y, scene.height())) {
    throw std::invalid_argument(
        "render_overlay: map windows outside the scene");
  }
  if (map.predictions.size() != map.steps_x * map.steps_y) {
    throw std::invalid_argument(
        "render_overlay: predictions do not match the map's steps");
  }
  image::RgbImage rgb = image::to_rgb(scene);
  // Coverage mask first, then one tint pass: overlapping positive windows
  // must not stack the tint (repeated 0.6 darkening used to black out dense
  // detection clusters instead of highlighting them).
  std::vector<std::uint8_t> covered(rgb.width * rgb.height, 0);
  for (std::size_t sy = 0; sy < map.steps_y; ++sy) {
    for (std::size_t sx = 0; sx < map.steps_x; ++sx) {
      if (map.predictions[sy * map.steps_x + sx] != positive_class) continue;
      for (std::size_t dy = 0; dy < map.window; ++dy) {
        const std::size_t row = (sy * map.stride + dy) * rgb.width;
        for (std::size_t dx = 0; dx < map.window; ++dx) {
          covered[row + sx * map.stride + dx] = 1;
        }
      }
    }
  }
  // Blue tint over the detected windows (paper Fig 6 coloring), each covered
  // pixel tinted exactly once.
  for (std::size_t y = 0; y < rgb.height; ++y) {
    for (std::size_t x = 0; x < rgb.width; ++x) {
      if (!covered[y * rgb.width + x]) continue;
      auto& px = rgb.at(x, y);
      px[0] = static_cast<std::uint8_t>(px[0] * 0.6);
      px[1] = static_cast<std::uint8_t>(px[1] * 0.6);
      px[2] = static_cast<std::uint8_t>(std::min(255.0, px[2] * 0.6 + 100.0));
    }
  }
  return rgb;
}

ScalePyramid build_pyramid(const image::Image& scene, std::size_t window,
                           const std::vector<double>& scales) {
  ScalePyramid pyramid;
  for (const double scale : scales) {
    const auto sw = static_cast<std::size_t>(
        std::lround(scale * static_cast<double>(scene.width())));
    const auto sh = static_cast<std::size_t>(
        std::lround(scale * static_cast<double>(scene.height())));
    if (sw < window || sh < window) continue;
    pyramid.scales.push_back(scale);
    pyramid.levels.push_back(scale == 1.0 ? scene
                                          : image::resize(scene, sw, sh));
  }
  return pyramid;
}

std::vector<Detection> detect_multiscale(HdFacePipeline& pipeline,
                                         const image::Image& scene,
                                         std::size_t window,
                                         const MultiScaleConfig& config,
                                         int positive_class,
                                         const ParallelDetectConfig& engine) {
  if (auto why = positive_class_error(pipeline, positive_class)) {
    throw std::invalid_argument("detect_multiscale: " + *why);
  }
  if (window == 0) throw std::invalid_argument("detect_multiscale: window 0");
  if (config.scales.empty()) {
    throw std::invalid_argument("detect_multiscale: no scales");
  }
  for (const double s : config.scales) {
    if (!(s > 0.0 && s <= 1.0)) {  // NaN fails too
      throw std::invalid_argument(
          "detect_multiscale: scales must be in (0, 1]");
    }
  }
  // The pyramid is the per-scale resized-image cache: each level is resized
  // once here and then shared read-only by every chunk the engine dispatches.
  const ScalePyramid pyramid = build_pyramid(scene, window, config.scales);
  std::vector<Detection> boxes;
  // Levels run sequentially, windows within a level in parallel: window work
  // dominates (levels are few, windows are thousands), and this keeps every
  // level's result bit-identical to its own single-level scan.
  for (std::size_t level = 0; level < pyramid.levels.size(); ++level) {
    ParallelDetectConfig level_engine = engine;
    level_engine.scale_index = level;
    // Collect each level's cascade stage counts into a local so callers see
    // both the per-scale breakdown and the merged scan total.
    CascadeStats level_stats;
    if (engine.cascade != nullptr) level_engine.cascade_stats = &level_stats;
    const DetectionMap map =
        detect_windows_parallel(pipeline, pyramid.levels[level], window,
                                config.stride, positive_class, level_engine);
    if (engine.cascade != nullptr) {
      if (engine.cascade_per_scale) engine.cascade_per_scale->push_back(level_stats);
      if (engine.cascade_stats) engine.cascade_stats->merge(level_stats);
    }
    // Map the level's boxes back to scene coordinates.
    const double scale = pyramid.scales[level];
    const auto to_scene = [scale](std::size_t v) {
      return static_cast<std::size_t>(
          std::lround(static_cast<double>(v) / scale));
    };
    for (std::size_t sy = 0; sy < map.steps_y; ++sy) {
      for (std::size_t sx = 0; sx < map.steps_x; ++sx) {
        const std::size_t idx = sy * map.steps_x + sx;
        if (map.predictions[idx] != positive_class) continue;
        if (map.scores[idx] < config.score_threshold) continue;
        boxes.push_back(Detection{to_scene(sx * config.stride),
                                  to_scene(sy * config.stride),
                                  to_scene(window), map.scores[idx]});
      }
    }
  }
  // non_max_suppression keeps its boxes in detection_before order.
  return non_max_suppression(std::move(boxes), config.iou_threshold);
}

}  // namespace hdface::pipeline
