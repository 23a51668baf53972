#pragma once

// Multi-scale face detection: an image pyramid feeds the parallel scan
// engine, detections are mapped back to scene coordinates and merged with
// non-maximum suppression. This is the standard deployment wrapper around
// the paper's Fig 6 single-scale scan (faces in real scenes are not
// window-sized). Also the box and overlay rendering of scan results.

#include <vector>

#include "image/image.hpp"
#include "image/pnm.hpp"
#include "pipeline/detection.hpp"
#include "pipeline/parallel_detect.hpp"

namespace hdface::pipeline {

// Intersection-over-union of two square boxes.
double box_iou(const Detection& a, const Detection& b);

// Deterministic detection ordering: score descending, ties broken by
// position (y, then x) and size ascending. std::sort leaves equal elements
// in unspecified order, so sorting on score alone would let equal-score ties
// — common on synthetic scenes — pick NMS winners by accident of the
// sort implementation. Every detection sort in this module uses this.
bool detection_before(const Detection& a, const Detection& b);

// Greedy non-maximum suppression: keeps the highest-scoring box of every
// group overlapping above `iou_threshold`; equal scores resolve by
// detection_before, so the kept set is a pure function of the input set.
std::vector<Detection> non_max_suppression(std::vector<Detection> detections,
                                           double iou_threshold);

// Collapse a single-scale DetectionMap to boxes: every positive-class window
// scoring at least `score_threshold` becomes a window-sized box, then greedy
// NMS keeps the best of each overlapping group (so a face detected by several
// neighboring strides shows as one box in overlays). Sorted by descending
// score.
std::vector<Detection> map_detections(const DetectionMap& map,
                                      int positive_class = 1,
                                      double score_threshold = 0.0,
                                      double iou_threshold = 0.3);

// Draws detection rectangles onto an RGB copy of the scene.
image::RgbImage render_detections(const image::Image& scene,
                                  const std::vector<Detection>& detections);

// Tints every window of `map` predicted as `positive_class` blue on an RGB
// copy of the scene (paper Fig 6 rendering); a pixel under several positive
// windows is tinted once. Throws std::invalid_argument unless the map lies on
// the scene: a zero window or stride, a last window outside the scene, or
// predictions.size() != steps_x · steps_y.
image::RgbImage render_overlay(const image::Image& scene,
                               const DetectionMap& map, int positive_class = 1);

struct MultiScaleConfig {
  // Pyramid scales applied to the *scene* (1.0 = native; 0.5 finds faces
  // twice the window size).
  std::vector<double> scales = {1.0, 0.75, 0.5};
  std::size_t stride = 8;           // at window resolution
  double score_threshold = 0.0;     // min positive-class cosine
  double iou_threshold = 0.3;
};

// The resized pyramid levels for one scene, computed once per detect call and
// shared read-only by every scan chunk (levels that cannot fit a window are
// dropped). Exposed so callers scanning one scene repeatedly — or with
// several detectors — can reuse the resize work.
struct ScalePyramid {
  std::vector<double> scales;        // kept scales, same order as config
  std::vector<image::Image> levels;  // resized scene per kept scale
};

ScalePyramid build_pyramid(const image::Image& scene, std::size_t window,
                           const std::vector<double>& scales);

// Scans every pyramid level of `scene` through detect_windows_parallel, each
// under its own scale_index (so same-sized levels draw independent cell
// streams) and bit-identical at every thread count. Each level's windows
// predicted as `positive_class` and scoring at least config.score_threshold
// map back to scene coordinates; NMS at config.iou_threshold merges them.
// Returns the kept boxes in detection_before order. With engine.cascade set,
// engine.cascade_stats receives the merged stage counts and
// engine.cascade_per_scale one entry per kept level. Throws
// std::invalid_argument on a positive_class outside the classes, a zero
// window, no scales or a scale outside (0, 1], and on whatever
// detect_windows_parallel rejects.
std::vector<Detection> detect_multiscale(
    HdFacePipeline& pipeline, const image::Image& scene, std::size_t window,
    const MultiScaleConfig& config, int positive_class,
    const ParallelDetectConfig& engine = {});

}  // namespace hdface::pipeline
