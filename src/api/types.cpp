#include "api/types.hpp"

#include <cmath>
#include <string>

namespace hdface::api {

std::optional<Error> validate(const DetectOptions& options) {
  if (options.stride == 0) {
    return Error::invalid_options("DetectOptions: stride must be > 0");
  }
  if (options.scales.empty()) {
    return Error::invalid_options("DetectOptions: scales must not be empty");
  }
  for (const double s : options.scales) {
    if (!std::isfinite(s) || s <= 0.0 || s > 1.0) {
      return Error::invalid_options("DetectOptions: scale outside (0, 1]: " +
                                    std::to_string(s));
    }
  }
  if (!std::isfinite(options.nms_iou) || options.nms_iou < 0.0 ||
      options.nms_iou > 1.0) {
    return Error::invalid_options("DetectOptions: nms_iou outside [0, 1]: " +
                                  std::to_string(options.nms_iou));
  }
  if (!std::isfinite(options.score_threshold)) {
    return Error::invalid_options("DetectOptions: score_threshold not finite");
  }
  if (options.fault_plan) {
    const double rate = options.fault_plan->model.rate;
    if (!noise::valid_rate(rate)) {
      return Error::invalid_options(
          "DetectOptions: fault_plan rate outside [0, 1]: " +
          std::to_string(rate));
    }
  }
  if (options.plane_mode == pipeline::PlaneMode::kLazy &&
      options.encode_mode != pipeline::EncodeMode::kCellPlane) {
    return Error::invalid_options(
        "DetectOptions: plane_mode=lazy requires encode_mode=cell_plane (the "
        "per-window encode has no plane to materialize)");
  }
  if (options.cascade &&
      options.cascade->mode == pipeline::CascadeMode::kCalibrated) {
    if (options.encode_mode != pipeline::EncodeMode::kCellPlane) {
      return Error::invalid_options(
          "DetectOptions: calibrated cascade requires encode_mode=cell_plane");
    }
    if (options.fault_plan) {
      return Error::invalid_options(
          "DetectOptions: calibrated cascade is incompatible with fault_plan");
    }
    const pipeline::CascadeTable& table = options.cascade->table;
    if (table.positive_class != options.positive_class) {
      return Error::invalid_options(
          "DetectOptions: cascade table positive_class " +
          std::to_string(table.positive_class) +
          " does not match options.positive_class " +
          std::to_string(options.positive_class));
    }
    if (const auto why = pipeline::cascade_table_error(table)) {
      return Error::invalid_options("DetectOptions: cascade table: " + *why);
    }
  }
  return std::nullopt;
}

}  // namespace hdface::api
