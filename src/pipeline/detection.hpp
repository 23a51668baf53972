#pragma once

// Detection result value types, kept apart from the scan engines so the
// public facade (api/detector.hpp) and the serving layer (serve/server.hpp)
// can name results without pulling the pipeline machinery. The scan/merge
// functions stay with their engines.

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace hdface::pipeline {

struct Detection {
  // Box in scene pixel coordinates.
  std::size_t x = 0;
  std::size_t y = 0;
  std::size_t size = 0;  // square box edge
  double score = 0.0;    // positive-class cosine
};

struct DetectionMap {
  std::size_t window = 0;
  std::size_t stride = 0;
  std::size_t steps_x = 0;
  std::size_t steps_y = 0;
  // Row-major per-window predicted class (for face detection: 1 = face).
  std::vector<int> predictions;
  // Positive-class cosine score per window.
  std::vector<double> scores;

  int prediction_at(std::size_t sx, std::size_t sy) const {
    check_step(sx, sy);
    return predictions[sy * steps_x + sx];
  }

  double score_at(std::size_t sx, std::size_t sy) const {
    check_step(sx, sy);
    return scores[sy * steps_x + sx];
  }

 private:
  void check_step(std::size_t sx, std::size_t sy) const {
    if (sx >= steps_x || sy >= steps_y) {
      throw std::out_of_range("DetectionMap: step out of range");
    }
  }
};

}  // namespace hdface::pipeline
