#pragma once

// The traced run: per-layer metrics, each measured by timing calls into one
// module's public functions from outside the program (no span lives inside
// src/), or read from the exact counters the API already returns.

#include <cstddef>

#include "measure.hpp"
#include "workload.hpp"

namespace hdbench {

// Adds every hog.*, pipeline.*, learn.*, core.*, api.* and trace.* metric
// for one detect call of `c` (engine threads as in the workload), spending
// roughly `budget_s` seconds. The centrepiece replays the call serially as
// the sequence of public calls the engine makes, times each, and checks the
// replay's detections against the reference. Returns false on any output
// mismatch.
bool add_layer_metrics(Report& report, Model& model, const Case& c,
                       double budget_s);

}  // namespace hdbench
