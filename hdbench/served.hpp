#pragma once

// The benchmark's own load driver for serve::DetectionServer. One driver
// thread submits on a precomputed, seeded schedule and times each request
// from its due time, so a stalled generator shows in the latency instead of
// hiding behind the admission timestamp (serve::run_open_loop starts the
// clock at admission).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/server.hpp"
#include "workload.hpp"

namespace hdbench {

// Open-loop arrival rates, requests per second. Chosen once from a sweep of
// offered rates against the served mix (README.md) and frozen: a rate
// derived per run would change the workload between two commits.
inline constexpr double kLightRps = 25.0;
inline constexpr double kKneeRps = 150.0;
// Requests per open-loop phase, at least: the light phase's p95 and the
// knee phase's p99 have kTailBeyond samples beyond them.
inline constexpr std::size_t kMinLightRequests = 500;
inline constexpr std::size_t kMinKneeRequests = 1000;

struct ServerShape {
  std::size_t workers = 1;
  std::size_t queue_depth = 1024;
  std::size_t per_tenant_inflight = 768;
};
ServerShape server_shape(std::size_t nproc);

// One completed request.
struct Served {
  std::uint64_t index = 0;     // stream index (= request id)
  Kind kind = Kind::kWindow;
  std::uint64_t hash = 0;      // detections_hash of the response
  double latency_ms = 0.0;     // due time -> the server's done_at
  double lag_ms = 0.0;         // how late the driver submitted it
  double submit_us = 0.0;      // DetectionServer::submit call
  double queue_wait_ms = 0.0;  // Response::timing.queue_wait
  double execute_ms = 0.0;     // Response::timing.execute
};

struct PhaseResult {
  std::vector<Served> served;
  std::uint64_t attempted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_tenant = 0;
  std::uint64_t rejected_other = 0;
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;  // served detections != direct reference
  bool conserved = false;
  // Closed loop only: completions per second in each of kClosedSlices
  // equal slices of the loop; their median is the capacity.
  std::vector<double> slice_rps;

  std::uint64_t failed() const {
    return rejected_queue_full + rejected_tenant + rejected_other + errors +
           mismatches;
  }
};

// Open loop: `requests` seeded-Poisson arrivals at `rps`.
PhaseResult run_open_loop(const Model& model, const ServedStream& stream,
                          const ServerShape& shape, std::uint64_t seed,
                          std::uint64_t phase, double rps,
                          std::size_t requests);

// Closed loop: one driver thread keeps exactly `shape.workers` requests
// outstanding for `seconds`, split into kClosedSlices slices: the median
// slice rate does not follow a short stall of the host.
inline constexpr std::size_t kClosedSlices = 5;
PhaseResult run_closed_loop(const Model& model, const ServedStream& stream,
                            const ServerShape& shape, double seconds);

// Served == direct: checks every response of a finished phase against a
// direct Detector::detect call of the same request, counting mismatches and
// failed direct calls in `out`. Runs after the phase, off the timed path.
void verify(Model& model, const ServedStream& stream, References& refs,
            PhaseResult& out);

}  // namespace hdbench
