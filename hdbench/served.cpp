#include "served.hpp"

#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <thread>
#include <utility>

#include "core/rng.hpp"
#include "measure.hpp"

namespace hdbench {

using namespace hdface;

namespace {

constexpr std::uint64_t kArrivalSalt = 0xA441'7A10ULL;

struct Pending {
  std::future<api::Outcome<api::Response>> response;
  // Encode-cache sink of a fault-plan request; must outlive the response.
  std::unique_ptr<pipeline::EncodeCacheStats> sink;
  std::uint64_t index = 0;
  Kind kind = Kind::kWindow;
  double lag_ms = 0.0;
  double submit_us = 0.0;
};

serve::ServerConfig server_config(const ServerShape& shape) {
  serve::ServerConfig cfg;
  cfg.workers = shape.workers;
  cfg.queue_depth = shape.queue_depth;
  cfg.per_tenant_inflight = shape.per_tenant_inflight;
  cfg.engine_threads = 1;
  return cfg;
}

// Request `index` of the stream, its sink attached when needed.
api::Request make_request(const ServedStream& stream, std::uint64_t index,
                          Pending& pending) {
  api::Request request = stream.make(index);
  pending.index = index;
  pending.kind = stream.kind_of(index);
  if (request.options.fault_plan) {
    pending.sink = std::make_unique<pipeline::EncodeCacheStats>();
    attach_cache_sink(request, pending.sink.get());
  }
  return request;
}

// Submits and classifies the admission outcome; true when admitted.
bool submit(serve::DetectionServer& server, api::Request request,
            Pending& pending, PhaseResult& out) {
  const auto t0 = Clock::now();
  auto submission = server.submit(std::move(request));
  pending.submit_us = ms_since(t0) * 1e3;
  out.attempted += 1;
  if (submission.admitted()) {
    pending.response = std::move(submission.response);
    return true;
  }
  switch (submission.rejected->code) {
    case api::ErrorCode::kQueueFull: out.rejected_queue_full += 1; break;
    case api::ErrorCode::kTenantOverLimit: out.rejected_tenant += 1; break;
    default: out.rejected_other += 1; break;
  }
  return false;
}

// Waits for the response and records it; verify() checks its detections.
void collect(Pending& pending, PhaseResult& out) {
  auto outcome = pending.response.get();
  if (!outcome.ok()) {
    out.errors += 1;
    return;
  }
  const api::Response& response = outcome.value();
  const api::StageNanos& t = response.timing;
  Served s;
  s.index = pending.index;
  s.kind = pending.kind;
  s.hash = detections_hash(response.detections);
  s.lag_ms = pending.lag_ms;
  s.submit_us = pending.submit_us;
  s.latency_ms = pending.lag_ms + static_cast<double>(t.total) / 1e6;
  s.queue_wait_ms = static_cast<double>(t.queue_wait) / 1e6;
  s.execute_ms = static_cast<double>(t.execute) / 1e6;
  out.served.push_back(s);
}

}  // namespace

ServerShape server_shape(std::size_t nproc) {
  ServerShape shape;
  // The driver thread takes the remaining CPU.
  shape.workers = nproc > 1 ? nproc - 1 : 1;
  return shape;
}

PhaseResult run_open_loop(const Model& model, const ServedStream& stream,
                          const ServerShape& shape, std::uint64_t seed,
                          std::uint64_t phase, double rps,
                          std::size_t requests) {
  // Seeded-Poisson schedule, fixed before the first submission.
  core::Rng rng(core::mix64(core::mix64(seed, kArrivalSalt), phase));
  std::vector<double> due_s(requests);
  double t = 0.0;
  for (double& d : due_s) {
    t += -std::log(1.0 - rng.uniform()) / rps;
    d = t;
  }

  PhaseResult out;
  serve::DetectionServer server(model.detector, server_config(shape));
  std::vector<Pending> pending;
  pending.reserve(requests);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < requests; ++i) {
    Pending p;
    api::Request request = make_request(stream, i, p);
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(due_s[i]));
    std::this_thread::sleep_until(due);
    p.lag_ms = ms_since(due);
    if (submit(server, std::move(request), p, out)) {
      pending.push_back(std::move(p));
    }
  }
  for (Pending& p : pending) collect(p, out);
  server.shutdown();
  out.conserved = server.stats().conserved();
  return out;
}

PhaseResult run_closed_loop(const Model& model, const ServedStream& stream,
                            const ServerShape& shape, double seconds) {
  PhaseResult out;
  serve::DetectionServer server(model.detector, server_config(shape));
  std::vector<Pending> slots(shape.workers);
  std::vector<bool> live(shape.workers, false);
  std::uint64_t next = 0;
  const auto refill = [&](std::size_t w) {
    slots[w] = Pending{};
    api::Request request = make_request(stream, next++, slots[w]);
    live[w] = submit(server, std::move(request), slots[w], out);
  };

  // Completion times (s since start) within each slice.
  const double slice_s = seconds / kClosedSlices;
  std::vector<std::vector<double>> done_s(kClosedSlices);
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  for (std::size_t w = 0; w < slots.size(); ++w) refill(w);
  // The driver polls every slot and never sleeps: it has a CPU of its own
  // (workers = nproc - 1), and a sleep would leave a worker whose request
  // finished idle until the sleep ends.
  while (Clock::now() < end) {
    for (std::size_t w = 0; w < slots.size(); ++w) {
      if (live[w]) {
        if (slots[w].response.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          continue;
        }
        const std::size_t before = out.served.size();
        collect(slots[w], out);
        live[w] = false;
        const double at_s = ms_since(start) / 1e3;
        if (at_s < seconds && out.served.size() > before) {
          done_s[static_cast<std::size_t>(at_s / slice_s)].push_back(at_s);
        }
      }
      if (Clock::now() < end) refill(w);
    }
    std::this_thread::yield();
  }
  // A slice's rate: completions after its first one, over the time from
  // its first completion to its last.
  for (const std::vector<double>& t : done_s) {
    if (t.size() >= 2) {
      out.slice_rps.push_back(static_cast<double>(t.size() - 1) /
                              (t.back() - t.front()));
    }
  }
  for (std::size_t w = 0; w < slots.size(); ++w) {
    if (live[w]) collect(slots[w], out);
  }
  server.shutdown();
  out.conserved = server.stats().conserved();
  return out;
}

void verify(Model& model, const ServedStream& stream, References& refs,
            PhaseResult& out) {
  for (const Served& s : out.served) {
    const std::optional<std::uint64_t> ref =
        refs.get(model, stream.make(s.index));
    if (!ref) {
      out.errors += 1;
    } else if (*ref != s.hash) {
      out.mismatches += 1;
    }
  }
}

}  // namespace hdbench
