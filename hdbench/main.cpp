// hdbench — the HDFace benchmark. One process runs one workload through the
// public API and prints every metric by name with its unit; the last line
// of stdout is the JSON object {correct, attempted, failed, metrics}.
//
//   hdbench --workload sparse_scene|served_mix
//           --seed N --seconds S --trace 0|1 [--commit SHA]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status: 0 ok, 1 an output check failed (the JSON line still
// prints), 2 bad arguments. See README.md for the workloads and metrics.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "measure.hpp"
#include "pipeline/cascade.hpp"
#include "served.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace {

using namespace hdbench;
using namespace hdface;

struct Args {
  WorkloadKind workload = WorkloadKind::kSparseScene;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string commit = "unknown";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      const auto w = parse_workload(value);
      if (!w) return std::nullopt;
      a.workload = *w;
      a.workload_name = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && a.seconds > 0.0 &&
                     a.seconds <= 120.0;
    } else if (key == "--trace") {
      a.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--commit") {
      a.commit = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds ||
      !have_trace) {
    return std::nullopt;
  }
  return a;
}

// Run-level bookkeeping: every timed call counts as attempted; failures
// are rejections, errors and output mismatches. A mismatch or error also
// clears `correct`.
struct Tally {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const char* what) {
    if (!ok) std::printf("FAIL: %s\n", what);
    correct = correct && ok;
  }
};

std::uint64_t detect_hash(Model& model, const api::Request& request) {
  auto out = model.detector.detect(request);
  if (!out.ok()) {
    std::printf("detect failed: %s\n", out.error().message.c_str());
    return 0;
  }
  return detections_hash(out.value().detections);
}

// Once per run: a lazy plane gives the eager plane's detections, and the
// serial engine the parallel engine's.
void check_invariants(Model& model, const Case& c, std::size_t nproc,
                      Tally& tally) {
  api::Request eager = c.request;
  eager.options.plane_mode = pipeline::PlaneMode::kEager;
  tally.check(detect_hash(model, eager) == c.ref_hash, "lazy != eager plane");
  api::Request threads = c.request;
  threads.options.threads = c.request.options.threads == 1 ? nproc : 1;
  tally.check(detect_hash(model, threads) == c.ref_hash,
              "threads 1 != threads nproc");
}

// The workload's inputs at `seed`; `stream` must outlive the cases.
std::vector<Case> make_cases(const Model& model, WorkloadKind workload,
                             std::uint64_t seed, std::size_t nproc,
                             std::optional<ServedStream>& stream) {
  if (workload == WorkloadKind::kServedMix) {
    stream.emplace(model, seed);
    return served_mix_cases(*stream);
  }
  return sparse_scene_cases(model, seed, nproc);
}

// Once per run: the detections of the golden inputs equal the recorded ones.
void check_golden(Model& model, WorkloadKind workload, std::size_t nproc,
                  Tally& tally) {
  std::optional<ServedStream> stream;
  std::vector<Case> cases =
      make_cases(model, workload, kGoldenSeed, nproc, stream);
  tally.check(compute_references(model, cases), "golden detect failed");
  const Golden got = golden_of(cases);
  const Golden want = recorded_golden(workload);
  std::printf("golden (seed %llu): hash %016llx, %zu matched, %zu false "
              "positives; recorded %016llx, %zu, %zu\n",
              static_cast<unsigned long long>(kGoldenSeed),
              static_cast<unsigned long long>(got.hash), got.matched,
              got.false_pos, static_cast<unsigned long long>(want.hash),
              want.matched, want.false_pos);
  tally.check(got == want, "golden detections != recorded");
}

const Case& first_of_kind(const std::vector<Case>& cases, Kind kind) {
  return *std::find_if(cases.begin(), cases.end(),
                       [kind](const Case& c) { return c.kind == kind; });
}

// Closed loop, one caller: cold Detector::detect(Request) calls cycling the
// workload's cases, each checked against its reference.
Summary run_scan_loop(Model& model, const std::vector<Case>& cases,
                      double seconds, double tail_pct, double& rps,
                      Tally& tally) {
  std::vector<double> samples;
  const std::size_t min_n = min_samples_for(tail_pct);
  const auto start = Clock::now();
  double elapsed_ms = 0.0;
  for (std::size_t i = 0;
       (elapsed_ms < seconds * 1e3 || samples.size() < min_n) &&
       elapsed_ms < 3.0 * seconds * 1e3;
       ++i) {
    const Case& c = cases[i % cases.size()];
    const auto t0 = Clock::now();
    auto out = model.detector.detect(c.request);
    const double ms = ms_since(t0);
    tally.attempted += 1;
    const bool ok =
        out.ok() && detections_hash(out.value().detections) == c.ref_hash;
    tally.check(ok, "detect != reference");
    if (ok) {
      samples.push_back(ms);
    } else {
      tally.failed += 1;
    }
    elapsed_ms = ms_since(start);
  }
  rps = static_cast<double>(samples.size()) / (elapsed_ms / 1e3);
  std::printf("per input (ms):");
  for (std::size_t k = 0; k < cases.size(); ++k) {
    std::vector<double> of_case;
    for (std::size_t i = k; i < samples.size(); i += cases.size()) {
      of_case.push_back(samples[i]);
    }
    if (!of_case.empty()) std::printf(" %.2f", median(of_case));
  }
  std::printf("\n");
  if (samples.empty()) samples.push_back(0.0);
  return summarize(std::move(samples), tail_pct);
}

struct ServedRun {
  PhaseResult light, knee, closed;
};

ServedRun run_served(Model& model, const ServedStream& stream,
                     References& refs, std::size_t nproc, std::uint64_t seed,
                     double seconds, Tally& tally) {
  const ServerShape shape = server_shape(nproc);
  const auto open_n = [&](double rps, double share, std::size_t at_least) {
    return std::max(at_least, static_cast<std::size_t>(rps * share * seconds));
  };
  ServedRun run;
  run.light = run_open_loop(model, stream, shape, seed, 1, kLightRps,
                            open_n(kLightRps, 0.55, kMinLightRequests));
  run.knee = run_open_loop(model, stream, shape, seed, 2, kKneeRps,
                           open_n(kKneeRps, 0.15, kMinKneeRequests));
  run.closed = run_closed_loop(model, stream, shape, 0.4 * seconds);
  for (PhaseResult* p : {&run.light, &run.knee, &run.closed}) {
    verify(model, stream, refs, *p);
    tally.attempted += p->attempted;
    tally.failed += p->failed();
    tally.check(p->mismatches == 0, "served detections != direct reference");
    tally.check(p->errors == 0, "served request failed");
    tally.check(p->conserved, "server queue accounting not conserved");
  }
  return run;
}

std::vector<double> field(const std::vector<Served>& served,
                          double Served::*member,
                          std::optional<Kind> kind = std::nullopt) {
  std::vector<double> out;
  for (const Served& s : served) {
    if (!kind || s.kind == *kind) out.push_back(s.*member);
  }
  return out;
}

double median_or_zero(std::vector<double> v) {
  return v.empty() ? 0.0 : median(std::move(v));
}

void print_tail(const char* what, const Summary& s) {
  std::printf("%s: n=%zu, p50 %.4f ms, tail p%g %.4f ms%s\n", what, s.n,
              s.median, s.tail_pct, s.tail,
              s.tail_as_planned ? "" : " (planned percentile unsupported)");
}

// `window_direct_ms`: median direct serial detect of a window request.
void add_serve_metrics(Report& report, const ServedRun* run,
                       double window_direct_ms) {
  const PhaseResult empty;
  const PhaseResult& light = run ? run->light : empty;
  const PhaseResult& knee = run ? run->knee : empty;
  const auto summary = [](std::vector<double> v) {
    return v.empty() ? Summary{} : summarize(std::move(v), 99.0);
  };
  const Summary knee_latency = summary(field(knee.served, &Served::latency_ms));
  const Summary knee_wait = summary(field(knee.served, &Served::queue_wait_ms));
  report.add("serve.knee_p50_ms", knee_latency.median, "ms");
  report.add("serve.knee_p99_ms", knee_latency.tail, "ms");
  report.add("serve.queue_wait_p50_ms", knee_wait.median, "ms");
  report.add("serve.queue_wait_p99_ms", knee_wait.tail, "ms");
  for (std::size_t k = 0; k < kKinds; ++k) {
    report.add(std::string("serve.execute_p50_ms.") + kKindNames[k],
               median_or_zero(field(knee.served, &Served::execute_ms,
                                    static_cast<Kind>(k))),
               "ms");
  }
  // Server-side fixed cost of a window request: its execute time when
  // served at the light rate minus a direct serial detect of a window.
  // Response timing cannot show it: total is exactly queue_wait + execute
  // by construction.
  const double served_window_ms = median_or_zero(
      field(light.served, &Served::execute_ms, Kind::kWindow));
  report.add("serve.overhead_us",
             run ? (served_window_ms - window_direct_ms) * 1e3 : 0.0, "us");
  report.add("serve.submit_us",
             median_or_zero(field(light.served, &Served::submit_us)), "us");
  std::uint64_t queue_full = 0, tenant = 0;
  bool conserved = true;
  if (run) {
    for (const PhaseResult* p : {&run->light, &run->knee, &run->closed}) {
      queue_full += p->rejected_queue_full;
      tenant += p->rejected_tenant;
      conserved = conserved && p->conserved;
    }
  }
  report.add("serve.rejected_queue_full", static_cast<double>(queue_full),
             "count");
  report.add("serve.rejected_tenant", static_cast<double>(tenant), "count");
  report.add("serve.conserved", conserved ? 1.0 : 0.0, "bool");
  report.add("serve.gen_lag_p99_ms",
             std::max(summary(field(light.served, &Served::lag_ms)).tail,
                      summary(field(knee.served, &Served::lag_ms)).tail),
             "ms");
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse_args(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: hdbench --workload sparse_scene|served_mix --seed N "
                 "--seconds S --trace 0|1 [--commit SHA]\n");
    return 2;
  }
  const Args& args = *parsed;
  const std::size_t nproc = online_cpus();
  const bool served = args.workload == WorkloadKind::kServedMix;
  const std::size_t threads = served ? server_shape(nproc).workers : nproc;
  std::printf("hdbench: workload %s, seed %llu, %g s, trace %d\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("fingerprint: %s\n",
              to_json(fingerprint(threads, args.commit)).c_str());
  Tally tally;

  // --- set-up: fit + calibration (+ server start), median of several ------
  const std::size_t setups = args.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::optional<Model> model;
  std::string table_text;
  for (std::size_t k = 0; k < setups; ++k) {
    const auto t0 = Clock::now();
    Model m = build_model();
    if (served) {
      serve::DetectionServer server(m.detector, serve::ServerConfig{
                                                    .workers = threads});
      server.shutdown();
    }
    setup_s.push_back(ms_since(t0) / 1e3);
    const std::string text = pipeline::cascade_table_to_text(m.table);
    if (k == 0) {
      table_text = text;
      model.emplace(std::move(m));
    } else {
      tally.check(text == table_text, "set-up is not deterministic");
    }
  }

  // --- inputs and their references ----------------------------------------
  std::optional<ServedStream> stream;
  std::vector<Case> cases =
      make_cases(*model, args.workload, args.seed, nproc, stream);
  tally.check(compute_references(*model, cases), "reference detect failed");
  References refs;
  for (const Case& c : cases) refs.add(c.request, c.ref_hash);
  if (tally.correct) {
    check_invariants(*model, served ? first_of_kind(cases, Kind::kScene)
                                    : cases.front(),
                     nproc, tally);
  }
  const Quality quality = reference_quality(cases);
  std::printf("inputs: %zu cases, %zu planted faces, %zu matched, %zu false "
              "positives in %zu scenes\n",
              cases.size(), quality.planted, quality.matched,
              quality.false_pos, quality.scenes);
  if (tally.correct) {
    check_golden(*model, args.workload, nproc, tally);
  }

  Report report;
  if (!tally.correct) {
    // Inputs without a valid reference: nothing below can be checked.
  } else if (!args.trace) {
    Summary latency;
    double rps = 0.0;
    if (served) {
      const ServedRun run = run_served(*model, *stream, refs, nproc,
                                       args.seed, args.seconds, tally);
      // p95: the light phase's kMinLightRequests support it, and it lies
      // among the scene and fault-plan scans' own times.
      latency = summarize(field(run.light.served, &Served::latency_ms), 95.0);
      rps = run.closed.slice_rps.empty() ? 0.0 : median(run.closed.slice_rps);
      print_tail("served light (from due time)", latency);
      for (std::size_t k = 0; k < kKinds; ++k) {
        const auto of_kind = field(run.light.served, &Served::latency_ms,
                                   static_cast<Kind>(k));
        if (!of_kind.empty()) {
          print_tail((std::string("  ") + kKindNames[k]).c_str(),
                     summarize(of_kind, 99.0));
        }
      }
      print_tail("served knee (from due time)",
                 summarize(field(run.knee.served, &Served::latency_ms), 99.0));
    } else {
      const double tail_pct = 75.0;
      latency =
          run_scan_loop(*model, cases, args.seconds, tail_pct, rps, tally);
      print_tail("detect (cold)", latency);
    }
    report.add("setup_s", median(setup_s), "s");
    report.add("p50_ms", latency.median, "ms");
    report.add("tail_ms", latency.tail, "ms");
    report.add("throughput_rps", rps, "1/s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    report.add("setup.fit_s", model->fit_s, "s");
    report.add("setup.calibrate_s", model->calibrate_s, "s");
    const Case& replayed =
        served ? first_of_kind(cases, Kind::kScene) : cases.front();
    tally.check(add_layer_metrics(report, *model, replayed,
                                  served ? 0.3 * args.seconds : args.seconds),
                "traced replay");
    std::optional<ServedRun> run;
    double window_direct_ms = 0.0;
    if (served) {
      const api::Request& window = first_of_kind(cases, Kind::kWindow).request;
      window_direct_ms = median(time_reps(5, 200, [&] {
        (void)model->detector.detect(window);
      }));
      run = run_served(*model, *stream, refs, nproc, args.seed, args.seconds,
                       tally);
    }
    add_serve_metrics(report, run ? &*run : nullptr, window_direct_ms);
    report.add("quality.recall", quality.recall(), "ratio");
    report.add("quality.false_pos_per_scene", quality.false_pos_per_scene(),
               "count");
  }
  report.print(tally.correct, std::max<std::uint64_t>(1, tally.attempted),
               tally.failed);
  return tally.correct ? 0 : 1;
}
