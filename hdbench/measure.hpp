#pragma once

// The benchmark's one measurement helper: timed samples, their median and
// the highest tail percentile the sample count supports, the fingerprint of
// the machine and build a number was measured on, and the metric report
// printed at the end of a run.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hdbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

// A tail percentile is reported only when at least this many samples lie
// beyond it; below that it is the maximum of a handful of samples.
inline constexpr std::size_t kTailBeyond = 10;

// Samples needed before `pct` (e.g. 99.0) has kTailBeyond samples beyond it.
std::size_t min_samples_for(double pct);

// Nearest-rank percentile of an ascending-sorted, non-empty sample.
double percentile(const std::vector<double>& sorted, double pct);

struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double tail = 0.0;
  // The percentile `tail` was taken at: the planned one when the sample
  // supports it, otherwise the highest of {99.9, 99, 95, 90, 75, 50} that
  // has kTailBeyond samples beyond it.
  double tail_pct = 0.0;
  bool tail_as_planned = false;
};

Summary summarize(std::vector<double> samples, double planned_tail_pct);

// Times `reps` calls of `fn` (ms each) after `warmup` untimed ones.
template <typename Fn>
std::vector<double> time_reps(std::size_t warmup, std::size_t reps, Fn&& fn) {
  for (std::size_t i = 0; i < warmup; ++i) fn();
  std::vector<double> out;
  out.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    out.push_back(ms_since(t0));
  }
  return out;
}

double median(std::vector<double> samples);

// Where a number was measured. `commit` comes from the command line (the
// benchmark may run from a checkout that is not a git repository).
struct Fingerprint {
  std::string backend;
  std::size_t nproc = 0;
  std::size_t threads = 0;
  std::string build_type;
  std::string compiler;
  std::string commit;
};

Fingerprint fingerprint(std::size_t threads, std::string commit);
std::string to_json(const Fingerprint& fp);

// CPUs this process may run on (the affinity mask, as `nproc` reports).
std::size_t online_cpus();

// Peak resident set size of this process, MiB.
double peak_rss_mb();

// Ordered metric list printed as a table and as the JSON result line.
class Report {
 public:
  void add(std::string name, double value, std::string unit);
  // Human-readable table (stdout), then the one-line JSON result object —
  // always the last line of stdout.
  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace hdbench
