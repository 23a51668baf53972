#include "measure.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "core/kernels/kernels.hpp"

namespace hdbench {

std::size_t min_samples_for(double pct) {
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(kTailBeyond) / (1.0 - pct / 100.0) - 1e-9));
}

double percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) throw std::invalid_argument("percentile: no samples");
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n - 1e-9));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return percentile(samples, 50.0);
}

Summary summarize(std::vector<double> samples, double planned_tail_pct) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  s.median = percentile(samples, 50.0);
  s.tail_as_planned = s.n >= min_samples_for(planned_tail_pct);
  s.tail_pct = 50.0;
  if (s.tail_as_planned) {
    s.tail_pct = planned_tail_pct;
  } else {
    for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
      if (s.n >= min_samples_for(pct)) {
        s.tail_pct = pct;
        break;
      }
    }
  }
  s.tail = percentile(samples, s.tail_pct);
  return s;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Fingerprint fingerprint(std::size_t threads, std::string commit) {
  Fingerprint fp;
  fp.backend = std::string(hdface::core::kernels::backend_name(
      hdface::core::kernels::active().backend));
  fp.nproc = online_cpus();
  fp.threads = threads;
  fp.build_type = HDBENCH_BUILD_TYPE;
  fp.compiler = __VERSION__;
  fp.commit = std::move(commit);
  return fp;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";  // Report::print marks the run incorrect
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string to_json(const Fingerprint& fp) {
  return "{\"backend\": " + json_string(fp.backend) +
         ", \"nproc\": " + std::to_string(fp.nproc) +
         ", \"threads\": " + std::to_string(fp.threads) +
         ", \"build_type\": " + json_string(fp.build_type) +
         ", \"compiler\": " + json_string(fp.compiler) +
         ", \"commit\": " + json_string(fp.commit) + "}";
}

void Report::add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::print(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
  for (const Metric& m : metrics_) {
    if (!std::isfinite(m.value)) {
      std::printf("FAIL: metric %s is not a finite number\n", m.name.c_str());
      correct = false;
    }
  }
  for (const Metric& m : metrics_) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    line += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
            json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace hdbench
