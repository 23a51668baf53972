#include "pipeline/cascade.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "core/rng.hpp"
#include "dataset/background_generator.hpp"
#include "dataset/face_generator.hpp"
#include "image/draw.hpp"
#include "image/transform.hpp"
#include "pipeline/hdface_pipeline.hpp"
#include "pipeline/parallel_detect.hpp"

namespace hdface::pipeline {

namespace {

// Salt separating the calibration-scene stream from every other consumer of
// a workload seed.
constexpr std::uint64_t kCalibrationSceneSalt = 0xCA5CADE5ULL;

constexpr std::uint32_t kCascadeTableVersion = 1;
// v2 = v1 plus one "prescreen <words> <threshold> <vmax> <spread-floor>"
// line; emitted only when the table carries a prescreen, so prescreen-free
// tables stay byte-identical to every v1 reader/writer.
constexpr std::uint32_t kCascadeTableVersionPrescreen = 2;

// Best rival of the positive class by running distance. Lowest class index
// wins exact ties — matching argmax-by-first-max of the exact path's tie
// convention.
std::size_t best_rival(const std::vector<std::size_t>& cum, std::size_t pos) {
  std::size_t best = pos == 0 ? 1 : 0;
  for (std::size_t c = 0; c < cum.size(); ++c) {
    if (c != pos && cum[c] < cum[best]) best = c;
  }
  return best;
}

}  // namespace

std::optional<std::string> cascade_table_error(const CascadeTable& table) {
  if (table.dim == 0 || table.classes < 2) return "degenerate dim/classes";
  if (table.positive_class < 0 ||
      static_cast<std::size_t>(table.positive_class) >= table.classes) {
    return "positive_class out of range";
  }
  if (table.stages.empty()) return "table has no stages";
  // ceil(dim / 64) without the overflow of (dim + 63) / 64 on parsed input.
  const std::size_t words = table.dim / 64 + (table.dim % 64 != 0 ? 1 : 0);
  std::size_t prev = 0;
  for (const CascadeStage& s : table.stages) {
    if (s.words <= prev || s.words > words) {
      return "stage words must be strictly ascending within "
             "(0, ceil(dim / 64)]";
    }
    if (!std::isfinite(s.reject_below)) return "non-finite stage threshold";
    prev = s.words;
  }
  if (table.prescreen_words > words) {
    return "prescreen words exceed ceil(dim / 64)";
  }
  if (table.prescreen_words > 0) {
    if (!std::isfinite(table.prescreen_reject_below)) {
      return "non-finite prescreen threshold";
    }
    if (!std::isfinite(table.prescreen_vmax) || table.prescreen_vmax <= 0.0) {
      return "prescreen normalization scale must be a positive finite value";
    }
    if (!std::isfinite(table.prescreen_spread_below) ||
        table.prescreen_spread_below < 0.0) {
      return "prescreen spread floor must be finite and >= 0";
    }
  }
  return std::nullopt;
}

Cascade::Cascade(const learn::HdcClassifier& classifier,
                 const CascadeTable& table)
    : table_(table) {
  const learn::HdcConfig& cfg = classifier.config();
  if (table.dim != cfg.dim) {
    throw std::invalid_argument(
        "Cascade: table dimensionality mismatches the classifier");
  }
  if (table.classes != cfg.classes) {
    throw std::invalid_argument(
        "Cascade: table class count mismatches the classifier");
  }
  if (const auto why = cascade_table_error(table)) {
    throw std::invalid_argument("Cascade: " + *why);
  }
  // The prefix stages score against the binarized prototypes — the same
  // thresholded representation the binary inference path deploys. Rejection
  // is threshold-gated (never flips a survivor's result), so the cosine/
  // Hamming representational gap is absorbed by calibration: thresholds are
  // learned on exactly this statistic.
  const std::vector<core::Hypervector> protos = classifier.binary_prototypes();
  prototypes_ = core::PrototypeBlock(protos);
  total_words_ = prototypes_.words();
}

double Cascade::step(hog::HdHogExtractor::StagedWindow& window,
                     std::size_t word_lo, std::size_t word_hi,
                     Scratch& scratch, core::OpCounter* counter) const {
  const std::size_t classes = prototypes_.count();
  if (word_lo == 0) scratch.cum.assign(classes, 0);
  scratch.part.resize(classes);
  const core::Hypervector& prefix = window.assemble_to(word_hi, counter);
  prototypes_.hamming_many_range(prefix, word_lo, word_hi, scratch.part,
                                 counter);
  for (std::size_t c = 0; c < classes; ++c) scratch.cum[c] += scratch.part[c];
  // Positive leads when rivals are FARTHER (larger Hamming distance), so the
  // margin is rival − positive, normalized per prefix dimension.
  const auto pos = static_cast<std::size_t>(table_.positive_class);
  const std::size_t prefix_dims = std::min(prototypes_.dim(), word_hi * 64);
  return (static_cast<double>(scratch.cum[best_rival(scratch.cum, pos)]) -
          static_cast<double>(scratch.cum[pos])) /
         static_cast<double>(prefix_dims);
}

double Cascade::stage_margin(std::size_t s,
                             hog::HdHogExtractor::StagedWindow& window,
                             Scratch& scratch, core::OpCounter* counter) const {
  const std::size_t word_lo = s == 0 ? 0 : table_.stages[s - 1].words;
  return step(window, word_lo, table_.stages[s].words, scratch, counter);
}

double Cascade::prescreen_margin(hog::HdHogExtractor::StagedWindow& window,
                                 Scratch& scratch,
                                 core::OpCounter* counter) const {
  return step(window, 0, table_.prescreen_words, scratch, counter);
}

Cascade::Result Cascade::rejected(const Scratch& scratch, std::size_t words,
                                  std::size_t stage) const {
  // Best rival as prediction; the normalized prefix similarity of the
  // positive class, the same δ = 1 − 2H/D statistic the binary inference
  // path reports, as score.
  const auto pos = static_cast<std::size_t>(table_.positive_class);
  const std::size_t prefix_dims = std::min(prototypes_.dim(), words * 64);
  const double score = 1.0 - 2.0 * static_cast<double>(scratch.cum[pos]) /
                                 static_cast<double>(prefix_dims);
  return {static_cast<int>(best_rival(scratch.cum, pos)), score, true, stage};
}

Cascade::Result Cascade::classify(const learn::HdcClassifier& classifier,
                                  hog::HdHogExtractor::StagedWindow& window,
                                  Scratch& scratch, CascadeStats& stats,
                                  core::OpCounter* counter) const {
  if (stats.stages.size() < table_.stages.size()) {
    stats.stages.resize(table_.stages.size());
  }
  ++stats.windows;
  for (std::size_t s = 0; s < table_.stages.size(); ++s) {
    const double m = stage_margin(s, window, scratch, counter);
    ++stats.stages[s].entered;
    if (m < table_.stages[s].reject_below) {
      ++stats.stages[s].rejected;
      return rejected(scratch, table_.stages[s].words, s);
    }
  }

  // Survivor: full feature, unchanged exact scoring — bit-identical to the
  // non-cascaded scan for this window.
  const core::Hypervector& feature =
      window.assemble_to(window.total_words(), counter);
  const std::vector<double> class_scores = classifier.scores(feature);
  ++stats.exact_scored;
  Result r;
  r.prediction = static_cast<int>(
      std::max_element(class_scores.begin(), class_scores.end()) -
      class_scores.begin());
  r.score = class_scores[static_cast<std::size_t>(table_.positive_class)];
  return r;
}

Cascade::Result Cascade::prescreen(hog::HdHogExtractor::StagedWindow& window,
                                   Scratch& scratch, CascadeStats& stats,
                                   core::OpCounter* counter) const {
  ++stats.prescreen_entered;
  const double m = prescreen_margin(window, scratch, counter);
  // Union reject: the prefix-Hamming margin catches windows that resemble a
  // rival class, the orientation-spread floor catches structureless windows
  // whose bundle is far from EVERY prototype (their margin is uninformative —
  // near zero — but their parity cells carry almost no mass off bin 0). Both
  // thresholds are calibrated against the positive minima, so the union keeps
  // the zero-false-reject contract.
  if (m < table_.prescreen_reject_below ||
      window.prescreen_spread() < table_.prescreen_spread_below) {
    ++stats.prescreen_rejected;
    return rejected(scratch, table_.prescreen_words, 0);
  }
  return {};
}

// --- offline calibration ----------------------------------------------------

CascadeTable calibrate_cascade(HdFacePipeline& pipeline,
                               const std::vector<image::Image>& scenes,
                               const CascadeCalibrationConfig& config) {
  if (scenes.empty()) {
    throw std::invalid_argument("calibrate_cascade: no calibration scenes");
  }
  if (config.window == 0 || config.stride == 0) {
    throw std::invalid_argument("calibrate_cascade: zero scan geometry");
  }
  const hog::HdHogExtractor* extractor = pipeline.hd_extractor();
  if (extractor == nullptr) {
    throw std::invalid_argument(
        "calibrate_cascade: cascade calibration requires an HD-HOG pipeline");
  }
  const learn::HdcClassifier& classifier = pipeline.classifier();
  // The table's skeleton: everything but the thresholds.
  CascadeTable table;
  table.seed = pipeline.config().seed;
  table.dim = classifier.config().dim;
  table.classes = classifier.config().classes;
  table.positive_class = config.positive_class;
  table.window = config.window;
  table.stride = config.stride;
  const std::size_t total_words = (table.dim + 63) / 64;

  // Map fractions to cumulative word widths (deduplicated, ascending).
  if (config.stage_fractions.empty()) {
    throw std::invalid_argument("calibrate_cascade: no stage fractions");
  }
  for (const double f : config.stage_fractions) {
    if (!std::isfinite(f) || f <= 0.0 || f > 1.0) {
      throw std::invalid_argument(
          "calibrate_cascade: stage fraction outside (0, 1]");
    }
    const auto w = static_cast<std::size_t>(std::max<long long>(
        1, std::llround(f * static_cast<double>(total_words))));
    const std::size_t clamped = std::min(w, total_words);
    if (table.stages.empty() || clamped > table.stages.back().words) {
      table.stages.push_back({clamped, 0.0});
    }
  }

  if (config.prescreen) {
    if (!std::isfinite(config.prescreen_fraction) ||
        config.prescreen_fraction <= 0.0 || config.prescreen_fraction > 1.0) {
      throw std::invalid_argument(
          "calibrate_cascade: prescreen fraction outside (0, 1]");
    }
    if (config.stride % extractor->config().hog.cell_size != 0) {
      throw std::invalid_argument(
          "calibrate_cascade: prescreen requires stride % cell_size == 0 so "
          "the plane grid step equals the cell size");
    }
    if (!std::isfinite(config.prescreen_spread_headroom) ||
        config.prescreen_spread_headroom < 0.0 ||
        config.prescreen_spread_headroom > 1.0) {
      throw std::invalid_argument(
          "calibrate_cascade: prescreen spread headroom outside [0, 1]");
    }
    table.prescreen_words = std::min(
        total_words,
        static_cast<std::size_t>(std::max<long long>(
            1, std::llround(config.prescreen_fraction *
                            static_cast<double>(total_words)))));
  }
  const bool prescreen = table.prescreen_words > 0;

  ParallelDetectConfig engine;
  engine.threads = config.threads;
  hog::HdHogExtractor::StagedWindow win(*extractor);

  // Pass 1: golden maps + eager planes per scene (the exact cell-plane scan
  // the cascade must not falsely reject from, bit-identical at any thread
  // count), plus every positive window's parity-subset vmax. The prescreen
  // normalization scale must be fixed BEFORE any prescreen margin exists, so
  // the vmax statistics are collected up front.
  std::vector<DetectionMap> maps;
  std::vector<hog::CellPlane> planes;
  std::vector<double> positive_subset_vmax;
  std::size_t positive_windows = 0;
  const std::size_t grid_step =
      std::gcd(config.stride, extractor->config().hog.cell_size);
  for (const image::Image& scene : scenes) {
    planes.push_back(build_scene_cell_plane(pipeline, scene, grid_step, engine));
    maps.push_back(detect_windows_on_plane(pipeline, scene, planes.back(),
                                           config.window, config.stride,
                                           config.positive_class, engine));
    const DetectionMap& map = maps.back();
    for (std::size_t idx = 0; idx < map.predictions.size(); ++idx) {
      if (map.predictions[idx] != config.positive_class) continue;
      ++positive_windows;
      if (!prescreen) continue;
      win.reset_prescreen(planes.back(), (idx % map.steps_x) * config.stride,
                          (idx / map.steps_x) * config.stride);
      positive_subset_vmax.push_back(win.prescreen_vmax());
    }
  }
  if (positive_windows == 0) {
    throw std::invalid_argument(
        "calibrate_cascade: calibration scenes contain no positive windows "
        "(a threshold calibrated on nothing would reject everything)");
  }
  // Median over the calibration positives: a fixed, deterministic scale that
  // keeps structureless windows at low histogram levels (self-normalization
  // would inflate a flat window's tiny values by their own tiny maximum and
  // make empty background look maximal — inseparable from faces).
  if (prescreen) {
    std::sort(positive_subset_vmax.begin(), positive_subset_vmax.end());
    table.prescreen_vmax =
        positive_subset_vmax[positive_subset_vmax.size() / 2];
  }
  // The provisional engine: the skeleton's thresholds are placeholders its
  // margin steps never read, so the margins below are the deployed scan's.
  const Cascade provisional(classifier, table);

  // Pass 2: per-positive prescreen and staged margins.
  std::vector<double> min_margin(table.stages.size(),
                                 std::numeric_limits<double>::infinity());
  double min_prescreen_margin = std::numeric_limits<double>::infinity();
  double min_prescreen_spread = std::numeric_limits<double>::infinity();
  Cascade::Scratch scratch;
  for (std::size_t si = 0; si < scenes.size(); ++si) {
    const DetectionMap& map = maps[si];
    for (std::size_t idx = 0; idx < map.predictions.size(); ++idx) {
      if (map.predictions[idx] != config.positive_class) continue;
      const std::size_t ox = (idx % map.steps_x) * config.stride;
      const std::size_t oy = (idx / map.steps_x) * config.stride;
      if (prescreen) {
        // The prescreen feature (parity cells only) is disjoint from the
        // staged feature, so its margin is computed from its own reset,
        // normalized by the fixed scale the table will deploy.
        win.reset_prescreen(planes[si], ox, oy, table.prescreen_vmax);
        min_prescreen_spread =
            std::min(min_prescreen_spread, win.prescreen_spread());
        min_prescreen_margin = std::min(
            min_prescreen_margin, provisional.prescreen_margin(win, scratch));
      }
      win.reset(planes[si], ox, oy);
      for (std::size_t s = 0; s < min_margin.size(); ++s) {
        min_margin[s] =
            std::min(min_margin[s], provisional.stage_margin(s, win, scratch));
      }
    }
  }

  if (prescreen) {
    // Same zero-false-reject construction as the stages: strictly below every
    // calibration positive's prescreen margin (computed at the deployed
    // normalization scale).
    table.prescreen_reject_below = min_prescreen_margin - config.slack;
    // Spread floor below every calibration positive's spread by a relative
    // headroom (the spread is an unnormalized energy, so an absolute slack
    // would not transfer across geometries). Empty background sits near zero,
    // far under any positive, so the headroom costs almost no rejection.
    table.prescreen_spread_below =
        std::max(0.0, min_prescreen_spread *
                          (1.0 - config.prescreen_spread_headroom));
  }
  for (std::size_t s = 0; s < min_margin.size(); ++s) {
    // Strictly below every calibration positive's margin: zero false rejects
    // on the calibration scenes for any slack ≥ 0.
    table.stages[s].reject_below = min_margin[s] - config.slack;
  }
  return table;
}

// --- threshold table serialization ------------------------------------------

std::string cascade_table_to_text(const CascadeTable& table) {
  // Fixed-format text with %a (hexfloat) thresholds: exact round-trip and a
  // byte stream that is a pure function of the table — the calibration
  // determinism tests diff these bytes directly.
  std::string out;
  char line[128];
  // The emitted version tracks the content, not the struct field: a table
  // without a prescreen always writes v1 bytes (back-compatible with every
  // pre-prescreen reader), one with a prescreen always writes v2.
  const std::uint32_t version = table.prescreen_words > 0
                                    ? kCascadeTableVersionPrescreen
                                    : kCascadeTableVersion;
  std::snprintf(line, sizeof(line), "hdface-cascade-table v%u\n", version);
  out += line;
  std::snprintf(line, sizeof(line), "seed 0x%llx\n",
                static_cast<unsigned long long>(table.seed));
  out += line;
  std::snprintf(line, sizeof(line), "dim %zu\n", table.dim);
  out += line;
  std::snprintf(line, sizeof(line), "classes %zu\n", table.classes);
  out += line;
  std::snprintf(line, sizeof(line), "positive %d\n", table.positive_class);
  out += line;
  std::snprintf(line, sizeof(line), "window %zu\n", table.window);
  out += line;
  std::snprintf(line, sizeof(line), "stride %zu\n", table.stride);
  out += line;
  if (table.prescreen_words > 0) {
    std::snprintf(line, sizeof(line), "prescreen %zu %a %a %a\n",
                  table.prescreen_words, table.prescreen_reject_below,
                  table.prescreen_vmax, table.prescreen_spread_below);
    out += line;
  }
  std::snprintf(line, sizeof(line), "stages %zu\n", table.stages.size());
  out += line;
  for (const CascadeStage& s : table.stages) {
    std::snprintf(line, sizeof(line), "stage %zu %a\n", s.words,
                  s.reject_below);
    out += line;
  }
  return out;
}

namespace {

[[noreturn]] void parse_fail(const std::string& what) {
  throw std::runtime_error("cascade_table_from_text: " + what);
}

// Reads one line; value parsing via strtoull/strtod (strtod accepts the %a
// hexfloats the writer emits). A NUL byte would cut the C parsers short and
// let the rest of the line through unread, so it is malformed.
std::string next_line(std::string_view& text) {
  const std::size_t nl = text.find('\n');
  if (nl == std::string_view::npos) parse_fail("truncated table");
  std::string line(text.substr(0, nl));
  if (line.find('\0') != std::string::npos) parse_fail("NUL byte in a line");
  text.remove_prefix(nl + 1);
  return line;
}

// strtoull on a token the writer printed: it starts with a digit (strtoull
// also takes a sign or spaces, wrapping "-1" to 2^64 − 1, and a second "0x"
// in base 16) and fits 64 bits.
unsigned long long parse_digits(const char* begin, char** end, int base,
                                const std::string& what) {
  errno = 0;
  const unsigned long long v = std::strtoull(begin, end, base);
  if (std::isxdigit(static_cast<unsigned char>(*begin)) == 0 ||
      (base == 16 && (begin[1] == 'x' || begin[1] == 'X')) || errno == ERANGE) {
    parse_fail("malformed " + what);
  }
  return v;
}

// "key value" in decimal, or "key 0x<hex>" for base 16 (never base 0, which
// reads a leading 0 as octal).
std::uint64_t parse_u64_field(std::string_view& text, const char* key,
                              int base = 10) {
  const std::string line = next_line(text);
  const std::string prefix = std::string(key) + (base == 16 ? " 0x" : " ");
  if (line.rfind(prefix, 0) != 0) parse_fail("expected '" + prefix + "...'");
  const char* begin = line.c_str() + prefix.size();
  char* end = nullptr;
  const unsigned long long v = parse_digits(begin, &end, base, prefix);
  if (end == begin || *end != '\0') parse_fail("malformed value for " + prefix);
  return static_cast<std::uint64_t>(v);
}

}  // namespace

CascadeTable cascade_table_from_text(std::string_view text) {
  CascadeTable table;
  const std::string header = next_line(text);
  const std::uint32_t version =
      header == "hdface-cascade-table v1"   ? kCascadeTableVersion
      : header == "hdface-cascade-table v2" ? kCascadeTableVersionPrescreen
                                            : 0;
  if (version == 0) parse_fail("bad magic or version line '" + header + "'");
  table.seed = parse_u64_field(text, "seed", 16);
  table.dim = static_cast<std::size_t>(parse_u64_field(text, "dim"));
  table.classes = static_cast<std::size_t>(parse_u64_field(text, "classes"));
  const std::uint64_t positive = parse_u64_field(text, "positive");
  if (positive > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    parse_fail("positive class out of range");
  }
  table.positive_class = static_cast<int>(positive);
  table.window = static_cast<std::size_t>(parse_u64_field(text, "window"));
  table.stride = static_cast<std::size_t>(parse_u64_field(text, "stride"));
  if (version >= kCascadeTableVersionPrescreen) {
    const std::string line = next_line(text);
    if (line.rfind("prescreen ", 0) != 0) parse_fail("expected 'prescreen ...'");
    const char* begin = line.c_str() + 10;
    char* end = nullptr;
    const unsigned long long words =
        parse_digits(begin, &end, 10, "prescreen words");
    if (end == begin || *end != ' ') parse_fail("malformed prescreen words");
    begin = end + 1;
    const double threshold = std::strtod(begin, &end);
    if (end == begin || *end != ' ') {
      parse_fail("malformed prescreen threshold");
    }
    begin = end + 1;
    const double vmax = std::strtod(begin, &end);
    if (end == begin || *end != ' ') {
      parse_fail("malformed prescreen normalization scale");
    }
    begin = end + 1;
    const double spread_below = std::strtod(begin, &end);
    if (end == begin || *end != '\0') {
      parse_fail("malformed prescreen spread floor");
    }
    if (words == 0) parse_fail("v2 table with zero prescreen words");
    table.prescreen_words = static_cast<std::size_t>(words);
    table.prescreen_reject_below = threshold;
    table.prescreen_vmax = vmax;
    table.prescreen_spread_below = spread_below;
  }
  const auto n_stages =
      static_cast<std::size_t>(parse_u64_field(text, "stages"));
  if (n_stages > 64) parse_fail("implausible stage count");
  for (std::size_t s = 0; s < n_stages; ++s) {
    const std::string line = next_line(text);
    if (line.rfind("stage ", 0) != 0) parse_fail("expected 'stage ...'");
    const char* begin = line.c_str() + 6;
    char* end = nullptr;
    const unsigned long long words =
        parse_digits(begin, &end, 10, "stage words");
    if (end == begin || *end != ' ') parse_fail("malformed stage words");
    begin = end + 1;
    const double threshold = std::strtod(begin, &end);
    if (end == begin || *end != '\0') parse_fail("malformed stage threshold");
    CascadeStage stage;
    stage.words = static_cast<std::size_t>(words);
    stage.reject_below = threshold;
    table.stages.push_back(stage);
  }
  if (!text.empty()) parse_fail("trailing content after the last stage");
  return table;
}

void save_cascade_table(const std::string& path, const CascadeTable& table) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("save_cascade_table: cannot open for write: " +
                             path);
  }
  const std::string text = cascade_table_to_text(table);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) throw std::runtime_error("save_cascade_table: write failed: " + path);
}

CascadeTable load_cascade_table(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("load_cascade_table: cannot open: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return cascade_table_from_text(buf.str());
}

// --- calibration workload ---------------------------------------------------

std::vector<image::Image> cascade_calibration_scenes(
    std::size_t count, std::size_t window, std::size_t width,
    std::size_t height, std::size_t faces_per_scene, std::uint64_t seed,
    dataset::BackgroundKind background) {
  if (width < window || height < window) {
    throw std::invalid_argument(
        "cascade_calibration_scenes: scene smaller than the window");
  }
  std::vector<image::Image> scenes;
  scenes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    core::Rng rng(core::mix64(core::mix64(seed, kCalibrationSceneSalt), i));
    image::Image scene(width, height, 0.5f);
    dataset::render_background(scene, background, rng);
    for (std::size_t f = 0; f < faces_per_scene; ++f) {
      const image::Image face =
          dataset::render_face_window(window, rng.next());
      // Paste origins snapped to multiples of 8 so faces sit exactly under a
      // scan window for every stride dividing 8 (the scan grids the golden
      // maps use) — calibration needs the exact path to fire on them.
      const std::size_t max_x = (width - window) / 8;
      const std::size_t max_y = (height - window) / 8;
      const auto x = static_cast<std::ptrdiff_t>(rng.below(max_x + 1) * 8);
      const auto y = static_cast<std::ptrdiff_t>(rng.below(max_y + 1) * 8);
      image::paste(scene, face, x, y);
    }
    // Sensor noise matched to the training windows (face_generator adds
    // the same to every dataset window): a noise-free scene is out of the
    // training distribution, and the classifier's background margins
    // collapse on it — which blunts the cascade's shallow stages.
    image::add_gaussian_noise(scene, rng, 0.03f);
    scenes.push_back(std::move(scene));
  }
  return scenes;
}

}  // namespace hdface::pipeline
