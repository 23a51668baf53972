// cascade_calibrate — deterministic offline calibration of cascade stage
// thresholds (DESIGN.md §13).
//
// Trains the repository-standard HD-HOG detector, renders the deterministic
// sparse calibration scenes (pipeline::cascade_calibration_scenes), runs the
// exact cell-plane scan on each to obtain the golden detection maps, and sets
// every stage threshold to (minimum positive-window margin − slack). The
// result is a versioned threshold table printed to stdout in its canonical
// text form and optionally saved with --out; the whole pass is a pure
// function of the flags, so two runs emit byte-identical tables.
//
// Usage:
//   cascade_calibrate [--dim 2048] [--train 80] [--epochs 10] [--window 32]
//                     [--stride 4] [--scenes 3] [--scene-width 160]
//                     [--scene-height 120] [--faces 2] [--slack 0.02]
//                     [--stages 0.0625,0.25] [--seed 42] [--scene-seed 51966]
//                     [--threads 0] [--background mixed]
//                     [--out cascade_table.txt]
//
// The defaults calibrate quickly; for sharper stages use the benchmark
// model's stage recipe (hdbench/, tests/pipeline/fast_path_gates_test.cpp:
// --dim 4096 --train 400 --epochs 30 --window 32 --stride 8 --slack 0.001
// --stages 0.0625,0.125,0.25,0.5): rejection power is a property of the
// classifier's margins, not of the cascade machinery. The tool has no
// prescreen flag, so it emits v1 tables only and cannot reproduce the
// benchmark's v2 table (stages plus a cell-subset prescreen). --threads 0
// (the default) scans on the global worker pool, 1 serially; the table is
// byte-identical at any thread count.

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/detector.hpp"
#include "dataset/face_generator.hpp"
#include "pipeline/cascade.hpp"
#include "pipeline/hdface_pipeline.hpp"
#include "util/args.hpp"

namespace {

using namespace hdface;

std::vector<double> parse_fractions(const std::string& csv) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t next = csv.find(',', pos);
    if (next == std::string::npos) next = csv.size();
    out.push_back(std::stod(csv.substr(pos, next - pos)));
    pos = next + 1;
  }
  if (out.empty()) throw std::invalid_argument("--stages: no fractions");
  return out;
}

dataset::BackgroundKind parse_background(const std::string& name) {
  if (name == "value-noise") return dataset::BackgroundKind::kValueNoise;
  if (name == "stripes") return dataset::BackgroundKind::kStripes;
  if (name == "blobs") return dataset::BackgroundKind::kBlobs;
  if (name == "gradient") return dataset::BackgroundKind::kGradient;
  if (name == "checker") return dataset::BackgroundKind::kChecker;
  if (name == "mixed") return dataset::BackgroundKind::kMixed;
  throw std::invalid_argument("--background: unknown kind '" + name + "'");
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 2048));
  const auto n_train = static_cast<std::size_t>(args.get_int("train", 80));
  const auto epochs = static_cast<std::size_t>(args.get_int("epochs", 10));
  const auto window = static_cast<std::size_t>(args.get_int("window", 32));
  const auto stride = static_cast<std::size_t>(args.get_int("stride", 4));
  const auto n_scenes = static_cast<std::size_t>(args.get_int("scenes", 3));
  const auto scene_w =
      static_cast<std::size_t>(args.get_int("scene-width", 160));
  const auto scene_h =
      static_cast<std::size_t>(args.get_int("scene-height", 120));
  const auto faces = static_cast<std::size_t>(args.get_int("faces", 2));
  const double slack = args.get_double("slack", 0.02);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const auto scene_seed =
      static_cast<std::uint64_t>(args.get_int("scene-seed", 0xCAFE));
  const std::vector<double> fractions =
      parse_fractions(args.get("stages", "0.0625,0.25"));

  // The repository-standard HD-HOG configuration (bench::hdface_config shape)
  // trained on FACE2-style windows at the detector's geometry.
  pipeline::HdFaceConfig config;
  config.dim = dim;
  config.hog.cell_size = 4;
  config.hog.bins = 8;
  config.epochs = epochs;
  config.seed = seed;
  api::Detector det = api::DetectorBuilder()
                          .window(window)
                          .classes(2)
                          .config(config)
                          .build();
  auto train_cfg = dataset::face2_config(n_train, seed);
  train_cfg.image_size = window;
  const auto train = make_face_dataset(train_cfg);
  std::fprintf(stderr, "training (D=%zu, %zu windows of %zupx)...\n", dim,
               train.size(), window);
  det.fit(train);
  // Calibrate in binary Hamming inference mode: the prefix margins and the
  // golden decisions must live in the same binarized-prototype geometry for
  // the thresholds to have rejection power. Under cosine inference a
  // float-positive window can lose in binary space, and that one outlier
  // drags every calibrated threshold below the background margins.
  det.pipeline()->mutable_classifier().set_binary_override(
      det.pipeline()->classifier().binary_prototypes());

  const auto scenes = pipeline::cascade_calibration_scenes(
      n_scenes, window, scene_w, scene_h, faces, scene_seed,
      parse_background(args.get("background", "mixed")));

  pipeline::CascadeCalibrationConfig cc;
  cc.stage_fractions = fractions;
  cc.slack = slack;
  cc.window = window;
  cc.stride = stride;
  cc.positive_class = 1;
  cc.threads = static_cast<std::size_t>(
      args.get_int("threads", static_cast<std::int64_t>(cc.threads)));
  std::fprintf(stderr,
               "calibrating over %zu scene(s) of %zux%zu (%zu faces each)...\n",
               scenes.size(), scene_w, scene_h, faces);
  const pipeline::CascadeTable table =
      pipeline::calibrate_cascade(*det.pipeline(), scenes, cc);

  const std::string text = pipeline::cascade_table_to_text(table);
  std::printf("%s", text.c_str());
  if (args.has("out")) {
    const std::string out = args.get("out", "cascade_table.txt");
    pipeline::save_cascade_table(out, table);
    std::fprintf(stderr, "written: %s\n", out.c_str());
  }
  return 0;
}
