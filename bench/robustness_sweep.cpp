// End-to-end fault-injection robustness sweep (paper §6.6, Table 2 rows,
// extended to the full fault taxonomy of noise/fault_model.hpp).
//
// Unlike table2_robustness — which corrupts pre-extracted feature vectors —
// this sweep runs pipeline::FaultCampaign against *live* detectors: every
// cell writes its sampled fault pattern into the stored hypervector
// memories (item memories, mask pool, binarized prototypes) of a copy of the
// detector plus the in-flight query hypervectors, re-encodes the held-out
// set through the faulted storage, and scans a planted-face scene through
// the parallel detection engine. The comparison rows reproduce the paper's collapse
// cases: HOG on the original (fixed-point) representation and an 8-bit
// quantized DNN under the same bit-error rates.
//
// Output: bench_out/robustness_sweep.json. Exit code 0 iff the paper's
// qualitative ordering holds — the full-hyperspace detector stays within 5
// accuracy points of clean at 10% BER while both comparison rows lose more
// than it does.
//
// Usage:
//   ./build/bench/robustness_sweep [--train 100] [--test 48] [--threads N]

#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "dataset/background_generator.hpp"
#include "image/transform.hpp"
#include "learn/quantized_mlp.hpp"
#include "pipeline/fault_campaign.hpp"
#include "pipeline/features.hpp"
#include "pipeline/robustness.hpp"

namespace {

using namespace hdface;

constexpr double kRates[] = {0.0, 0.02, 0.05, 0.10, 0.15};
constexpr double kProbeRate = 0.10;  // the acceptance-check BER

double rate_accuracy(const std::vector<pipeline::FaultCampaignCell>& cells,
                     const std::string& subject, noise::FaultKind kind,
                     double rate) {
  for (const auto& c : cells) {
    if (c.subject == subject && c.kind == kind && c.rate == rate) {
      return c.accuracy;
    }
  }
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto n_train = static_cast<std::size_t>(args.get_int("train", 100));
  const auto n_test = static_cast<std::size_t>(args.get_int("test", 48));
  const auto threads = static_cast<std::size_t>(args.get_int("threads", 0));

  bench::print_header("Robustness sweep — fault-injection campaign",
                      "HDFace (DAC'22) Table 2, end-to-end");

  auto w = bench::make_face2(n_train, n_test);
  const std::size_t window = w.image_size();

  // Fig6-style scene with two planted faces for the detection-quality column.
  image::Image scene(2 * window, 2 * window, 0.5f);
  {
    core::Rng rng(0x5CE2E);
    dataset::render_background(scene, dataset::BackgroundKind::kMixed, rng);
    image::paste(scene, dataset::render_face_window(window, 21), 0, 0);
    image::paste(scene, dataset::render_face_window(window, 22),
                 static_cast<std::ptrdiff_t>(window),
                 static_cast<std::ptrdiff_t>(window));
  }
  const std::vector<pipeline::Detection> truth = {
      {0, 0, window, 0.0}, {window, window, window, 0.0}};

  // ---- HDFace full-hyperspace campaign (the tentpole subject) -------------
  pipeline::FaultCampaignConfig cc;
  cc.rates.assign(std::begin(kRates), std::end(kRates));
  cc.threads = threads;
  cc.stride = window / 4;
  pipeline::FaultCampaign campaign(cc);

  const std::vector<std::size_t> dims = {4096, 1024};
  for (const auto dim : dims) {
    auto cfg = bench::hdface_config(dim, pipeline::HdFaceMode::kHdHog,
                                    hog::HdHogMode::kDecodeShortcut);
    auto pipe = std::make_shared<pipeline::HdFacePipeline>(cfg, window, window,
                                                           w.classes());
    std::printf("training hdface_d%zu (%zu windows)...\n", dim,
                w.train.size());
    pipe->fit(w.train);
    campaign.add_subject("hdface_d" + std::to_string(dim), std::move(pipe),
                         window);
  }
  std::printf("campaign: %zu subjects x %zu kinds x %zu rates...\n",
              campaign.num_subjects(), cc.kinds.size(), cc.rates.size());
  const auto cells = campaign.run(w.test, scene, truth);

  // ---- comparison rows: orig-rep HOG and quantized DNN --------------------
  // Transient flips only — the representation-level collapse the paper's
  // table shows; persistent faults only make these rows worse.
  std::vector<double> orig_accs;
  {
    hog::HogConfig hog_cfg;
    hog_cfg.cell_size = 4;
    hog_cfg.bins = 8;
    hog::HogExtractor hog(hog_cfg);
    const auto train_f = pipeline::extract_hog_features(w.train, hog);
    const auto test_f = pipeline::extract_hog_features(w.test, hog);
    learn::EncoderConfig ec;
    ec.dim = dims.front();
    ec.input_dim = train_f.front().size();
    ec.gamma = 1.0;
    learn::NonlinearEncoder encoder(ec);
    encoder.calibrate(train_f);
    std::vector<core::Hypervector> encoded;
    encoded.reserve(train_f.size());
    for (const auto& f : train_f) encoded.push_back(encoder.encode(f));
    learn::HdcConfig hc;
    hc.dim = dims.front();
    hc.classes = w.classes();
    hc.epochs = 10;
    learn::HdcClassifier model(hc);
    model.fit(encoded, w.train.labels);
    for (const double rate : kRates) {
      double acc = 0.0;
      for (const std::uint64_t seed : {0xD0C1ull, 0xD0C2ull, 0xD0C3ull}) {
        acc += pipeline::hdc_orig_rep_accuracy_under_errors(
            model, encoder, test_f, w.test.labels, rate, seed);
      }
      orig_accs.push_back(acc / 3.0);
    }
    std::printf("orig-rep row swept\n");
  }

  std::vector<double> dnn_accs;
  {
    auto cfg = bench::dnn_config();
    pipeline::DnnPipeline dnn(cfg, window, window, w.classes());
    const auto train_f = dnn.extract_features(w.train);
    const auto test_f = dnn.extract_features(w.test);
    dnn.fit_features(train_f, w.train.labels);
    learn::QuantizedMlp q(dnn.mutable_mlp(), 8);
    for (const double rate : kRates) {
      double acc = 0.0;
      for (const std::uint64_t seed : {0xD0C1ull, 0xD0C2ull, 0xD0C3ull}) {
        acc += pipeline::dnn_accuracy_under_errors(q, test_f, w.test.labels,
                                                   rate, seed);
      }
      dnn_accs.push_back(acc / 3.0);
    }
    std::printf("dnn 8-bit row swept\n");
  }

  // ---- acceptance checks ---------------------------------------------------
  const std::string best = "hdface_d" + std::to_string(dims.front());
  const double hd_clean = rate_accuracy(
      cells, best, noise::FaultKind::kTransientFlip, 0.0);
  const double hd_probe = rate_accuracy(
      cells, best, noise::FaultKind::kTransientFlip, kProbeRate);
  const double hd_drop = hd_clean - hd_probe;
  const double orig_drop = orig_accs.front() - orig_accs[3];
  const double dnn_drop = dnn_accs.front() - dnn_accs[3];

  const bool hd_holds = hd_drop <= 0.05;
  const bool orig_collapses = orig_drop > hd_drop && orig_drop >= 0.15;
  const bool dnn_collapses = dnn_drop > hd_drop && dnn_drop >= 0.15;
  const bool pass = hd_holds && orig_collapses && dnn_collapses;

  util::Table table({"row", "0%", "2%", "5%", "10%", "15%"});
  for (const auto dim : dims) {
    const std::string subject = "hdface_d" + std::to_string(dim);
    for (const auto kind : cc.kinds) {
      std::vector<std::string> row = {subject + " " + fault_kind_name(kind)};
      for (const double rate : cc.rates) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.3f",
                      rate_accuracy(cells, subject, kind, rate));
        row.push_back(buf);
      }
      table.add_row(row);
    }
  }
  for (const auto* name : {"orig-rep fixed16", "DNN 8-bit"}) {
    const auto& accs = std::string(name) == "DNN 8-bit" ? dnn_accs : orig_accs;
    std::vector<std::string> row = {name};
    for (const double a : accs) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.3f", a);
      row.push_back(buf);
    }
    table.add_row(row);
  }
  std::printf("\naccuracy under fault injection:\n%s\n",
              table.to_string().c_str());
  std::printf("at %.0f%% BER: hdface drop %.3f | orig-rep drop %.3f | "
              "dnn drop %.3f -> %s\n",
              kProbeRate * 100.0, hd_drop, orig_drop, dnn_drop,
              pass ? "PASS" : "FAIL");

  // ---- JSON ----------------------------------------------------------------
  FILE* json = std::fopen("bench_out/robustness_sweep.json", "w");
  if (json) {
    std::fprintf(json,
                 "{\n"
                 "  \"workload\": \"%s\",\n"
                 "  \"train\": %zu,\n"
                 "  \"test\": %zu,\n"
                 "  \"window\": %zu,\n"
                 "  \"scene\": [%zu, %zu],\n"
                 "  \"cells\": [\n",
                 w.name.c_str(), n_train, n_test, window, scene.width(),
                 scene.height());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& c = cells[i];
      std::fprintf(
          json,
          "    {\"subject\": \"%s\", \"dim\": %zu, \"kind\": \"%s\", "
          "\"rate\": %.4f, \"accuracy\": %.6f, \"mean_best_iou\": %.6f, "
          "\"num_detections\": %zu, \"disturbed_fraction\": %.6f}%s\n",
          c.subject.c_str(), c.dim, fault_kind_name(c.kind), c.rate,
          c.accuracy, c.mean_best_iou, c.num_detections,
          c.faultable_bits
              ? static_cast<double>(c.disturbed_bits) /
                    static_cast<double>(c.faultable_bits)
              : 0.0,
          i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"orig_rep_fixed16\": [");
    for (std::size_t i = 0; i < orig_accs.size(); ++i) {
      std::fprintf(json, "%s{\"rate\": %.4f, \"accuracy\": %.6f}",
                   i ? ", " : "", kRates[i], orig_accs[i]);
    }
    std::fprintf(json, "],\n  \"dnn_8bit\": [");
    for (std::size_t i = 0; i < dnn_accs.size(); ++i) {
      std::fprintf(json, "%s{\"rate\": %.4f, \"accuracy\": %.6f}",
                   i ? ", " : "", kRates[i], dnn_accs[i]);
    }
    std::fprintf(json,
                 "],\n"
                 "  \"checks\": {\n"
                 "    \"probe_rate\": %.4f,\n"
                 "    \"hdface_drop\": %.6f,\n"
                 "    \"orig_rep_drop\": %.6f,\n"
                 "    \"dnn_drop\": %.6f,\n"
                 "    \"hdface_within_5pts\": %s,\n"
                 "    \"orig_rep_collapses\": %s,\n"
                 "    \"dnn_collapses\": %s,\n"
                 "    \"pass\": %s\n"
                 "  }\n"
                 "}\n",
                 kProbeRate, hd_drop, orig_drop, dnn_drop,
                 hd_holds ? "true" : "false", orig_collapses ? "true" : "false",
                 dnn_collapses ? "true" : "false", pass ? "true" : "false");
    std::fclose(json);
    std::printf("written: bench_out/robustness_sweep.json\n");
  }
  return pass ? 0 : 1;
}
