#include "learn/hdc_model.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/check.hpp"

namespace hdface::learn {

namespace {
constexpr const char* kWidthMismatch =
    "scores: query hypervector width does not match the prototype width this "
    "classifier was trained at";
}  // namespace

HdcClassifier::HdcClassifier(const HdcConfig& config)
    : config_(config), rng_(core::mix64(config.seed, 0xC1A55)) {
  if (config.classes < 2) throw std::invalid_argument("HdcClassifier: need >= 2 classes");
  prototypes_.reserve(config.classes);
  for (std::size_t c = 0; c < config.classes; ++c) {
    prototypes_.emplace_back(config.dim);
  }
}

void HdcClassifier::set_counter(core::OpCounter* counter) {
  counter_ = counter;
  for (auto& p : prototypes_) p.set_counter(counter);
}

bool HdcClassifier::update(const core::Hypervector& feature, int label) {
  if (has_binary_override()) {
    throw std::logic_error(
        "HdcClassifier::update: training while a binary override (faulted "
        "prototype memory) is active would corrupt the clean model");
  }
  const auto y = static_cast<std::size_t>(label);
  if (y >= config_.classes) throw std::invalid_argument("HdcClassifier: bad label");

  if (!config_.adaptive) {
    prototypes_[y].add(feature, config_.learning_rate);
    return true;
  }
  const FloatScores f = float_scores(feature);
  const std::vector<double>& s = f.cosine;
  const auto pred = static_cast<std::size_t>(
      std::max_element(s.begin(), s.end()) - s.begin());
  // norm2 > 0 exactly when norm() > 0: the same sum, before the sqrt.
  if (pred == y && f.norm2[y] > 0.0) {
    // Correct and confident enough: memorize nothing (saturation control).
    return true;
  }
  // Reinforce the true class proportionally to how far it was from firing,
  // and push the confused class away symmetrically.
  prototypes_[y].add(feature, config_.learning_rate * (1.0 - s[y]));
  if (pred != y && f.norm2[pred] > 0.0) {
    prototypes_[pred].add(feature, -config_.learning_rate * (1.0 - s[pred]));
  }
  return pred == y;
}

void HdcClassifier::fit(const std::vector<core::Hypervector>& features,
                        const std::vector<int>& labels) {
  if (features.size() != labels.size() || features.empty()) {
    throw std::invalid_argument("HdcClassifier::fit: bad inputs");
  }
  std::vector<std::size_t> order(features.size());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng_.below(i)]);
    }
    for (auto idx : order) update(features[idx], labels[idx]);
  }
}

HdcClassifier::FloatScores HdcClassifier::float_scores(
    const core::Hypervector& feature) const {
  HD_CHECK(feature.dim() == config_.dim, kWidthMismatch);
  FloatScores f{std::vector<double>(config_.classes),
                std::vector<double>(config_.classes)};
  // f.cosine holds the dot products until the readout below.
  core::dot_norm2_many(prototypes_, feature, f.cosine, f.norm2, counter_);
  for (std::size_t c = 0; c < config_.classes; ++c) {
    f.cosine[c] = core::cosine_from(f.cosine[c], f.norm2[c], config_.dim);
  }
  return f;
}

std::vector<double> HdcClassifier::scores(const core::Hypervector& feature) const {
  if (!has_binary_override()) return float_scores(feature).cosine;
  HD_CHECK(feature.dim() == config_.dim, kWidthMismatch);
  // Batched SoA similarity search: one kernel pass over the query's words
  // against all class planes, then the δ = 1 − 2h/D readout.
  const auto h = binary_block_.hamming_many(feature, counter_);
  std::vector<double> s(config_.classes);
  for (std::size_t c = 0; c < config_.classes; ++c) {
    s[c] = 1.0 - 2.0 * static_cast<double>(h[c]) /
                     static_cast<double>(config_.dim);
  }
  return s;
}

void HdcClassifier::set_binary_override(
    std::vector<core::Hypervector> prototypes) {
  if (prototypes.size() != config_.classes) {
    throw std::invalid_argument("set_binary_override: class count mismatch");
  }
  for (const auto& p : prototypes) {
    if (p.dim() != config_.dim) {
      throw std::invalid_argument("set_binary_override: dimensionality mismatch");
    }
  }
  binary_override_ = std::move(prototypes);
  binary_block_ = core::PrototypeBlock(binary_override_);
}

int HdcClassifier::predict(const core::Hypervector& feature) const {
  const auto s = scores(feature);
  return static_cast<int>(std::max_element(s.begin(), s.end()) - s.begin());
}

std::vector<int> HdcClassifier::predict(
    const std::vector<core::Hypervector>& features) const {
  std::vector<int> out;
  out.reserve(features.size());
  for (const auto& f : features) out.push_back(predict(f));
  return out;
}

double HdcClassifier::evaluate(const std::vector<core::Hypervector>& features,
                               const std::vector<int>& labels) const {
  if (features.size() != labels.size() || features.empty()) {
    throw std::invalid_argument("HdcClassifier::evaluate: bad inputs");
  }
  std::size_t hits = 0;
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (predict(features[i]) == labels[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(features.size());
}

std::vector<core::Hypervector> HdcClassifier::binary_prototypes() const {
  std::vector<core::Hypervector> out;
  out.reserve(prototypes_.size());
  core::Rng tie_rng(core::mix64(config_.seed, 0xB1A));
  for (const auto& p : prototypes_) out.push_back(p.threshold(tie_rng));
  return out;
}

int HdcClassifier::predict_binary(const std::vector<core::Hypervector>& prototypes,
                                  const core::Hypervector& feature) {
  if (prototypes.empty()) throw std::invalid_argument("predict_binary: no prototypes");
  const auto h = core::hamming_many(feature, prototypes);
  int best = 0;
  for (std::size_t c = 1; c < h.size(); ++c) {
    if (h[c] < h[static_cast<std::size_t>(best)]) best = static_cast<int>(c);
  }
  return best;
}

int HdcClassifier::predict_binary(const core::PrototypeBlock& prototypes,
                                  const core::Hypervector& feature) {
  if (prototypes.empty()) throw std::invalid_argument("predict_binary: no prototypes");
  const auto h = prototypes.hamming_many(feature);
  int best = 0;
  for (std::size_t c = 1; c < h.size(); ++c) {
    if (h[c] < h[static_cast<std::size_t>(best)]) best = static_cast<int>(c);
  }
  return best;
}

}  // namespace hdface::learn
