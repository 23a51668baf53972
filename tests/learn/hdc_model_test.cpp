#include "learn/hdc_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/stochastic.hpp"

namespace hdface::learn {
namespace {

// Synthetic hyperspace classification task: each class is a random anchor
// hypervector; samples are noisy copies (a fraction of bits flipped).
struct HvTask {
  std::vector<core::Hypervector> features;
  std::vector<int> labels;
  std::vector<core::Hypervector> anchors;
};

HvTask make_task(std::size_t dim, std::size_t classes, std::size_t per_class,
                 double noise, std::uint64_t seed) {
  core::Rng rng(seed);
  HvTask task;
  for (std::size_t c = 0; c < classes; ++c) {
    task.anchors.push_back(core::Hypervector::random(dim, rng));
  }
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      core::Hypervector v = task.anchors[c];
      for (std::size_t d = 0; d < dim; ++d) {
        if (rng.uniform() < noise) v.flip(d);
      }
      task.features.push_back(std::move(v));
      task.labels.push_back(static_cast<int>(c));
    }
  }
  return task;
}

TEST(HdcClassifier, ValidatesConfig) {
  HdcConfig c;
  c.classes = 1;
  EXPECT_THROW(HdcClassifier{c}, std::invalid_argument);
}

TEST(HdcClassifier, RejectsBadLabel) {
  HdcConfig c;
  c.dim = 256;
  HdcClassifier model(c);
  core::Rng rng(1);
  EXPECT_THROW(model.update(core::Hypervector::random(256, rng), 5),
               std::invalid_argument);
}

TEST(HdcClassifier, FitRejectsMismatchedInputs) {
  HdcConfig c;
  c.dim = 128;
  HdcClassifier model(c);
  EXPECT_THROW(model.fit({}, {}), std::invalid_argument);
}

TEST(HdcClassifier, LearnsSeparableTask) {
  const auto task = make_task(2048, 3, 20, 0.15, 42);
  HdcConfig c;
  c.dim = 2048;
  c.classes = 3;
  c.epochs = 3;
  HdcClassifier model(c);
  model.fit(task.features, task.labels);
  EXPECT_GT(model.evaluate(task.features, task.labels), 0.95);
}

TEST(HdcClassifier, SinglePassAlreadyGood) {
  const auto task = make_task(2048, 2, 30, 0.2, 43);
  HdcConfig c;
  c.dim = 2048;
  c.classes = 2;
  c.epochs = 1;  // single-pass learning (paper's headline capability)
  HdcClassifier model(c);
  model.fit(task.features, task.labels);
  EXPECT_GT(model.evaluate(task.features, task.labels), 0.9);
}

TEST(HdcClassifier, GeneralizesToUnseenNoisyCopies) {
  const auto train = make_task(2048, 3, 25, 0.2, 44);
  HdcConfig c;
  c.dim = 2048;
  c.classes = 3;
  HdcClassifier model(c);
  model.fit(train.features, train.labels);
  // Fresh noisy copies of the same anchors.
  core::Rng rng(999);
  std::size_t hits = 0;
  const std::size_t trials = 60;
  for (std::size_t t = 0; t < trials; ++t) {
    const auto cls = t % 3;
    core::Hypervector v = train.anchors[cls];
    for (std::size_t d = 0; d < v.dim(); ++d) {
      if (rng.uniform() < 0.2) v.flip(d);
    }
    if (model.predict(v) == static_cast<int>(cls)) ++hits;
  }
  EXPECT_GT(static_cast<double>(hits) / trials, 0.9);
}

TEST(HdcClassifier, AdaptiveBeatsNaiveOnOverlappingClasses) {
  // Overlapping task: anchors correlated, high noise. Naive bundling
  // saturates prototypes with shared content; adaptive updates focus on
  // discriminative samples (the paper's overfitting argument).
  core::Rng rng(7);
  const std::size_t dim = 2048;
  const auto base = core::Hypervector::random(dim, rng);
  std::vector<core::Hypervector> anchors;
  for (int c = 0; c < 2; ++c) {
    core::Hypervector a = base;
    for (std::size_t d = 0; d < dim; ++d) {
      if (rng.uniform() < 0.15) a.flip(d);  // anchors share 70% of bits
    }
    anchors.push_back(std::move(a));
  }
  std::vector<core::Hypervector> features;
  std::vector<int> labels;
  for (int i = 0; i < 80; ++i) {
    const int cls = i % 2;
    core::Hypervector v = anchors[static_cast<std::size_t>(cls)];
    for (std::size_t d = 0; d < dim; ++d) {
      if (rng.uniform() < 0.25) v.flip(d);
    }
    features.push_back(std::move(v));
    labels.push_back(cls);
  }
  HdcConfig adaptive_cfg;
  adaptive_cfg.dim = dim;
  adaptive_cfg.classes = 2;
  adaptive_cfg.epochs = 5;
  HdcConfig naive_cfg = adaptive_cfg;
  naive_cfg.adaptive = false;
  HdcClassifier adaptive(adaptive_cfg);
  HdcClassifier naive(naive_cfg);
  adaptive.fit(features, labels);
  naive.fit(features, labels);
  EXPECT_GE(adaptive.evaluate(features, labels),
            naive.evaluate(features, labels));
}

TEST(HdcClassifier, ScoresAreCosineBounded) {
  const auto task = make_task(1024, 2, 10, 0.1, 45);
  HdcConfig c;
  c.dim = 1024;
  c.classes = 2;
  HdcClassifier model(c);
  model.fit(task.features, task.labels);
  const auto s = model.scores(task.features[0]);
  for (double v : s) {
    EXPECT_GE(v, -1.0001);
    EXPECT_LE(v, 1.0001);
  }
}

TEST(HdcClassifier, BinaryPrototypesPredictLikeFloatModel) {
  const auto task = make_task(4096, 3, 20, 0.15, 46);
  HdcConfig c;
  c.dim = 4096;
  c.classes = 3;
  HdcClassifier model(c);
  model.fit(task.features, task.labels);
  const auto protos = model.binary_prototypes();
  std::size_t agree = 0;
  for (const auto& f : task.features) {
    if (HdcClassifier::predict_binary(protos, f) == model.predict(f)) ++agree;
  }
  EXPECT_GT(static_cast<double>(agree) / task.features.size(), 0.9);
}

TEST(HdcClassifier, DeterministicTraining) {
  const auto task = make_task(512, 2, 10, 0.1, 47);
  HdcConfig c;
  c.dim = 512;
  c.classes = 2;
  HdcClassifier m1(c);
  HdcClassifier m2(c);
  m1.fit(task.features, task.labels);
  m2.fit(task.features, task.labels);
  for (const auto& f : task.features) {
    EXPECT_EQ(m1.predict(f), m2.predict(f));
  }
}

// Element-wise reference learner: cosine, norm and add read each dimension
// through Hypervector::element, one class at a time, and charge the same ops.
// HdcClassifier's fused word-wise pass must reproduce it bit for bit.
struct ElementWiseLearner {
  explicit ElementWiseLearner(const HdcConfig& cfg)
      : config(cfg),
        counts(cfg.classes, std::vector<double>(cfg.dim, 0.0)),
        rng(core::mix64(cfg.seed, 0xC1A55)) {}

  double cosine(std::size_t c, const core::Hypervector& v) {
    double dot = 0.0;
    double nrm = 0.0;
    for (std::size_t i = 0; i < config.dim; ++i) {
      dot += counts[c][i] * static_cast<double>(v.element(i));
      nrm += counts[c][i] * counts[c][i];
    }
    ops.add(core::OpKind::kFloatMul, 2 * config.dim);
    ops.add(core::OpKind::kFloatAdd, 2 * config.dim);
    if (nrm == 0.0) return 0.0;
    return dot / (std::sqrt(nrm) * std::sqrt(static_cast<double>(config.dim)));
  }

  double norm(std::size_t c) const {
    double nrm = 0.0;
    for (const double x : counts[c]) nrm += x * x;
    return std::sqrt(nrm);
  }

  void add(std::size_t c, const core::Hypervector& v, double weight) {
    for (std::size_t i = 0; i < config.dim; ++i) {
      counts[c][i] += weight * static_cast<double>(v.element(i));
    }
    ops.add(core::OpKind::kIntAdd, config.dim);
  }

  std::vector<double> scores(const core::Hypervector& v) {
    std::vector<double> s(config.classes);
    for (std::size_t c = 0; c < config.classes; ++c) s[c] = cosine(c, v);
    return s;
  }

  void update(const core::Hypervector& v, int label) {
    const auto y = static_cast<std::size_t>(label);
    if (!config.adaptive) {
      add(y, v, config.learning_rate);
      return;
    }
    const std::vector<double> s = scores(v);
    const auto pred = static_cast<std::size_t>(
        std::max_element(s.begin(), s.end()) - s.begin());
    if (pred == y && norm(y) > 0.0) return;
    add(y, v, config.learning_rate * (1.0 - s[y]));
    if (pred != y && norm(pred) > 0.0) {
      add(pred, v, -config.learning_rate * (1.0 - s[pred]));
    }
  }

  void fit(const std::vector<core::Hypervector>& features,
           const std::vector<int>& labels) {
    std::vector<std::size_t> order(features.size());
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.below(i)]);
      }
      for (const std::size_t idx : order) update(features[idx], labels[idx]);
    }
  }

  HdcConfig config;
  std::vector<std::vector<double>> counts;
  core::Rng rng;
  core::OpCounter ops;
};

void expect_bits_equal(const std::vector<double>& got,
                       const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " [" << i << "]: " << got[i] << " vs " << want[i];
  }
}

TEST(HdcClassifier, FitMatchesElementWiseOracleBitForBit) {
  // 1000 and 10000 end in a partial word (1000 % 64 = 40, 10000 % 64 = 16).
  for (const std::size_t dim : {1000u, 4096u, 10000u}) {
    for (const std::size_t classes : {2u, 7u}) {
      for (const bool adaptive : {true, false}) {
        SCOPED_TRACE(::testing::Message() << "dim " << dim << ", classes "
                                          << classes << ", adaptive "
                                          << adaptive);
        const auto task = make_task(dim, classes, 5, 0.3, 50 + dim + classes);
        HdcConfig cfg;
        cfg.dim = dim;
        cfg.classes = classes;
        cfg.epochs = 3;
        cfg.learning_rate = 0.75;
        cfg.adaptive = adaptive;
        HdcClassifier model(cfg);
        core::OpCounter counter;
        model.set_counter(&counter);
        ElementWiseLearner oracle(cfg);

        // All-zero model: every score is the oracle's (0.0).
        expect_bits_equal(model.scores(task.features[0]),
                          oracle.scores(task.features[0]), "untrained scores");
        counter.reset();
        oracle.ops.reset();

        model.fit(task.features, task.labels);
        oracle.fit(task.features, task.labels);
        for (std::size_t c = 0; c < classes; ++c) {
          expect_bits_equal(model.prototype(c).counts(), oracle.counts[c],
                            "prototype counts");
        }
        for (std::size_t k = 0; k < core::kOpKindCount; ++k) {
          EXPECT_EQ(counter.counts[k], oracle.ops.counts[k])
              << core::op_kind_name(static_cast<core::OpKind>(k));
        }
        for (const std::size_t i : {std::size_t{0}, task.features.size() - 1}) {
          const core::Hypervector& v = task.features[i];
          const std::vector<double> want = oracle.scores(v);
          expect_bits_equal(model.scores(v), want, "trained scores");
          for (std::size_t c = 0; c < classes; ++c) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(model.prototype(c).cosine(v)),
                      std::bit_cast<std::uint64_t>(want[c]));
            EXPECT_EQ(std::bit_cast<std::uint64_t>(model.prototype(c).norm()),
                      std::bit_cast<std::uint64_t>(oracle.norm(c)));
          }
        }
      }
    }
  }
}

TEST(HdcClassifier, PredictBinaryRequiresPrototypes) {
  core::Rng rng(3);
  EXPECT_THROW(
      HdcClassifier::predict_binary(std::vector<core::Hypervector>{},
                                    core::Hypervector::random(64, rng)),
      std::invalid_argument);
  EXPECT_THROW(
      HdcClassifier::predict_binary(core::PrototypeBlock{},
                                    core::Hypervector::random(64, rng)),
      std::invalid_argument);
}

TEST(HdcClassifier, UpdateUnderOverrideThrows) {
  // A binary override is faulted prototype memory: training through it
  // would absorb the faults, so update() refuses and leaves the float
  // accumulators as they were.
  HdcConfig hc;
  hc.dim = 256;
  hc.classes = 2;
  HdcClassifier model(hc);
  core::Rng rng(5);
  const auto feature = core::Hypervector::random(256, rng);
  EXPECT_NO_THROW(model.update(feature, 1));  // no override yet
  const std::vector<double> trained = model.prototype(1).counts();
  model.set_binary_override(model.binary_prototypes());
  EXPECT_THROW(model.update(feature, 1), std::logic_error);
  EXPECT_EQ(model.prototype(1).counts(), trained);
}

}  // namespace
}  // namespace hdface::learn
