// The float-path HdcClassifier::scores() writes no state — no cached norms,
// no scratch member — so scans without a binary override may score one
// classifier from many threads at once. Under the tsan preset a cache
// written by scores() would show as a data race; in every build the
// concurrent results must equal the serial ones bit for bit.

#include <cstddef>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "learn/hdc_model.hpp"

namespace hdface::learn {
namespace {

TEST(HdcClassifierConcurrency, FloatScoresFromFourThreadsMatchSerial) {
  constexpr std::size_t kDim = 1000;
  core::Rng rng(0x5C0);
  std::vector<core::Hypervector> features;
  std::vector<int> labels;
  for (int i = 0; i < 24; ++i) {
    features.push_back(core::Hypervector::random(kDim, rng));
    labels.push_back(i % 3);
  }
  HdcConfig cfg;
  cfg.dim = kDim;
  cfg.classes = 3;
  cfg.epochs = 2;
  HdcClassifier model(cfg);
  model.fit(features, labels);
  ASSERT_FALSE(model.has_binary_override());

  std::vector<std::vector<double>> serial;
  for (const auto& f : features) serial.push_back(model.scores(f));

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 4;
  std::vector<std::vector<std::vector<double>>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&model, &features, &out = got[t]] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        for (const auto& f : features) out.push_back(model.scores(f));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), kRounds * features.size());
    for (std::size_t k = 0; k < got[t].size(); ++k) {
      EXPECT_EQ(got[t][k], serial[k % features.size()])
          << "thread " << t << ", call " << k;
    }
  }
}

}  // namespace
}  // namespace hdface::learn
