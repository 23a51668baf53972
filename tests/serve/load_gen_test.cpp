#include "serve/load_gen.hpp"

#include <set>

#include <gtest/gtest.h>

namespace hdface::serve {
namespace {

constexpr std::size_t kWindow = 16;

bool images_identical(const image::Image& a, const image::Image& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  const auto pa = a.pixels();
  const auto pb = b.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (pa[i] != pb[i]) return false;
  }
  return true;
}

// make(i) is a pure function of (config, window, i): two independently
// constructed factories produce byte-equal request streams. This purity is
// what lets the benchmark's served workload replay the stream through direct
// detect calls to check every served response.
TEST(RequestFactory, RequestStreamIsPure) {
  LoadGenConfig config;
  config.tenants = 3;
  const RequestFactory a(kWindow, config);
  const RequestFactory b(kWindow, config);
  for (std::uint64_t i = 0; i < 32; ++i) {
    ASSERT_EQ(a.kind_of(i), b.kind_of(i)) << "request " << i;
    const api::Request ra = a.make(i);
    const api::Request rb = b.make(i);
    ASSERT_EQ(ra.id, i);
    ASSERT_EQ(ra.tenant, rb.tenant);
    ASSERT_EQ(ra.tenant, i % config.tenants);
    ASSERT_EQ(ra.options.stride, rb.options.stride);
    ASSERT_EQ(ra.options.scales, rb.options.scales);
    ASSERT_EQ(ra.options.nms, rb.options.nms);
    ASSERT_EQ(ra.options.fault_plan.has_value(),
              rb.options.fault_plan.has_value());
    if (ra.options.fault_plan) {
      ASSERT_EQ(ra.options.fault_plan->seed, rb.options.fault_plan->seed);
      ASSERT_EQ(ra.options.fault_plan->model.rate,
                rb.options.fault_plan->model.rate);
    }
    ASSERT_TRUE(images_identical(ra.scene, rb.scene)) << "request " << i;
  }
}

TEST(RequestFactory, DifferentSeedsDifferentStreams) {
  LoadGenConfig config;
  const RequestFactory a(kWindow, config);
  config.seed = config.seed + 1;
  const RequestFactory b(kWindow, config);
  bool any_difference = false;
  for (std::uint64_t i = 0; i < 32 && !any_difference; ++i) {
    any_difference = a.kind_of(i) != b.kind_of(i) ||
                     !images_identical(a.make(i).scene, b.make(i).scene);
  }
  EXPECT_TRUE(any_difference);
}

TEST(RequestFactory, DefaultMixCoversAllKinds) {
  const RequestFactory factory(kWindow, LoadGenConfig{});
  std::set<MixKind> seen;
  for (std::uint64_t i = 0; i < 64; ++i) seen.insert(factory.kind_of(i));
  EXPECT_EQ(seen.size(), 3u);  // every request shape appears in the default mix
}

TEST(RequestFactory, RequestShapesMatchTheirKind) {
  const RequestFactory factory(kWindow, LoadGenConfig{});
  for (std::uint64_t i = 0; i < 32; ++i) {
    const api::Request request = factory.make(i);
    switch (factory.kind_of(i)) {
      case MixKind::kSingleWindow:
        EXPECT_EQ(request.scene.width(), kWindow);
        EXPECT_EQ(request.options.stride, kWindow);
        EXPECT_FALSE(request.options.fault_plan.has_value());
        break;
      case MixKind::kMultiscaleScene:
        EXPECT_EQ(request.scene.width(), 3 * kWindow);
        EXPECT_EQ(request.options.scales.size(), 2u);
        EXPECT_TRUE(request.options.nms);
        break;
      case MixKind::kFaultedQuery:
        EXPECT_EQ(request.scene.width(), 3 * kWindow);
        EXPECT_TRUE(request.options.fault_plan.has_value());
        break;
    }
  }
}

}  // namespace
}  // namespace hdface::serve
