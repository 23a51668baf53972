#include "util/latency_histogram.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.hpp"

namespace hdface::util {
namespace {

// The quantile probes every merge test compares at.
constexpr double kProbes[] = {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0};

std::vector<std::uint64_t> log_uniform_samples(std::size_t n,
                                               std::uint64_t seed) {
  // Latencies spanning ns to minutes: value = 2^e * mantissa-ish, so every
  // histogram octave gets traffic.
  std::vector<std::uint64_t> values;
  values.reserve(n);
  core::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t exponent = rng.below(41);  // up to ~2.2e12 ns
    const std::uint64_t base = std::uint64_t{1} << exponent;
    values.push_back(base + rng.below(base));
  }
  return values;
}

TEST(LatencyHistogram, EmptyHistogramIsAllZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_TRUE(h.nonzero_buckets().empty());
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  // Contract: values below kSubBucketCount land in their own bucket.
  for (std::uint64_t v = 0; v < LatencyHistogram::kSubBucketCount; ++v) {
    EXPECT_EQ(LatencyHistogram::bucket_upper(LatencyHistogram::bucket_index(v)),
              v)
        << "value " << v;
  }
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  // rank = ceil(q * count) over exact buckets: quantiles are exact values.
  EXPECT_EQ(h.quantile(0.5), 50u);
  EXPECT_EQ(h.quantile(0.99), 99u);
  EXPECT_EQ(h.quantile(1.0), 100u);
  EXPECT_EQ(h.quantile(0.0), 1u);
}

TEST(LatencyHistogram, BucketIndexRoundTripsAndIsMonotone) {
  std::uint64_t prev_upper = 0;
  for (std::size_t i = 0; i < LatencyHistogram::bucket_count(); ++i) {
    const std::uint64_t upper = LatencyHistogram::bucket_upper(i);
    if (i > 0) {
      ASSERT_GT(upper, prev_upper) << "bucket " << i;
    }
    ASSERT_EQ(LatencyHistogram::bucket_index(upper), i) << "bucket " << i;
    prev_upper = upper;
  }
  // The top bucket absorbs the whole uint64 range.
  EXPECT_EQ(LatencyHistogram::bucket_index(~std::uint64_t{0}),
            LatencyHistogram::bucket_count() - 1);
}

TEST(LatencyHistogram, RelativeErrorBoundHolds) {
  // A recorded value's bucket upper edge overstates it by at most
  // value / kSubBucketHalf (the documented < 1.6% bound).
  for (const std::uint64_t v : log_uniform_samples(2000, 0xE44)) {
    const std::uint64_t upper =
        LatencyHistogram::bucket_upper(LatencyHistogram::bucket_index(v));
    ASSERT_GE(upper, v);
    ASSERT_LE(upper - v, v / LatencyHistogram::kSubBucketHalf + 1)
        << "value " << v << " upper " << upper;
  }
}

TEST(LatencyHistogram, QuantileClampsToObservedExtremes) {
  LatencyHistogram h;
  h.record(1000);  // bucket upper edge is > 1000 (7 significant bits)
  EXPECT_EQ(h.quantile(0.5), 1000u);
  EXPECT_EQ(h.quantile(1.0), 1000u);
  h.record(2000);
  EXPECT_EQ(h.quantile(0.0), 1000u);
  EXPECT_EQ(h.quantile(1.0), 2000u);
}

// The serving-layer contract: shard histograms merged in any partition and
// any order give bit-identical statistics to one histogram that saw every
// sample. Exercised at several shard counts, two partition schemes, and
// forward/reverse merge orders.
TEST(LatencyHistogram, ShardMergeIsExactAtAnyCountPartitionAndOrder) {
  const auto values = log_uniform_samples(3000, 0x5EED);

  LatencyHistogram reference;
  for (const auto v : values) reference.record(v);
  const auto reference_buckets = reference.nonzero_buckets();

  for (const std::size_t shards : {2u, 3u, 7u}) {
    for (const bool round_robin : {true, false}) {
      // Partition: round-robin interleave or contiguous blocks.
      std::vector<LatencyHistogram> shard(shards);
      const std::size_t block = (values.size() + shards - 1) / shards;
      for (std::size_t i = 0; i < values.size(); ++i) {
        const std::size_t s = round_robin ? i % shards : i / block;
        shard[s].record(values[i]);
      }

      LatencyHistogram forward;
      for (std::size_t s = 0; s < shards; ++s) forward.merge(shard[s]);
      LatencyHistogram reverse;
      for (std::size_t s = shards; s-- > 0;) reverse.merge(shard[s]);

      for (const LatencyHistogram* merged : {&forward, &reverse}) {
        ASSERT_EQ(merged->count(), reference.count());
        ASSERT_EQ(merged->sum(), reference.sum());
        ASSERT_EQ(merged->min(), reference.min());
        ASSERT_EQ(merged->max(), reference.max());
        // Exact, and ordered: p50 <= p99 <= p999 <= max.
        std::uint64_t previous = 0;
        for (const double q : kProbes) {
          const std::uint64_t value = merged->quantile(q);
          ASSERT_EQ(value, reference.quantile(q))
              << "shards " << shards << " rr " << round_robin << " q " << q;
          ASSERT_GE(value, previous)
              << "shards " << shards << " rr " << round_robin << " q " << q;
          previous = value;
        }
        const auto buckets = merged->nonzero_buckets();
        ASSERT_EQ(buckets.size(), reference_buckets.size());
        for (std::size_t b = 0; b < buckets.size(); ++b) {
          ASSERT_EQ(buckets[b].upper, reference_buckets[b].upper);
          ASSERT_EQ(buckets[b].count, reference_buckets[b].count);
        }
      }
    }
  }
}

TEST(LatencyHistogram, MergeTreeEqualsMergeChain) {
  // Associativity: ((a+b)+(c+d)) == (((a+b)+c)+d).
  const auto values = log_uniform_samples(400, 0xABCD);
  std::vector<LatencyHistogram> shard(4);
  for (std::size_t i = 0; i < values.size(); ++i) {
    shard[i % 4].record(values[i]);
  }
  LatencyHistogram left;
  left.merge(shard[0]);
  left.merge(shard[1]);
  LatencyHistogram right;
  right.merge(shard[2]);
  right.merge(shard[3]);
  LatencyHistogram tree;
  tree.merge(left);
  tree.merge(right);

  LatencyHistogram chain;
  for (const auto& s : shard) chain.merge(s);

  EXPECT_EQ(tree.count(), chain.count());
  EXPECT_EQ(tree.sum(), chain.sum());
  for (const double q : kProbes) {
    EXPECT_EQ(tree.quantile(q), chain.quantile(q)) << "q " << q;
  }
}

TEST(LatencyHistogram, MergingEmptyIsIdentity) {
  LatencyHistogram h;
  h.record(42);
  h.record(7777);
  LatencyHistogram empty;
  h.merge(empty);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 42u);
  EXPECT_EQ(h.max(), 7777u);

  LatencyHistogram onto_empty;
  onto_empty.merge(h);
  EXPECT_EQ(onto_empty.count(), 2u);
  EXPECT_EQ(onto_empty.min(), 42u);
  EXPECT_EQ(onto_empty.max(), 7777u);
}

}  // namespace
}  // namespace hdface::util
