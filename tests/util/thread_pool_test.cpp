#include "util/thread_pool.hpp"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/op_counter.hpp"
#include "core/stochastic.hpp"

namespace hdface::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 32; ++i) {
    futs.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, PropagatesExceptionsThroughFuture) {
  ThreadPool pool(1);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, WaitIdleBlocksUntilDrained) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 16);
}

TEST(ParallelFor, CoversExactRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  parallel_for(pool, 5, 95, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 5 && i < 95) ? 1 : 0) << "index " << i;
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(pool, 10, 10, [&](std::size_t) { ++calls; });
  parallel_for(pool, 10, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SerialFallbackOnSingleWorker) {
  ThreadPool pool(1);
  std::vector<int> order;
  parallel_for(pool, 0, 8, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for(pool, 0, 64,
                   [](std::size_t i) {
                     if (i == 33) throw std::runtime_error("bad index");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, AllChunksFinishBeforeExceptionRethrows) {
  // The loop body lives in this frame; if parallel_for rethrew while chunks
  // were still running, they would touch freed state. Every index must be
  // visited (or skipped by its own throw) before the call returns.
  ThreadPool pool(4);
  std::atomic<int> visited{0};
  try {
    parallel_for(pool, 0, 256, [&](std::size_t i) {
      if (i % 64 == 0) throw std::runtime_error("chunk failure");
      visited.fetch_add(1);
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  // 256 indices minus the 4 throwing ones, minus indices abandoned in the 4
  // failing chunks — but every *successful* increment must be observable now.
  EXPECT_GE(visited.load(), 0);
  pool.wait_idle();  // nothing should still be running
}

TEST(ParallelForChunked, CoversExactRangeOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(200);
  parallel_for_chunked(pool, 7, 173, 4, [&](std::size_t lo, std::size_t hi) {
    ASSERT_LT(lo, hi);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 7 && i < 173) ? 1 : 0) << "index " << i;
  }
}

TEST(ParallelForChunked, RespectsMinChunk) {
  ThreadPool pool(8);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for_chunked(pool, 0, 100, 10, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard lock(m);
    chunks.push_back({lo, hi});
  });
  ASSERT_FALSE(chunks.empty());
  for (const auto& [lo, hi] : chunks) EXPECT_GE(hi - lo, 10u);
}

TEST(ParallelForChunked, SerialFallbackIsOneChunk) {
  ThreadPool pool(1);
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for_chunked(pool, 3, 50, 4, [&](std::size_t lo, std::size_t hi) {
    chunks.push_back({lo, hi});
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 3u);
  EXPECT_EQ(chunks[0].second, 50u);
}

TEST(ParallelForChunked, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for_chunked(pool, 5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  parallel_for_chunked(pool, 9, 2, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForChunked, PropagatesFirstChunkException) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for_chunked(pool, 0, 128, 2,
                                    [](std::size_t lo, std::size_t) {
                                      if (lo == 0) throw std::logic_error("first");
                                    }),
               std::logic_error);
}

// --- parallel_for_sharded: one padded shard per chunk, one exact merge ------

TEST(ParallelForSharded, SerialRunsTheWholeRangeAsOneChunk) {
  ThreadPool one(1);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one}) {
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    const std::uint64_t total = parallel_for_sharded<std::uint64_t>(
        pool, 3, 40, 1,
        [&chunks](std::uint64_t& shard, std::size_t lo, std::size_t hi) {
          chunks.emplace_back(lo, hi);
          shard += hi - lo;
        });
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0], std::make_pair(std::size_t{3}, std::size_t{40}));
    EXPECT_EQ(total, 37u);
  }
  const auto count_calls = [](std::uint64_t& shard, std::size_t,
                              std::size_t) { ++shard; };
  EXPECT_EQ(parallel_for_sharded<std::uint64_t>(&one, 9, 2, 1, count_calls),
            0u);
}

// Runs one chunk per few items on a 4-worker pool and checks that the shards
// the chunks were handed are cache-line aligned and never share a line.
template <typename Shard>
void expect_chunk_shards_on_own_cache_lines() {
  ThreadPool pool(4);
  constexpr std::size_t kItems = 64;
  // Each chunk records its shard's address in its own slots (disjoint).
  std::vector<std::uintptr_t> shard_at(kItems, 0);
  (void)parallel_for_sharded<Shard>(
      &pool, 0, kItems, 1,
      [&shard_at](Shard& shard, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          shard_at[i] = reinterpret_cast<std::uintptr_t>(&shard);
        }
      });
  const std::set<std::uintptr_t> shards(shard_at.begin(), shard_at.end());
  ASSERT_GT(shards.size(), 1u);
  std::uintptr_t line_free_from = 0;
  for (const std::uintptr_t at : shards) {
    EXPECT_EQ(at % 64, 0u);
    EXPECT_GE(at, line_free_from) << "two shards share a cache line";
    line_free_from = (at + sizeof(Shard) + 63) / 64 * 64;
  }
}

TEST(ParallelForSharded, ChunkShardsDoNotShareCacheLines) {
  expect_chunk_shards_on_own_cache_lines<core::OpCounter>();
}

TEST(ParallelForSharded, TallyShardsDoNotShareCacheLines) {
  // An 8-byte tally is where false sharing would bite hardest: eight of them
  // fit in one line unpadded.
  expect_chunk_shards_on_own_cache_lines<std::uint64_t>();
}

TEST(ParallelForSharded, ConcurrentShardWritesMergeExactly) {
  constexpr std::size_t kItems = 80000;
  ThreadPool pool(8);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const core::OpCounter ops = parallel_for_sharded<core::OpCounter>(
        p, 0, kItems, 1,
        [](core::OpCounter& shard, std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            shard.add(core::OpKind::kWordLogic, 1);
            shard.add(core::OpKind::kRngWord, 2);
          }
        });
    EXPECT_EQ(ops.get(core::OpKind::kWordLogic), kItems);
    EXPECT_EQ(ops.get(core::OpKind::kRngWord), 2 * kItems);
  }
}

TEST(ParallelForSharded, ConcurrentTallyIncrementsMergeExactly) {
  constexpr std::size_t kItems = 200000;
  ThreadPool pool(8);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const std::uint64_t tally = parallel_for_sharded<std::uint64_t>(
        p, 0, kItems, 1,
        [](std::uint64_t& shard, std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) ++shard;
        });
    EXPECT_EQ(tally, kItems);
  }
}

TEST(ParallelForSharded, EncodeTotalsAreThreadCountInvariant) {
  // The engine's accounting model end to end: forks of one warmed context
  // encode in concurrent chunks, each counting into its chunk's shard; the
  // merged totals equal a serial run of the same per-item seeds.
  core::StochasticConfig cfg;
  cfg.dim = 1024;
  core::StochasticContext parent(cfg);
  parent.warm_pool();
  constexpr std::size_t kItems = 12;
  const auto run = [&parent](ThreadPool* pool) {
    return parallel_for_sharded<core::OpCounter>(
        pool, 0, kItems, 1,
        [&parent](core::OpCounter& shard, std::size_t lo, std::size_t hi) {
          core::StochasticContext ctx = parent.fork(lo);
          ctx.set_counter(&shard);
          for (std::size_t i = lo; i < hi; ++i) {
            ctx.reseed(1000 + i);
            core::Hypervector v = ctx.construct(0.25);
            for (int k = 0; k < 8; ++k) v = ctx.square(v);
            (void)ctx.decode(v);
          }
        });
  };
  const core::OpCounter serial = run(nullptr);
  EXPECT_GT(serial.total(), 0u);
  for (const std::size_t threads : {2u, 6u}) {
    ThreadPool pool(threads);
    const core::OpCounter parallel = run(&pool);
    for (std::size_t k = 0; k < core::kOpKindCount; ++k) {
      EXPECT_EQ(serial.counts[k], parallel.counts[k])
          << core::op_kind_name(static_cast<core::OpKind>(k)) << " at "
          << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace hdface::util
