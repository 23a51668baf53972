#pragma once

// Minimal fixed-size thread pool with a parallel_for helper.
//
// HDFace pipelines are embarrassingly parallel across images; the pool lets
// dataset generation, feature extraction and evaluation scale with cores while
// degrading gracefully to serial execution on single-core machines.
//
// The queue state (tasks_, active_, stop_) is guarded by an annotated
// util::Mutex capability; -Wthread-safety proves every access happens under
// the lock and the condition-variable waits hold it.

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace hdface::util {

class ThreadPool {
 public:
  // threads == 0 picks hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueue a task; the returned future reports completion / exceptions.
  std::future<void> submit(std::function<void()> task) HD_EXCLUDES(mutex_);

  // Block until every task submitted so far has completed.
  void wait_idle() HD_EXCLUDES(mutex_);

 private:
  void worker_loop() HD_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar cv_;
  CondVar idle_cv_;
  std::queue<std::packaged_task<void()>> tasks_ HD_GUARDED_BY(mutex_);
  std::size_t active_ HD_GUARDED_BY(mutex_) = 0;
  bool stop_ HD_GUARDED_BY(mutex_) = false;
};

// Run body(i) for i in [begin, end). Serial when the pool has one worker or
// the range is tiny; otherwise splits the range into contiguous chunks.
// body must be safe to call concurrently for distinct i. If any invocation
// throws, every spawned chunk still runs to completion (or observes its own
// exception) before the first exception rethrows on the caller — the caller's
// frame, which owns `body`, never unwinds under a still-running task.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

// Chunked variant: splits [begin, end) into contiguous chunks of at least
// `min_chunk` items and calls body(lo, hi) once per chunk. This is the shape
// batch engines want — a worker can set up per-chunk scratch state once and
// sweep a contiguous range. Chunk boundaries are a pure function of
// (range, pool size, min_chunk), never of scheduling, so deterministic
// algorithms can rely on them. Exceptions propagate as in parallel_for:
// all chunks finish, then the first chunk's exception (in chunk order)
// rethrows.
void parallel_for_chunked(ThreadPool& pool, std::size_t begin, std::size_t end,
                          std::size_t min_chunk,
                          const std::function<void(std::size_t, std::size_t)>& body);

// Sharded chunk runner: calls body(shard, lo, hi) once per chunk of
// parallel_for_chunked, each chunk accumulating into its own
// cache-line-padded Shard, and returns the merge of every shard. A null pool
// (or one worker) runs a non-empty [begin, end) as one chunk of the same body
// on the caller's thread. Shard is default-constructible and either
// arithmetic (merged with +=) or has merge(const Shard&). Which shard a chunk
// claims depends on scheduling, but with a commutative, associative merge
// (integer adds) the result does not: the totals are exact and identical at
// every thread count. Shards need no lock: a claimed shard is exclusively its
// chunk's until the dispatch joins, and the merge runs after the join.
template <typename Shard, typename Body>
Shard parallel_for_sharded(ThreadPool* pool, std::size_t begin, std::size_t end,
                           std::size_t min_chunk, const Body& body) {
  Shard total{};
  if (pool == nullptr || pool->size() <= 1) {
    if (begin < end) body(total, begin, end);
    return total;
  }
  struct alignas(64) Padded {
    Shard shard{};
  };
  // parallel_for_chunked makes at most 4 chunks per worker, so every chunk
  // claims a shard of its own.
  std::vector<Padded> shards(pool->size() * 4 + 1);
  std::atomic<std::size_t> next_shard{0};
  parallel_for_chunked(
      *pool, begin, end, min_chunk,
      [&body, &shards, &next_shard](std::size_t lo, std::size_t hi) {
        // hdlint: allow(sched-dependent-value) — shards merge with a
        // commutative merge, so the total is exact at every thread count.
        body(shards[next_shard.fetch_add(1) % shards.size()].shard, lo, hi);
      });
  for (const Padded& p : shards) {
    if constexpr (std::is_arithmetic_v<Shard>) {
      total += p.shard;
    } else {
      total.merge(p.shard);
    }
  }
  return total;
}

// Shared process-wide pool (constructed on first use).
ThreadPool& global_pool();

}  // namespace hdface::util
