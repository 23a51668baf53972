#pragma once

// Annotated capability types over the std synchronization primitives.
//
// This is the only file in the linted tree (hdlint rule `raw-mutex-type`)
// that may name std::mutex / std::condition_variable, and the only one that
// may call .lock()/.unlock() directly (rule `manual-lock-unlock`).
// Everything else declares a util::Mutex, marks the data it protects
// `HD_GUARDED_BY(mu_)`, and holds the lock through the RAII guard below —
// which is exactly the shape Clang's thread-safety analysis
// (-Wthread-safety, the `thread-safety` preset) can prove correct on every
// path.
//
// The wrappers are zero-cost: each holds exactly the std primitive, every
// method is a single inlined forwarding call, and no behavior changes —
// the serving and parallel-engine bit-identity suites pin that.
//
// Condition variables: util::CondVar::wait(mu) releases and reacquires the
// *annotated* mutex (via std::unique_lock + adopt/release, so it is still
// a plain std::condition_variable wait underneath — no condition_variable_any
// overhead). The analysis cannot see through wait predicates captured in
// lambdas, so annotated call sites use the explicit loop form:
//
//   MutexLock lock(mutex_);
//   while (!ready_) cv_.wait(mutex_);   // ready_ is HD_GUARDED_BY(mutex_)
//
// which is also the shape clang-tidy's
// bugprone-spuriously-wake-up-functions wants.

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.hpp"

namespace hdface::util {

// Exclusive capability wrapping std::mutex.
class HD_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() HD_ACQUIRE() { mu_.lock(); }
  void unlock() HD_RELEASE() { mu_.unlock(); }
  bool try_lock() HD_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII exclusive guard over Mutex (the std::lock_guard of this layer).
class HD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) HD_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() HD_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable bound to util::Mutex. wait() requires the caller to
// hold the mutex — the analysis checks it — and waits on the *underlying*
// std::mutex through an adopting unique_lock, so the fast native
// std::condition_variable path is preserved exactly.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Releases mu, blocks until notified (or spuriously woken), reacquires mu.
  // Callers re-test their condition in a while loop.
  void wait(Mutex& mu) HD_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.mu_, std::adopt_lock);
    cv_.wait(adopted);
    adopted.release();  // ownership stays with the caller's MutexLock
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace hdface::util
