#pragma once

// Clang thread-safety-analysis attribute shim ("capability annotations").
//
// The repository's concurrency contracts — which fields a mutex guards,
// which methods must (or must not) be called with a lock held — used to
// live in comments. These macros turn them into compiler-checked facts:
// under Clang, `-Wthread-safety -Wthread-safety-beta` (the `thread-safety`
// CMake preset / CI leg) proves lock discipline on *every* path at compile
// time, complementing TSan, which only sees the interleavings a test
// happens to execute. See Hutchins, Ballman, Sutherland, "C/C++ Thread
// Safety Analysis" (CGO 2014) and the Clang ThreadSafetyAnalysis docs.
//
// On GCC and MSVC every macro expands to nothing, so the annotations cost
// zero in the default build and the tree stays compiler-portable.
//
// Usage lives in src/util/mutex.hpp: annotate the *capability type*
// (util::Mutex) once, then declare data as `HD_GUARDED_BY(mutex_)` and
// helpers as `HD_REQUIRES(mutex_)`. Code outside util/ should never name a
// raw std::mutex (hdlint rule `raw-mutex-type`) or call .lock()/.unlock()
// manually (rule `manual-lock-unlock`); the annotated RAII guard is the only
// doorway.

#if defined(__clang__) && (!defined(SWIG))
#define HD_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define HD_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

// Declares a type to be a capability (a lock). The string names the
// capability kind in diagnostics ("mutex").
#define HD_CAPABILITY(x) HD_THREAD_ANNOTATION(capability(x))

// Declares an RAII type whose constructor acquires and destructor releases
// a capability (util::MutexLock).
#define HD_SCOPED_CAPABILITY HD_THREAD_ANNOTATION(scoped_lockable)

// Data members: readable/writable only while holding the named capability.
#define HD_GUARDED_BY(x) HD_THREAD_ANNOTATION(guarded_by(x))
// Pointer members: the *pointee* is guarded by the named capability.
#define HD_PT_GUARDED_BY(x) HD_THREAD_ANNOTATION(pt_guarded_by(x))

// Functions: the caller must hold the capability.
#define HD_REQUIRES(...) \
  HD_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

// Functions: acquire/release the capability (must not / must be held on
// entry). Used on the capability wrappers and the RAII guard ctors/dtors.
#define HD_ACQUIRE(...) \
  HD_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define HD_RELEASE(...) \
  HD_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

// Functions: acquire only when returning the given value.
#define HD_TRY_ACQUIRE(...) \
  HD_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

// Functions: the caller must NOT hold the capability (deadlock guard for
// public entry points that take the lock themselves).
#define HD_EXCLUDES(...) HD_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Asserts (at runtime, to the analysis) that the capability is held —
// for code reachable only under a lock the analysis cannot see.
#define HD_ASSERT_CAPABILITY(x) HD_THREAD_ANNOTATION(assert_capability(x))

// Functions returning a reference to a capability (lock accessors).
#define HD_RETURN_CAPABILITY(x) HD_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch: disables analysis for one function. Every use carries a
// justification comment, mirroring the hdlint allow() convention.
#define HD_NO_THREAD_SAFETY_ANALYSIS \
  HD_THREAD_ANNOTATION(no_thread_safety_analysis)
