#pragma once

// hdlint — in-tree determinism, concurrency & memory-safety lint for the
// HDFace sources.
//
// The repository's headline guarantees (bit-reproducible detection at any
// thread count, schedule-deterministic fault injection, compiler-checked
// lock discipline) rest on invariants the compiler cannot see: all randomness
// flows through the counter-based core::Rng, nothing reads the wall clock on
// a result path, no accumulation depends on unordered iteration or thread
// scheduling, raw byte punning happens only inside the audited io shim, and
// every lock is an annotated util:: capability acquired through RAII. hdlint
// machine-checks those conventions with a token/regex scanner — no external
// dependencies, fast enough to run as a tier-1 ctest.
//
// Rules (registry in rules()):
//   rand-family              C rand()/srand()/drand48()/random()… calls
//   random-device            std::random_device anywhere
//   unseeded-mt19937         std::mt19937 declared without an explicit seed
//   wall-clock               time()/clock()/gettimeofday()/…::now() reads
//   unordered-container      std::unordered_{map,set,…} usage
//   mutable-global           non-const namespace-scope variable definitions
//   reinterpret-cast         naked reinterpret_cast outside the byte-I/O shim
//   sched-dependent-value    atomic fetch_add/fetch_sub result used as data
//   thread-detach            .detach() — detached threads outlive shutdown
//   raw-mutex-type           std:: sync primitive outside src/util/mutex.hpp
//   manual-lock-unlock       .lock()/.unlock() outside the annotated wrapper
//   sleep-as-sync            sleep_for/sleep_until/usleep used on a code path
//   ref-capture-thread-lambda [&] default capture handed to a thread entry
//
// Suppressions: a comment `// hdlint: allow(rule-a, rule-b) — justification`
// silences those rules on its own line; on a comment-only line it applies to
// the next line with code instead. `// hdlint: allow-file(rule)` silences a
// rule for the whole file. Unknown rule names in a suppression are themselves
// reported (rule "unknown-suppression") so typos cannot hide findings.
// Suppressions that silence nothing are tracked too: the *_report entry
// points return them as `stale`, and `hdlint --check-stale` fails on them, so
// a justification cannot outlive the code it justified.
//
// The scanner blanks comments and string/char literals before matching, so
// prose never trips a rule, and is deliberately conservative elsewhere: a
// lint that guards determinism must itself be deterministic, so files and
// findings come back in sorted order.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hdface::lint {

struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule;
  std::string message;

  bool operator==(const Finding&) const = default;
};

// A suppression comment that silenced no finding in its scope. Stale
// suppressions are reported separately from findings — they are lint *debt*
// (a stray justification), not a broken invariant, and must never change the
// rule count.
struct StaleSuppression {
  std::string file;
  std::size_t line = 0;  // 1-based line of the allow()/allow-file() comment
  std::string rule;
  bool file_wide = false;

  bool operator==(const StaleSuppression&) const = default;
};

struct Report {
  std::vector<Finding> findings;
  std::vector<StaleSuppression> stale;
};

struct Options {
  // Path suffixes (forward-slash form) allowed to use reinterpret_cast.
  std::vector<std::string> cast_allowlist = {"src/util/bytes.hpp"};
  // Path suffixes allowed to name raw std:: synchronization primitives and
  // call .lock()/.unlock() directly — the annotated capability wrappers.
  std::vector<std::string> mutex_allowlist = {"src/util/mutex.hpp"};
};

// Name → one-line description of every rule, in reporting order.
const std::vector<std::pair<std::string, std::string>>& rules();

// Lints one in-memory translation unit. `path` is used for diagnostics and
// for the allowlists; it need not exist on disk.
std::vector<Finding> lint_source(std::string_view path, std::string_view source,
                                 const Options& options = {});

// Lints one file from disk. Throws std::runtime_error if unreadable.
std::vector<Finding> lint_file(const std::string& path,
                               const Options& options = {});

// Recursively lints every C++ source under the given roots (files are
// accepted too), in sorted path order. Throws std::runtime_error on a
// missing root.
std::vector<Finding> lint_tree(const std::vector<std::string>& roots,
                               const Options& options = {});

// Report-returning variants: same findings, plus the suppressions that
// matched no finding (stale). lint_source/lint_file/lint_tree are thin
// wrappers that drop the stale list.
Report lint_source_report(std::string_view path, std::string_view source,
                          const Options& options = {});
Report lint_file_report(const std::string& path, const Options& options = {});
Report lint_tree_report(const std::vector<std::string>& roots,
                        const Options& options = {});

}  // namespace hdface::lint
