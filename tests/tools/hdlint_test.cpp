#include "linter.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

// Drives every hdlint rule against small fixture sources: each banned
// pattern must fire, the curated exemptions (declarations, own-class
// qualifiers, allowlisted paths) must not, and the suppression mechanism
// must shield exactly the line it names.

namespace hdface::lint {
namespace {

std::vector<std::string> rules_hit(const std::string& source,
                                   const std::string& path = "src/x.cpp") {
  std::vector<std::string> out;
  for (const auto& f : lint_source(path, source, Options{})) {
    out.push_back(f.rule);
  }
  return out;
}

bool fires(const std::string& source, const std::string& rule,
           const std::string& path = "src/x.cpp") {
  const auto hit = rules_hit(source, path);
  return std::find(hit.begin(), hit.end(), rule) != hit.end();
}

TEST(Hdlint, RandFamilyCallsFire) {
  EXPECT_TRUE(fires("int f() { return rand(); }\n", "rand-family"));
  EXPECT_TRUE(fires("void f() { srand(42); }\n", "rand-family"));
  EXPECT_TRUE(fires("double g() { return drand48(); }\n", "rand-family"));
  EXPECT_TRUE(fires("long h() { return std::rand(); }\n", "rand-family"));
}

TEST(Hdlint, OwnRandomFactoryDoesNotFire) {
  // A declaration whose *name* collides with POSIX random() is not a call.
  EXPECT_FALSE(fires("static Hypervector random(std::size_t dim, Rng& rng);\n",
                     "rand-family"));
  // Nor is a call through a non-std qualifier (our own factory).
  EXPECT_FALSE(fires("auto v = core::Hypervector::random(64, rng);\n",
                     "rand-family"));
  EXPECT_FALSE(fires("auto v = obj.random(64);\n", "rand-family"));
}

TEST(Hdlint, RandomDeviceFires) {
  EXPECT_TRUE(fires("std::random_device rd;\n", "random-device"));
  EXPECT_TRUE(fires("auto s = std::random_device{}();\n", "random-device"));
}

TEST(Hdlint, UnseededMt19937Fires) {
  EXPECT_TRUE(fires("void f() { std::mt19937 gen; }\n", "unseeded-mt19937"));
  EXPECT_TRUE(fires("void f() { std::mt19937 gen{}; }\n", "unseeded-mt19937"));
  EXPECT_TRUE(fires("void f() { std::mt19937_64 gen(); }\n", "unseeded-mt19937"));
  EXPECT_FALSE(fires("void f() { std::mt19937 gen(seed); }\n",
                     "unseeded-mt19937"));
  EXPECT_FALSE(fires("void f() { std::mt19937 gen{cfg.seed}; }\n",
                     "unseeded-mt19937"));
}

TEST(Hdlint, WallClockFires) {
  EXPECT_TRUE(
      fires("auto t = std::chrono::steady_clock::now();\n", "wall-clock"));
  EXPECT_TRUE(fires("auto t = Clock::now();\n", "wall-clock"));
  EXPECT_TRUE(fires("auto t = time(nullptr);\n", "wall-clock"));
  EXPECT_TRUE(fires("auto c = clock();\n", "wall-clock"));
  // `clock_hz` is a different identifier; `now` without :: is not a clock.
  EXPECT_FALSE(fires("auto hz = device.clock_hz;\n", "wall-clock"));
  EXPECT_FALSE(fires("run_now(queue);\n", "wall-clock"));
}

TEST(Hdlint, UnorderedContainerFires) {
  EXPECT_TRUE(fires("std::unordered_map<int, int> m;\n", "unordered-container"));
  EXPECT_TRUE(fires("std::unordered_set<Key> s;\n", "unordered-container"));
  EXPECT_FALSE(fires("std::map<int, int> m;\n", "unordered-container"));
}

TEST(Hdlint, MutableGlobalFires) {
  EXPECT_TRUE(fires("namespace x {\nint counter = 0;\n}\n", "mutable-global"));
  EXPECT_TRUE(fires("double total;\n", "mutable-global"));
  EXPECT_FALSE(fires("constexpr int kDim = 64;\n", "mutable-global"));
  EXPECT_FALSE(fires("const char* kName = \"x\";\n", "mutable-global"));
  // Function-local state is not namespace-scope state.
  EXPECT_FALSE(fires("void f() {\nint counter = 0;\n}\n", "mutable-global"));
}

TEST(Hdlint, ReinterpretCastFiresOutsideAllowlist) {
  const std::string cast = "auto* p = reinterpret_cast<char*>(&v);\n";
  EXPECT_TRUE(fires(cast, "reinterpret-cast", "src/learn/serialize.cpp"));
  EXPECT_FALSE(fires(cast, "reinterpret-cast", "src/util/bytes.hpp"));
  EXPECT_FALSE(fires(cast, "reinterpret-cast",
                     "/abs/tree/src/util/bytes.hpp"));
}

TEST(Hdlint, SchedDependentValueFires) {
  EXPECT_TRUE(fires("auto idx = next.fetch_add(1);\n", "sched-dependent-value"));
  EXPECT_TRUE(fires("use(shards[next.fetch_add(1) % n]);\n",
                    "sched-dependent-value"));
  // A discarded result is a pure counter bump — fine.
  EXPECT_FALSE(fires("next.fetch_add(1);\n", "sched-dependent-value"));
  EXPECT_FALSE(fires("pending.fetch_sub(1);\n", "sched-dependent-value"));
}

TEST(Hdlint, CommentsAndStringsAreInert) {
  EXPECT_FALSE(fires("// call rand() here\n", "rand-family"));
  EXPECT_FALSE(fires("/* std::random_device */\n", "random-device"));
  EXPECT_FALSE(fires("const char* s = \"rand()\";\n", "rand-family"));
  EXPECT_FALSE(fires("auto s = R\"(time(nullptr))\";\n", "wall-clock"));
}

TEST(Hdlint, TrailingSuppressionShieldsItsLine) {
  EXPECT_FALSE(fires("auto c = clock();  // hdlint: allow(wall-clock)\n",
                     "wall-clock"));
  // The suppression only shields its own line.
  EXPECT_TRUE(fires("auto c = clock();  // hdlint: allow(wall-clock)\n"
                    "auto d = clock();\n",
                    "wall-clock"));
}

TEST(Hdlint, CommentLineSuppressionShieldsNextCodeLine) {
  EXPECT_FALSE(fires("// hdlint: allow(sched-dependent-value)\n"
                     "auto idx = next.fetch_add(1);\n",
                     "sched-dependent-value"));
  // Intervening comment lines are skipped, not shielded past code.
  EXPECT_FALSE(fires("// hdlint: allow(wall-clock)\n"
                     "// timing is measurement only\n"
                     "auto t = Clock::now();\n",
                     "wall-clock"));
}

TEST(Hdlint, FileWideSuppression) {
  EXPECT_FALSE(fires("// hdlint: allow-file(wall-clock)\n"
                     "auto a = Clock::now();\n"
                     "auto b = Clock::now();\n",
                     "wall-clock"));
}

TEST(Hdlint, UnknownSuppressionIsItselfReported) {
  EXPECT_TRUE(fires("// hdlint: allow(no-such-rule)\n int x = 0;\n",
                    "unknown-suppression"));
}

TEST(Hdlint, ThreadDetachFires) {
  EXPECT_TRUE(fires("void f() { worker.detach(); }\n", "thread-detach"));
  EXPECT_TRUE(fires("void f() { t->detach(); }\n", "thread-detach"));
  // A declaration (no member access) and an unrelated identifier stay quiet.
  EXPECT_FALSE(fires("void detach();\n", "thread-detach"));
  EXPECT_FALSE(fires("bool detached = d.detached();\n", "thread-detach"));
}

TEST(Hdlint, RawMutexTypeFiresOutsideWrapper) {
  EXPECT_TRUE(fires("std::mutex m;\n", "raw-mutex-type"));
  EXPECT_TRUE(fires("std::shared_mutex rw;\n", "raw-mutex-type"));
  EXPECT_TRUE(fires("std::condition_variable cv;\n", "raw-mutex-type"));
  EXPECT_TRUE(
      fires("const std::lock_guard<std::mutex> l(m);\n", "raw-mutex-type"));
  EXPECT_TRUE(fires("std::unique_lock lk(m);\n", "raw-mutex-type"));
  // The annotated wrapper itself may name the primitives.
  EXPECT_FALSE(
      fires("std::mutex mu_;\n", "raw-mutex-type", "src/util/mutex.hpp"));
  EXPECT_FALSE(fires("std::mutex mu_;\n", "raw-mutex-type",
                     "/abs/tree/src/util/mutex.hpp"));
  // Our own capability types and unqualified mentions (e.g. #include
  // <mutex>, a field named mutex) are not findings.
  EXPECT_FALSE(fires("util::Mutex m;\n", "raw-mutex-type"));
  EXPECT_FALSE(fires("#include <mutex>\n", "raw-mutex-type"));
  EXPECT_FALSE(fires("other::mutex m;\n", "raw-mutex-type"));
}

TEST(Hdlint, ManualLockUnlockFiresOutsideWrapper) {
  EXPECT_TRUE(fires("void f() { m.lock(); }\n", "manual-lock-unlock"));
  EXPECT_TRUE(fires("void f() { m.unlock(); }\n", "manual-lock-unlock"));
  EXPECT_TRUE(fires("void f() { mu->try_lock(); }\n", "manual-lock-unlock"));
  EXPECT_TRUE(fires("void f() { rw.lock_shared(); }\n", "manual-lock-unlock"));
  // The wrapper implements the RAII guards, so it calls these directly.
  EXPECT_FALSE(fires("void f() { mu_.lock(); }\n", "manual-lock-unlock",
                     "src/util/mutex.hpp"));
  // Declaring lock()/unlock() (the wrapper API shape) is not a call, and a
  // local variable named lock is not a member access.
  EXPECT_FALSE(fires("void lock();\n", "manual-lock-unlock"));
  EXPECT_FALSE(fires("const util::MutexLock lock(mutex_);\n",
                     "manual-lock-unlock"));
}

TEST(Hdlint, SleepAsSyncFires) {
  EXPECT_TRUE(fires("std::this_thread::sleep_for(ms);\n", "sleep-as-sync"));
  EXPECT_TRUE(fires("this_thread::sleep_until(t);\n", "sleep-as-sync"));
  EXPECT_TRUE(fires("void f() { usleep(100); }\n", "sleep-as-sync"));
  EXPECT_TRUE(fires("void f() { sleep(1); }\n", "sleep-as-sync"));
  // A foreign scheduler's sleep_for and our own declarations stay quiet.
  EXPECT_FALSE(fires("FakeClock::sleep_for(ms);\n", "sleep-as-sync"));
  EXPECT_FALSE(fires("void sleep(int seconds);\n", "sleep-as-sync"));
  EXPECT_FALSE(fires("timer.sleep_for(ms);\n", "sleep-as-sync"));
}

TEST(Hdlint, RefCaptureThreadLambdaFires) {
  EXPECT_TRUE(fires("pool.submit([&] { work(); });\n",
                    "ref-capture-thread-lambda"));
  EXPECT_TRUE(fires("util::parallel_for(pool, 0, n, [&](std::size_t i) {\n"
                    "  body(i);\n"
                    "});\n",
                    "ref-capture-thread-lambda"));
  EXPECT_TRUE(fires("util::parallel_for_chunked(\n"
                    "    pool, 0, n, 1,\n"
                    "    [&, seed](std::size_t lo, std::size_t hi) {});\n",
                    "ref-capture-thread-lambda"));
  EXPECT_TRUE(fires("util::parallel_for_sharded<core::OpCounter>(\n"
                    "    &pool, 0, n, 1,\n"
                    "    [&](core::OpCounter& shard, std::size_t lo, "
                    "std::size_t hi) {});\n",
                    "ref-capture-thread-lambda"));
  EXPECT_TRUE(fires("std::thread worker([&] { run(); });\n",
                    "ref-capture-thread-lambda"));
  EXPECT_TRUE(fires("auto f = std::async([&] { return g(); });\n",
                    "ref-capture-thread-lambda"));
  // Explicit captures — the fix the rule demands — are quiet, as is a [&]
  // lambda that never crosses a thread boundary.
  EXPECT_FALSE(fires("pool.submit([lo, hi, &body] { body(lo, hi); });\n",
                     "ref-capture-thread-lambda"));
  EXPECT_FALSE(fires("const auto t = best_of(reps, [&] { work(); });\n",
                     "ref-capture-thread-lambda"));
  EXPECT_FALSE(fires("std::thread worker(entry, std::ref(state));\n",
                     "ref-capture-thread-lambda"));
}

TEST(Hdlint, NewRuleSuppressionsWork) {
  EXPECT_FALSE(fires("// hdlint: allow(sleep-as-sync) — pacing only\n"
                     "std::this_thread::sleep_for(ms);\n",
                     "sleep-as-sync"));
  EXPECT_FALSE(fires("// hdlint: allow-file(raw-mutex-type)\n"
                     "std::mutex a;\nstd::mutex b;\n",
                     "raw-mutex-type"));
  EXPECT_FALSE(fires("m.lock();  // hdlint: allow(manual-lock-unlock)\n",
                     "manual-lock-unlock"));
}

TEST(Hdlint, StaleSuppressionsAreReported) {
  // A suppression that silences a real finding is used, not stale.
  const auto used = lint_source_report(
      "src/a.cpp", "auto c = clock();  // hdlint: allow(wall-clock)\n",
      Options{});
  EXPECT_TRUE(used.findings.empty());
  EXPECT_TRUE(used.stale.empty());

  // One that silences nothing is stale — line-scoped and file-wide alike.
  const auto stale = lint_source_report(
      "src/b.cpp",
      "// hdlint: allow-file(wall-clock)\n"
      "int x = f();  // hdlint: allow(rand-family)\n",
      Options{});
  EXPECT_TRUE(stale.findings.empty());
  ASSERT_EQ(stale.stale.size(), 2u);
  EXPECT_EQ(stale.stale[0].line, 1u);
  EXPECT_EQ(stale.stale[0].rule, "wall-clock");
  EXPECT_TRUE(stale.stale[0].file_wide);
  EXPECT_EQ(stale.stale[1].line, 2u);
  EXPECT_EQ(stale.stale[1].rule, "rand-family");
  EXPECT_FALSE(stale.stale[1].file_wide);

  // A line-scoped suppression shadowed by a file-wide one is redundant, and
  // redundancy surfaces as staleness.
  const auto shadowed = lint_source_report(
      "src/c.cpp",
      "// hdlint: allow-file(wall-clock)\n"
      "auto c = clock();  // hdlint: allow(wall-clock)\n",
      Options{});
  EXPECT_TRUE(shadowed.findings.empty());
  ASSERT_EQ(shadowed.stale.size(), 1u);
  EXPECT_EQ(shadowed.stale[0].line, 2u);
  EXPECT_FALSE(shadowed.stale[0].file_wide);

  // Unknown rule names go to unknown-suppression, never to stale.
  const auto unknown = lint_source_report(
      "src/d.cpp", "// hdlint: allow(no-such-rule)\nint x = 0;\n", Options{});
  EXPECT_FALSE(unknown.findings.empty());
  EXPECT_TRUE(unknown.stale.empty());
}

TEST(Hdlint, FindingsCarryFileAndLine) {
  const auto findings =
      lint_source("src/a.cpp", "int ok;\nauto t = time(nullptr);\n", Options{});
  ASSERT_FALSE(findings.empty());
  bool found = false;
  for (const auto& f : findings) {
    if (f.rule == "wall-clock") {
      EXPECT_EQ(f.file, "src/a.cpp");
      EXPECT_EQ(f.line, 2u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Hdlint, EveryRuleHasADescription) {
  for (const auto& [name, desc] : rules()) {
    EXPECT_FALSE(name.empty());
    EXPECT_FALSE(desc.empty());
  }
  // 9 determinism/memory rules + 5 concurrency rules; stale suppressions
  // are reported out-of-band (Report::stale), not as a rule.
  EXPECT_EQ(rules().size(), 14u);
}

}  // namespace
}  // namespace hdface::lint
