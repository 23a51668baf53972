#include "linter.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace hdface::lint {

namespace {

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// --- source preprocessing ---------------------------------------------------

struct Source {
  std::vector<std::string> raw;   // original lines
  std::vector<std::string> code;  // comments and literal bodies blanked
  std::vector<bool> at_namespace_scope;  // scope at the start of each line
};

std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.emplace_back(text.substr(start));
      break;
    }
    lines.emplace_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

// Blanks //-comments, /* */-comments, string/char literals (including basic
// raw strings) with spaces, preserving line structure, so rules only ever
// match real code tokens.
std::vector<std::string> blank_noncode(const std::vector<std::string>& raw) {
  enum class State { kCode, kBlock, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( … )delim"
  std::vector<std::string> out;
  out.reserve(raw.size());

  for (const std::string& line : raw) {
    std::string code(line.size(), ' ');
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      const char next = i + 1 < line.size() ? line[i + 1] : '\0';
      switch (state) {
        case State::kCode:
          if (c == '/' && next == '/') {
            i = line.size();  // rest of line is comment
          } else if (c == '/' && next == '*') {
            state = State::kBlock;
            ++i;
          } else if (c == 'R' && next == '"' &&
                     (i == 0 || !is_ident(line[i - 1]))) {
            const std::size_t open = line.find('(', i + 2);
            raw_delim = ")";
            if (open != std::string::npos) {
              raw_delim += line.substr(i + 2, open - (i + 2));
            }
            raw_delim += '"';
            state = State::kRawString;
            i = open == std::string::npos ? line.size() : open;
          } else if (c == '"') {
            state = State::kString;
          } else if (c == '\'') {
            state = State::kChar;
          } else {
            code[i] = c;
          }
          break;
        case State::kBlock:
          if (c == '*' && next == '/') {
            state = State::kCode;
            ++i;
          }
          break;
        case State::kString:
          if (c == '\\') {
            ++i;
          } else if (c == '"') {
            state = State::kCode;
          }
          break;
        case State::kChar:
          if (c == '\\') {
            ++i;
          } else if (c == '\'') {
            state = State::kCode;
          }
          break;
        case State::kRawString: {
          const std::size_t close = line.find(raw_delim, i);
          if (close == std::string::npos) {
            i = line.size();
          } else {
            i = close + raw_delim.size() - 1;
            state = State::kCode;
          }
          break;
        }
      }
    }
    out.push_back(std::move(code));
  }
  return out;
}

// Tracks which lines begin at namespace scope (every enclosing brace was
// opened by a `namespace … {` header). Function, class, enum, lambda, and
// initializer braces all count as opaque scopes, so their contents are never
// mistaken for globals.
std::vector<bool> mark_namespace_scope(const std::vector<std::string>& code) {
  std::vector<bool> at_ns(code.size(), true);
  std::vector<char> scopes;  // 'n' = namespace, 'o' = other
  std::string head;          // statement text since the last ; { or }

  const auto head_is_namespace = [&head]() {
    std::size_t p = head.find("namespace");
    while (p != std::string::npos) {
      const bool lb = p == 0 || !is_ident(head[p - 1]);
      const std::size_t e = p + 9;
      const bool rb = e >= head.size() || !is_ident(head[e]);
      if (lb && rb) return true;
      p = head.find("namespace", p + 1);
    }
    return false;
  };

  for (std::size_t li = 0; li < code.size(); ++li) {
    at_ns[li] = std::all_of(scopes.begin(), scopes.end(),
                            [](char s) { return s == 'n'; });
    for (const char c : code[li]) {
      if (c == '{') {
        scopes.push_back(head_is_namespace() ? 'n' : 'o');
        head.clear();
      } else if (c == '}') {
        if (!scopes.empty()) scopes.pop_back();
        head.clear();
      } else if (c == ';') {
        head.clear();
      } else {
        head += c;
      }
    }
  }
  return at_ns;
}

// --- suppressions -----------------------------------------------------------

// One parsed allow()/allow-file() rule name, remembered individually so the
// stale check can tell exactly which comment (and which rule inside a
// multi-rule comment) never earned its keep.
struct SuppressionEntry {
  std::size_t comment_line = 0;  // 1-based, where the comment sits
  std::size_t target_line = 0;   // 0-based line it shields (line-scoped only)
  std::string rule;
  bool file_wide = false;
  bool used = false;
};

struct Suppressions {
  std::set<std::string> file_wide;
  std::vector<std::set<std::string>> by_line;  // effective per line
  std::vector<std::pair<std::size_t, std::string>> unknown;  // line, name
  std::vector<SuppressionEntry> entries;
};

bool code_line_blank(const std::string& code) {
  return std::all_of(code.begin(), code.end(), [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  });
}

std::vector<std::string> parse_rule_list(const std::string& text,
                                         std::size_t open_paren) {
  std::vector<std::string> names;
  const std::size_t close = text.find(')', open_paren);
  if (close == std::string::npos) return names;
  std::string name;
  for (std::size_t i = open_paren + 1; i < close; ++i) {
    const char c = text[i];
    if (is_ident(c) || c == '-') {
      name += c;
    } else if (!name.empty()) {
      names.push_back(std::move(name));
      name.clear();
    }
  }
  if (!name.empty()) names.push_back(std::move(name));
  return names;
}

Suppressions collect_suppressions(const Source& src) {
  std::set<std::string> known;
  for (const auto& [name, desc] : rules()) known.insert(name);

  Suppressions sup;
  sup.by_line.resize(src.raw.size());
  for (std::size_t li = 0; li < src.raw.size(); ++li) {
    const std::string& line = src.raw[li];
    const auto add = [&](const std::vector<std::string>& names,
                         std::set<std::string>& into) {
      for (const auto& n : names) {
        if (known.count(n) == 0) {
          sup.unknown.emplace_back(li + 1, n);
        } else {
          into.insert(n);
        }
      }
    };

    std::size_t p = line.find("hdlint: allow-file(");
    while (p != std::string::npos) {
      for (const auto& n : parse_rule_list(line, p + 18)) {
        if (known.count(n) != 0) {
          sup.entries.push_back(
              SuppressionEntry{li + 1, 0, n, /*file_wide=*/true});
        }
      }
      add(parse_rule_list(line, p + 18), sup.file_wide);
      p = line.find("hdlint: allow-file(", p + 1);
    }

    p = line.find("hdlint: allow(");
    while (p != std::string::npos) {
      std::set<std::string> names;
      add(parse_rule_list(line, p + 13), names);
      // A comment-only line shields the next line that has code; a trailing
      // comment shields its own line.
      std::size_t target = li;
      if (code_line_blank(src.code[li])) {
        target = li + 1;
        while (target < src.code.size() && code_line_blank(src.code[target])) {
          ++target;
        }
      }
      if (target < sup.by_line.size()) {
        sup.by_line[target].insert(names.begin(), names.end());
        for (const auto& n : names) {
          sup.entries.push_back(
              SuppressionEntry{li + 1, target, n, /*file_wide=*/false});
        }
      }
      p = line.find("hdlint: allow(", p + 1);
    }
  }
  return sup;
}

// --- matching helpers -------------------------------------------------------

// Last non-space code character strictly before (line, col), looking at
// earlier lines if needed. Returns '\0' at the start of the file.
char prev_nonspace(const std::vector<std::string>& code, std::size_t line,
                   std::size_t col) {
  for (std::size_t li = line + 1; li-- > 0;) {
    const std::string& s = code[li];
    std::size_t end = li == line ? col : s.size();
    while (end > 0) {
      const char c = s[end - 1];
      if (std::isspace(static_cast<unsigned char>(c)) == 0) return c;
      --end;
    }
  }
  return '\0';
}

std::size_t skip_spaces(const std::string& s, std::size_t i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])) != 0) {
    ++i;
  }
  return i;
}

// Occurrences of `name` as a whole identifier in `line`.
std::vector<std::size_t> ident_occurrences(const std::string& line,
                                           const std::string& name) {
  std::vector<std::size_t> out;
  std::size_t p = line.find(name);
  while (p != std::string::npos) {
    const bool lb = p == 0 || !is_ident(line[p - 1]);
    const std::size_t e = p + name.size();
    const bool rb = e >= line.size() || !is_ident(line[e]);
    if (lb && rb) out.push_back(p);
    p = line.find(name, p + 1);
  }
  return out;
}

// Does the identifier at `pos` belong to a foreign qualifier? `std::name`
// and `::name` still count as the banned entity; `obj.name`, `obj->name`,
// and `SomeType::name` do not (e.g. Hypervector::random is our own,
// counter-seeded factory — not POSIX random()).
bool foreign_qualified(const std::string& line, std::size_t pos) {
  if (pos >= 1 && line[pos - 1] == '.') return true;
  if (pos >= 2 && line[pos - 2] == '-' && line[pos - 1] == '>') return true;
  if (pos >= 2 && line[pos - 2] == ':' && line[pos - 1] == ':') {
    std::size_t q = pos - 2;
    while (q > 0 && is_ident(line[q - 1])) --q;
    const std::string qualifier = line.substr(q, pos - 2 - q);
    return !qualifier.empty() && qualifier != "std";
  }
  return false;
}

// True when the identifier at `pos` is written as `std::name` (exactly).
bool std_qualified(const std::string& line, std::size_t pos) {
  if (pos < 5 || line[pos - 2] != ':' || line[pos - 1] != ':') return false;
  std::size_t q = pos - 2;
  while (q > 0 && is_ident(line[q - 1])) --q;
  return line.substr(q, pos - 2 - q) == "std";
}

// True when the identifier at `pos` is a member access: `obj.name` or
// `obj->name`.
bool member_qualified(const std::string& line, std::size_t pos) {
  if (pos >= 1 && line[pos - 1] == '.') return true;
  return pos >= 2 && line[pos - 2] == '-' && line[pos - 1] == '>';
}

// Scans the bracketed span starting at (line, open) — possibly spanning
// several lines — for a `[&]` / `[&,` default-by-reference lambda capture.
// Stops at the matching close bracket; an unbalanced span scans to EOF,
// which is conservative but deterministic.
bool span_has_ref_capture(const std::vector<std::string>& code, std::size_t line,
                          std::size_t open, char open_c, char close_c) {
  int depth = 0;
  for (std::size_t li = line; li < code.size(); ++li) {
    const std::string& s = code[li];
    for (std::size_t i = li == line ? open : 0; i < s.size(); ++i) {
      const char c = s[i];
      if (c == open_c) ++depth;
      if (c == close_c && --depth == 0) return false;
      if (c == '[' && i + 1 < s.size() && s[i + 1] == '&') {
        const std::size_t after = skip_spaces(s, i + 2);
        if (after < s.size() && (s[after] == ']' || s[after] == ',')) {
          return true;
        }
      }
    }
  }
  return false;
}

// True when `name(` appears as a real (possibly std::-qualified) call.
bool is_call(const std::string& line, std::size_t pos, std::size_t len) {
  const std::size_t after = skip_spaces(line, pos + len);
  return after < line.size() && line[after] == '(';
}

// True when the identifier at `pos` is being *declared* rather than called:
// the preceding token is another identifier (its return type), as in
// `static Hypervector random(std::size_t dim, Rng&)`. Keywords that can
// legally precede a call expression are excluded so `return rand();` still
// counts as a call.
bool is_declaration(const std::vector<std::string>& code, std::size_t line,
                    std::size_t pos) {
  static const std::set<std::string> kCallPrefix = {
      "return", "throw", "case", "else", "do",
      "co_return", "co_yield", "co_await"};
  for (std::size_t li = line + 1; li-- > 0;) {
    const std::string& s = code[li];
    std::size_t end = li == line ? pos : s.size();
    while (end > 0 &&
           std::isspace(static_cast<unsigned char>(s[end - 1])) != 0) {
      --end;
    }
    if (end == 0) continue;
    if (!is_ident(s[end - 1])) return false;
    std::size_t start = end;
    while (start > 0 && is_ident(s[start - 1])) --start;
    return kCallPrefix.count(s.substr(start, end - start)) == 0;
  }
  return false;
}

std::size_t matching_close(const std::string& line, std::size_t open,
                           char open_c, char close_c) {
  int depth = 0;
  for (std::size_t i = open; i < line.size(); ++i) {
    if (line[i] == open_c) ++depth;
    if (line[i] == close_c && --depth == 0) return i;
  }
  return std::string::npos;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& rules() {
  static const std::vector<std::pair<std::string, std::string>> kRules = {
      {"rand-family",
       "C rand()-family call: all randomness must flow through the "
       "counter-based core::Rng (seeded, reproducible); process-global RNG "
       "state breaks bit-reproducibility"},
      {"random-device",
       "std::random_device is nondeterministic by construction; derive "
       "seeds with core::mix64 from a plan/config seed instead"},
      {"unseeded-mt19937",
       "unseeded std::mt19937: it either runs on the default seed (hiding a "
       "missing seed plumb-through) or gets seeded later from a "
       "nondeterministic source; use core::Rng with an explicit seed"},
      {"wall-clock",
       "wall-clock read: time must never influence encoding, detection, or "
       "fault schedules; if this is performance timing only, suppress with "
       "a justification"},
      {"unordered-container",
       "std::unordered_* iteration order is unspecified; accumulating over "
       "it makes results depend on hash seeding and load factors — use an "
       "ordered container or suppress with proof of order-independence"},
      {"mutable-global",
       "mutable namespace-scope state breaks thread-count invariance and "
       "bit-reproducibility; make it const/constexpr, function-local, or "
       "suppress with a justification"},
      {"reinterpret-cast",
       "naked reinterpret_cast outside the byte-I/O shim "
       "(src/util/bytes.hpp): route raw-byte serialization through "
       "hdface::io so trivially-copyable and short-read checks apply"},
      {"sched-dependent-value",
       "result of atomic fetch_add/fetch_sub depends on thread scheduling; "
       "using the value as data (seed, index, output) breaks "
       "bit-reproducibility unless the consumer is permutation-invariant — "
       "prove it and suppress, or restructure"},
      {"thread-detach",
       "detached thread: it outlives scope, races shutdown, and its work "
       "can land after the results were read — join every thread (the "
       "worker-pool destructor does) or hand the work to util::ThreadPool"},
      {"raw-mutex-type",
       "raw std:: synchronization primitive outside src/util/mutex.hpp: use "
       "util::Mutex / util::CondVar so Clang thread-safety analysis sees the "
       "capability and GUARDED_BY annotations can name it"},
      {"manual-lock-unlock",
       "manual .lock()/.unlock() outside the annotated wrapper: an early "
       "return or exception between the calls leaks the lock — use the RAII "
       "guard util::MutexLock, which the thread-safety analysis also "
       "understands"},
      {"sleep-as-sync",
       "sleep on a code path: sleeping until another thread 'should be' "
       "done is a race that happens to pass — synchronize with condition "
       "variables, futures, or joins; pacing/backoff naps need a "
       "justification"},
      {"ref-capture-thread-lambda",
       "[&] default capture in a lambda handed to a thread entry point "
       "(thread/submit/parallel_for/async): captures-everything hides "
       "shared state from review and dangles if the frame unwinds first — "
       "list the captures explicitly"},
      {"unknown-suppression",
       "suppression names a rule hdlint does not know; a typo here could "
       "hide real findings"},
  };
  return kRules;
}

Report lint_source_report(std::string_view path, std::string_view text,
                          const Options& options) {
  Source src;
  src.raw = split_lines(text);
  src.code = blank_noncode(src.raw);
  src.at_namespace_scope = mark_namespace_scope(src.code);
  Suppressions sup = collect_suppressions(src);

  const auto message = [](const std::string& rule) -> const std::string& {
    for (const auto& [name, desc] : rules()) {
      if (name == rule) return desc;
    }
    throw std::logic_error("hdlint: unregistered rule " + rule);
  };

  std::vector<Finding> findings;
  const auto report = [&](std::size_t li, const std::string& rule) {
    // A file-wide suppression earns its keep on any hit; a line-scoped one
    // only on a hit at its own target line — and a line-scoped suppression
    // shadowed by a file-wide one stays unused, so redundancy surfaces as
    // staleness.
    if (sup.file_wide.count(rule) != 0) {
      for (auto& e : sup.entries) {
        if (e.file_wide && e.rule == rule) e.used = true;
      }
      return;
    }
    if (sup.by_line[li].count(rule) != 0) {
      for (auto& e : sup.entries) {
        if (!e.file_wide && e.target_line == li && e.rule == rule) {
          e.used = true;
        }
      }
      return;
    }
    findings.push_back(
        Finding{std::string(path), li + 1, rule, message(rule)});
  };

  for (const auto& [line_no, name] : sup.unknown) {
    findings.push_back(Finding{std::string(path), line_no,
                               "unknown-suppression",
                               message("unknown-suppression") + ": " + name});
  }

  static const std::vector<std::string> kRandFamily = {
      "rand",    "srand",   "rand_r",  "drand48", "erand48",
      "lrand48", "nrand48", "mrand48", "jrand48", "srand48",
      "random",  "srandom", "random_r"};
  static const std::vector<std::string> kWallClock = {
      "time",         "clock",        "gettimeofday", "clock_gettime",
      "timespec_get", "localtime",    "gmtime",       "mktime"};
  static const std::vector<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};

  const auto path_allowed = [&](const std::vector<std::string>& allowlist) {
    return std::any_of(allowlist.begin(), allowlist.end(),
                       [&](const std::string& suffix) {
                         std::string p(path);
                         std::replace(p.begin(), p.end(), '\\', '/');
                         return p.size() >= suffix.size() &&
                                p.compare(p.size() - suffix.size(),
                                          suffix.size(), suffix) == 0;
                       });
  };
  const bool cast_allowed = path_allowed(options.cast_allowlist);
  const bool mutex_allowed = path_allowed(options.mutex_allowlist);

  for (std::size_t li = 0; li < src.code.size(); ++li) {
    const std::string& line = src.code[li];
    if (code_line_blank(line)) continue;

    for (const auto& name : kRandFamily) {
      for (const std::size_t p : ident_occurrences(line, name)) {
        if (foreign_qualified(line, p)) continue;
        if (!is_call(line, p, name.size())) continue;
        if (is_declaration(src.code, li, p)) continue;
        report(li, "rand-family");
      }
    }

    for (const std::size_t p : ident_occurrences(line, "random_device")) {
      if (foreign_qualified(line, p)) continue;
      report(li, "random-device");
    }

    for (const auto& name : {std::string("mt19937"), std::string("mt19937_64")}) {
      for (const std::size_t p : ident_occurrences(line, name)) {
        std::size_t i = skip_spaces(line, p + name.size());
        // A declared variable name, or a direct temporary.
        std::size_t after_decl = i;
        if (i < line.size() && is_ident(line[i])) {
          while (after_decl < line.size() && is_ident(line[after_decl])) {
            ++after_decl;
          }
          after_decl = skip_spaces(line, after_decl);
        }
        if (after_decl >= line.size()) continue;  // multi-line: conservative
        const char c = line[after_decl];
        if (c == ';') {
          report(li, "unseeded-mt19937");
        } else if (c == '(' || c == '{') {
          const std::size_t close = matching_close(
              line, after_decl, c, c == '(' ? ')' : '}');
          if (close != std::string::npos &&
              skip_spaces(line, after_decl + 1) == close) {
            report(li, "unseeded-mt19937");
          }
        }
      }
    }

    for (const auto& name : kWallClock) {
      for (const std::size_t p : ident_occurrences(line, name)) {
        if (foreign_qualified(line, p)) continue;
        if (!is_call(line, p, name.size())) continue;
        if (is_declaration(src.code, li, p)) continue;
        report(li, "wall-clock");
      }
    }
    for (const std::size_t p : ident_occurrences(line, "now")) {
      // Any clock's ::now() — catches `using Clock = steady_clock` aliases.
      if (p >= 2 && line[p - 2] == ':' && line[p - 1] == ':' &&
          is_call(line, p, 3)) {
        report(li, "wall-clock");
      }
    }

    for (const auto& name : kUnordered) {
      for (const std::size_t p : ident_occurrences(line, name)) {
        (void)p;
        report(li, "unordered-container");
      }
    }

    if (!cast_allowed) {
      for (const std::size_t p : ident_occurrences(line, "reinterpret_cast")) {
        (void)p;
        report(li, "reinterpret-cast");
      }
    }

    for (const auto& name : {std::string("fetch_add"), std::string("fetch_sub")}) {
      for (const std::size_t p : ident_occurrences(line, name)) {
        if (!is_call(line, p, name.size())) continue;
        // Walk back over the object expression (`obj.counter->value`).
        std::size_t start = p;
        while (start > 0) {
          const char c = line[start - 1];
          if (is_ident(c) || c == '.' || c == ':' || c == '>' || c == '-' ||
              c == ']' || c == '[') {
            --start;
          } else {
            break;
          }
        }
        const char before = prev_nonspace(src.code, li, start);
        const bool statement_start =
            before == '\0' || before == ';' || before == '{' || before == '}';
        bool discarded = false;
        if (statement_start) {
          const std::size_t open = line.find('(', p);
          const std::size_t close =
              matching_close(line, open, '(', ')');
          if (close != std::string::npos) {
            const std::size_t next = skip_spaces(line, close + 1);
            discarded = next < line.size() && line[next] == ';';
          }
        }
        if (!discarded) report(li, "sched-dependent-value");
      }
    }

    for (const std::size_t p : ident_occurrences(line, "detach")) {
      if (!member_qualified(line, p)) continue;
      if (!is_call(line, p, 6)) continue;
      report(li, "thread-detach");
    }

    if (!mutex_allowed) {
      // Any std::-qualified mention counts — declarations are exactly what
      // the rule exists to catch (`#include <mutex>` alone stays legal).
      static const std::vector<std::string> kRawSync = {
          "mutex",          "shared_mutex",
          "recursive_mutex", "timed_mutex",
          "recursive_timed_mutex", "shared_timed_mutex",
          "condition_variable", "condition_variable_any",
          "lock_guard",     "unique_lock",
          "shared_lock",    "scoped_lock"};
      for (const auto& name : kRawSync) {
        for (const std::size_t p : ident_occurrences(line, name)) {
          if (!std_qualified(line, p)) continue;
          report(li, "raw-mutex-type");
        }
      }

      static const std::vector<std::string> kManualLock = {
          "lock",        "unlock",        "try_lock",
          "lock_shared", "unlock_shared", "try_lock_shared"};
      for (const auto& name : kManualLock) {
        for (const std::size_t p : ident_occurrences(line, name)) {
          if (!member_qualified(line, p)) continue;
          if (!is_call(line, p, name.size())) continue;
          report(li, "manual-lock-unlock");
        }
      }
    }

    for (const auto& name :
         {std::string("sleep_for"), std::string("sleep_until")}) {
      for (const std::size_t p : ident_occurrences(line, name)) {
        if (member_qualified(line, p)) continue;
        if (p >= 2 && line[p - 2] == ':' && line[p - 1] == ':') {
          // std::this_thread::sleep_for is the real thing; SomeScheduler::
          // sleep_for is not ours to judge.
          std::size_t q = p - 2;
          while (q > 0 && is_ident(line[q - 1])) --q;
          const std::string qualifier = line.substr(q, p - 2 - q);
          if (!qualifier.empty() && qualifier != "this_thread" &&
              qualifier != "std") {
            continue;
          }
        }
        if (!is_call(line, p, name.size())) continue;
        report(li, "sleep-as-sync");
      }
    }
    for (const auto& name : {std::string("sleep"), std::string("usleep"),
                             std::string("nanosleep")}) {
      for (const std::size_t p : ident_occurrences(line, name)) {
        if (foreign_qualified(line, p)) continue;
        if (!is_call(line, p, name.size())) continue;
        if (is_declaration(src.code, li, p)) continue;
        report(li, "sleep-as-sync");
      }
    }

    // Lambdas handed to thread entry points: scan the argument span (which
    // may run over several lines) for a default-by-reference capture.
    static const std::vector<std::string> kThreadEntry = {
        "submit", "parallel_for", "parallel_for_chunked",
        "parallel_for_sharded", "async"};
    for (const auto& name : kThreadEntry) {
      for (const std::size_t p : ident_occurrences(line, name)) {
        std::size_t open = skip_spaces(line, p + name.size());
        // Explicit template arguments: parallel_for_sharded<Shard>(…).
        if (open < line.size() && line[open] == '<') {
          for (int depth = 0; open < line.size(); ++open) {
            if (line[open] == '<') ++depth;
            if (line[open] == '>' && --depth == 0) break;
          }
          open = skip_spaces(line, open + 1);
        }
        if (open >= line.size() || line[open] != '(') continue;
        if (span_has_ref_capture(src.code, li, open, '(', ')')) {
          report(li, "ref-capture-thread-lambda");
        }
      }
    }
    for (const std::size_t p : ident_occurrences(line, "thread")) {
      // `thread worker(…)` / `thread(…)` / `thread worker{…}` constructions
      // (std::this_thread never matches: the `_` glues it into one token).
      std::size_t i = skip_spaces(line, p + 6);
      if (i < line.size() && is_ident(line[i])) {
        while (i < line.size() && is_ident(line[i])) ++i;
        i = skip_spaces(line, i);
      }
      if (i >= line.size()) continue;
      const char c = line[i];
      if (c != '(' && c != '{') continue;
      if (span_has_ref_capture(src.code, li, i, c, c == '(' ? ')' : '}')) {
        report(li, "ref-capture-thread-lambda");
      }
    }

    if (src.at_namespace_scope[li]) {
      // Heuristic single-line detector for mutable namespace-scope variables:
      // a declaration-looking statement with no parentheses (those are
      // functions or constructor calls) and no exempting keyword.
      const std::string& l = line;
      if (l.find(';') != std::string::npos && l.find('(') == std::string::npos &&
          l.find(')') == std::string::npos) {
        static const std::vector<std::string> kExempt = {
            "const",    "constexpr", "using",    "typedef", "extern",
            "template", "class",     "struct",   "enum",    "union",
            "namespace", "static_assert", "friend", "operator", "return",
            "concept",  "requires"};
        bool exempt = l.find('#') != std::string::npos;
        for (const auto& kw : kExempt) {
          if (exempt) break;
          if (!ident_occurrences(l, kw).empty()) exempt = true;
        }
        if (!exempt) {
          // Require "type name" or "type name = …" or "type name{…}" shape:
          // at least two identifier tokens before ; = or {.
          std::size_t stop = l.size();
          for (const char c : {';', '=', '{'}) {
            stop = std::min(stop, l.find(c));
          }
          std::size_t tokens = 0;
          bool in_tok = false;
          for (std::size_t i = 0; i < stop && i < l.size(); ++i) {
            const bool id = is_ident(l[i]) || l[i] == ':' || l[i] == '<' ||
                            l[i] == '>' || l[i] == ',' || l[i] == '*' ||
                            l[i] == '&';
            if (id && !in_tok) {
              ++tokens;
              in_tok = true;
            } else if (!id) {
              in_tok = false;
            }
          }
          if (tokens >= 2) report(li, "mutable-global");
        }
      }
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });

  Report report_out;
  report_out.findings = std::move(findings);
  for (const auto& e : sup.entries) {
    if (e.used) continue;
    report_out.stale.push_back(
        StaleSuppression{std::string(path), e.comment_line, e.rule,
                         e.file_wide});
  }
  std::sort(report_out.stale.begin(), report_out.stale.end(),
            [](const StaleSuppression& a, const StaleSuppression& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return report_out;
}

std::vector<Finding> lint_source(std::string_view path, std::string_view text,
                                 const Options& options) {
  return lint_source_report(path, text, options).findings;
}

Report lint_file_report(const std::string& path, const Options& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("hdlint: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return lint_source_report(path, buf.str(), options);
}

std::vector<Finding> lint_file(const std::string& path,
                               const Options& options) {
  return lint_file_report(path, options).findings;
}

Report lint_tree_report(const std::vector<std::string>& roots,
                        const Options& options) {
  namespace fs = std::filesystem;
  static const std::set<std::string> kExtensions = {".cpp", ".hpp", ".h",
                                                    ".cc",  ".hh",  ".cxx"};
  std::vector<std::string> files;
  for (const auto& root : roots) {
    if (!fs::exists(root)) {
      throw std::runtime_error("hdlint: no such path: " + root);
    }
    if (fs::is_regular_file(root)) {
      files.push_back(root);
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (entry.is_regular_file() &&
          kExtensions.count(entry.path().extension().string()) != 0) {
        files.push_back(entry.path().string());
      }
    }
  }
  std::sort(files.begin(), files.end());

  Report report;
  for (const auto& file : files) {
    auto r = lint_file_report(file, options);
    report.findings.insert(report.findings.end(),
                           std::make_move_iterator(r.findings.begin()),
                           std::make_move_iterator(r.findings.end()));
    report.stale.insert(report.stale.end(),
                        std::make_move_iterator(r.stale.begin()),
                        std::make_move_iterator(r.stale.end()));
  }
  return report;
}

std::vector<Finding> lint_tree(const std::vector<std::string>& roots,
                               const Options& options) {
  return lint_tree_report(roots, options).findings;
}

}  // namespace hdface::lint
