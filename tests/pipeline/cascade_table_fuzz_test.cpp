// Seeded mutation test of the cascade threshold-table parser: a few thousand
// mutants of a v1 and a v2 table text (byte flips, truncations, deleted and
// duplicated lines, sign and digit edits, nan/inf tokens) must each either
// throw std::runtime_error from cascade_table_from_text or parse to a table
// that cascade_table_error accepts or rejects with a reason. Nothing else
// may escape, and under the asan preset nothing may read out of bounds.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "pipeline/cascade.hpp"

namespace hdface::pipeline {
namespace {

CascadeTable base_table(bool prescreen) {
  CascadeTable table;
  table.seed = 42;
  table.dim = 2048;
  table.classes = 2;
  table.positive_class = 1;
  table.window = 32;
  table.stride = 8;
  table.stages = {{2, -0.125}, {4, -0.0625}, {8, -0.03125}, {16, 0.001}};
  if (prescreen) {
    table.prescreen_words = 8;
    table.prescreen_reject_below = -0.09375;
    table.prescreen_vmax = 0.71875;
    table.prescreen_spread_below = 1.5;
  }
  return table;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::size_t end = nl == std::string::npos ? text.size() : nl + 1;
    lines.push_back(text.substr(pos, end - pos));
    pos = end;
  }
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

// Offsets where a value token starts (just after a space).
std::vector<std::size_t> token_starts(const std::string& text) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] == ' ') out.push_back(i + 1);
  }
  return out;
}

std::string mutate_once(std::string text, core::Rng& rng) {
  static const char* const kTokens[] = {"nan", "-nan", "inf", "-inf",
                                        "1e999", "-0", "0x",  "",
                                        "18446744073709551616"};
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.below(n));
  };
  switch (rng.below(7)) {
    case 0: {  // byte flip
      if (text.empty()) break;
      text[pick(text.size())] ^= static_cast<char>(1 + rng.below(255));
      break;
    }
    case 1:  // truncation
      text.resize(pick(text.size() + 1));
      break;
    case 2: {  // delete a line
      std::vector<std::string> lines = split_lines(text);
      if (lines.empty()) break;
      const auto at = static_cast<std::ptrdiff_t>(pick(lines.size()));
      lines.erase(lines.begin() + at);
      text = join(lines);
      break;
    }
    case 3: {  // duplicate a line
      std::vector<std::string> lines = split_lines(text);
      if (lines.empty()) break;
      const std::size_t at = pick(lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), lines[at]);
      text = join(lines);
      break;
    }
    case 4: {  // sign edit at a value token
      const std::vector<std::size_t> starts = token_starts(text);
      if (starts.empty()) break;
      const std::size_t at = starts[pick(starts.size())];
      if (text[at] == '-' || text[at] == '+') {
        text.erase(at, 1);
      } else {
        text.insert(at, 1, rng.below(2) == 0 ? '-' : '+');
      }
      break;
    }
    case 5: {  // digit edit: replace, insert or delete one digit
      std::vector<std::size_t> digits;
      for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] >= '0' && text[i] <= '9') digits.push_back(i);
      }
      if (digits.empty()) break;
      const std::size_t at = digits[pick(digits.size())];
      const char d = static_cast<char>('0' + rng.below(10));
      switch (rng.below(3)) {
        case 0: text[at] = d; break;
        case 1: text.insert(at, 1, d); break;
        default: text.erase(at, 1); break;
      }
      break;
    }
    default: {  // replace a value token with nan/inf/overflow/empty
      const std::vector<std::size_t> starts = token_starts(text);
      if (starts.empty()) break;
      const std::size_t at = starts[pick(starts.size())];
      std::size_t end = at;
      while (end < text.size() && text[end] != ' ' && text[end] != '\n') ++end;
      text.replace(at, end - at, kTokens[pick(std::size(kTokens))]);
      break;
    }
  }
  return text;
}

TEST(CascadeTableFuzz, MutantsThrowTypedOrParseToAJudgedTable) {
  core::Rng rng(0xCA5CF022);
  std::size_t thrown = 0;
  std::size_t rejected = 0;
  std::size_t accepted = 0;
  for (const bool prescreen : {false, true}) {
    const std::string base = cascade_table_to_text(base_table(prescreen));
    ASSERT_EQ(cascade_table_error(cascade_table_from_text(base)), std::nullopt);
    for (int trial = 0; trial < 2048; ++trial) {
      std::string mutant = base;
      const std::uint64_t edits = 1 + rng.below(3);
      for (std::uint64_t e = 0; e < edits; ++e) {
        mutant = mutate_once(mutant, rng);
      }
      try {
        const CascadeTable table = cascade_table_from_text(mutant);
        if (const auto why = cascade_table_error(table)) {
          EXPECT_FALSE(why->empty()) << "mutant:\n" << mutant;
          ++rejected;
        } else {
          // An accepted table's canonical text parses back to itself.
          const std::string text = cascade_table_to_text(table);
          EXPECT_EQ(cascade_table_to_text(cascade_table_from_text(text)), text)
              << "mutant:\n" << mutant;
          ++accepted;
        }
      } catch (const std::runtime_error&) {
        ++thrown;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "untyped " << e.what() << " escaped on mutant:\n"
                      << mutant;
      }
    }
  }
  // Every outcome is exercised, so the mutants reach past the magic line.
  EXPECT_GT(thrown, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace hdface::pipeline
