#pragma once

// Operation-count instrumentation shared by every compute layer.
//
// HDFace's efficiency claims (paper Fig 7) are about *operation mix*: the HDC
// pipeline is bitwise-word-parallel while the float pipeline is multiply/
// transcendental heavy. Every substrate in this repository reports its work
// through an OpCounter; src/perf maps the counts onto CPU/FPGA cycle and
// energy models.

#include <array>
#include <cstdint>
#include <string_view>

namespace hdface::core {

enum class OpKind : std::size_t {
  kWordLogic = 0,  // 64-bit AND/OR/XOR/NOT over hypervector words
  kPopcount,       // 64-bit population count
  kRngWord,        // 64 random bits drawn (mask generation)
  kIntAdd,         // integer add/sub (accumulators, histograms)
  kFloatAdd,       // float add/sub/accumulate
  kFloatMul,       // float multiply (MACs count one mul + one add)
  kFloatDiv,       // float divide
  kFloatSqrt,      // float square root
  kFloatTrig,      // atan2 / cos / sin / exp class transcendental
  kFloatCmp,       // float compare / select
  kCount
};

constexpr std::size_t kOpKindCount = static_cast<std::size_t>(OpKind::kCount);

constexpr std::string_view op_kind_name(OpKind k) {
  constexpr std::string_view names[kOpKindCount] = {
      "word_logic", "popcount",  "rng_word",  "int_add",  "float_add",
      "float_mul",  "float_div", "float_sqrt", "float_trig", "float_cmp"};
  return names[static_cast<std::size_t>(k)];
}

// Plain counter bucket. Not thread-safe by design: use one per worker and
// merge() afterwards (util::parallel_for_sharded hands each chunk its own).
struct OpCounter {
  std::array<std::uint64_t, kOpKindCount> counts{};

  void add(OpKind kind, std::uint64_t n) {
    counts[static_cast<std::size_t>(kind)] += n;
  }
  std::uint64_t get(OpKind kind) const {
    return counts[static_cast<std::size_t>(kind)];
  }
  void reset() { counts.fill(0); }
  void merge(const OpCounter& other) {
    for (std::size_t i = 0; i < kOpKindCount; ++i) counts[i] += other.counts[i];
  }
  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (auto c : counts) t += c;
    return t;
  }
};

}  // namespace hdface::core
