#pragma once

// SoA prototype block for batched similarity search.
//
// The associative-memory stage compares one query against every class
// prototype. Stored as separate Hypervectors (AoS), each comparison chases a
// different heap allocation and the inner loop reloads the query word per
// prototype. This block interleaves the prototypes word-first —
//
//   data[w * stride + c] = word w of prototype c
//
// — with `stride` = count rounded up to 8 lanes (one 64-byte cache line) and
// the base pointer 64-byte aligned, so kernels::hamming_block streams one
// broadcast query word against a full cache line of prototype words per
// step. Padding lanes c ∈ [count, stride) hold zeros; backends may read them
// but never write their results out.
//
// Results are bit-identical to calling hamming() per prototype, and the
// op-counter charge (words × count word-XORs and popcounts, padding
// excluded) matches the AoS hamming_many path exactly, so swapping a
// prototype vector for a block never changes an op total.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/hypervector.hpp"
#include "core/op_counter.hpp"

namespace hdface::core {

class PrototypeBlock {
 public:
  PrototypeBlock() = default;

  // Packs the given prototypes (all must share one dimensionality; an empty
  // span yields an empty block). Throws std::invalid_argument on a mismatch.
  explicit PrototypeBlock(std::span<const Hypervector> prototypes);

  PrototypeBlock(const PrototypeBlock& o);
  PrototypeBlock& operator=(const PrototypeBlock& o);
  PrototypeBlock(PrototypeBlock&& o) noexcept;
  PrototypeBlock& operator=(PrototypeBlock&& o) noexcept;
  ~PrototypeBlock() = default;

  std::size_t count() const { return count_; }
  std::size_t dim() const { return dim_; }
  std::size_t words() const { return words_; }
  std::size_t stride() const { return stride_; }
  bool empty() const { return count_ == 0; }

  // 64-byte-aligned word-interleaved payload (words() rows of stride()
  // lanes); null when empty.
  const std::uint64_t* data() const { return data_; }

  // Reconstructs prototype c (bounds-checked; for tests and serialization).
  Hypervector get(std::size_t c) const;

  // out[c] = hamming(query, prototype c) for every lane: hamming_many_range
  // over every word. Exactly equal to the per-prototype hamming() loop;
  // charges words × count kWordLogic + kPopcount to `counter` (the same as
  // the AoS hamming_many). Throws std::invalid_argument on dimensionality or
  // size mismatch.
  void hamming_many(const Hypervector& query, std::span<std::size_t> out,
                    OpCounter* counter = nullptr) const;

  // Convenience allocation form.
  std::vector<std::size_t> hamming_many(const Hypervector& query,
                                        OpCounter* counter = nullptr) const;

  // Prefix/range variant for the early-reject cascade (pipeline/cascade.hpp),
  // run by the active backend's hamming_block on pointers offset to word_lo:
  // out[c] = Hamming distance over only the words [word_lo, word_hi), so the
  // partial sums over a tiling of [0, words()) add up to exactly
  // hamming_many's result per lane. Bits of `query` outside the range are
  // ignored (a partially assembled query is fine as long as the range's words
  // are final). Charges (word_hi − word_lo) × count kWordLogic + kPopcount —
  // the exact prefix share of the full charge. Throws std::invalid_argument
  // on dimensionality/size mismatch or a range outside [0, words()].
  void hamming_many_range(const Hypervector& query, std::size_t word_lo,
                          std::size_t word_hi, std::span<std::size_t> out,
                          OpCounter* counter = nullptr) const;

 private:
  void align_and_zero();  // (re)derives data_ from storage_

  std::size_t count_ = 0;
  std::size_t dim_ = 0;
  std::size_t words_ = 0;
  std::size_t stride_ = 0;
  std::vector<std::uint64_t> storage_;  // payload + 64-byte alignment slack
  std::uint64_t* data_ = nullptr;       // aligned view into storage_
};

}  // namespace hdface::core
