#pragma once

// The vector loop of select_rotated (see kernels.hpp), shared by the SIMD
// backends. Each backend TU instantiates it with vector traits declared in
// its own anonymous namespace, so every instantiation is compiled with that
// TU's target flags and has internal linkage.
//
// With n a multiple of the vector width W, vector j of a view with offset k
// holds words (k + jW + l) % n for l < W: a plain load while those words do
// not wrap, and for the one vector per view whose words straddle the wrap
// (k % W != 0), V::load_wrapped, which reads only inside the view's n words.
//
// Traits V provide:
//   kWords                     64-bit words per vector (W)
//   Vec                        the vector type
//   load(p)                    the W words at p
//   load_wrapped(words, s, n)  words[(s + l) % n] for l < W, given
//                              n − W < s < n (so n ≥ W)
//   splat(x)                   x in every word
//   bxor(a, b), select(m, p, q) (bitwise m ? p : q)
//   store(p, v)
//   zero(), popcount_add(acc, v), reduce(acc)  per-word popcount sums

#include <cstddef>
#include <cstdint>

#include "core/kernels/kernels.hpp"

namespace hdface::core::kernels::detail {

// Reads a view one vector at a time, front to back.
template <class V>
struct RotatedReader {
  const std::uint64_t* words;
  std::size_t next;  // first word of the next vector, < n

  typename V::Vec read(std::size_t n) {
    const std::size_t s = next;
    next = s + V::kWords >= n ? s + V::kWords - n : s + V::kWords;
    return s + V::kWords <= n ? V::load(words + s)
                              : V::load_wrapped(words, s, n);
  }
};

template <class V, bool kP2, bool kQ2>
std::uint64_t select_rotated_vectors(const SelectOperands& op,
                                     std::uint64_t* dst, std::size_t n) {
  using Vec = typename V::Vec;
  RotatedReader<V> p1{op.p1.words, op.p1.offset};
  RotatedReader<V> p2{op.p2.words, op.p2.offset};
  RotatedReader<V> q1{op.q1.words, op.q1.offset};
  RotatedReader<V> q2{op.q2.words, op.q2.offset};
  RotatedReader<V> m{op.m.words, op.m.offset};
  const Vec pf = V::splat(op.p_flip);
  const Vec qf = V::splat(op.q_flip);
  Vec acc = V::zero();
  for (std::size_t i = 0; i < n; i += V::kWords) {
    Vec p = V::bxor(p1.read(n), pf);
    if constexpr (kP2) p = V::bxor(p, p2.read(n));
    Vec q = V::bxor(q1.read(n), qf);
    if constexpr (kQ2) q = V::bxor(q, q2.read(n));
    const Vec out = V::select(m.read(n), p, q);
    V::store(dst + i, out);
    acc = V::popcount_add(acc, out);
  }
  return V::reduce(acc);
}

// Table entry: whole vectors when n is a multiple of the width, the scalar
// reference otherwise; absent p2 / q2 select a specialization instead of
// reading zeros.
template <class V>
std::uint64_t select_rotated_simd(const SelectOperands& op, std::uint64_t* dst,
                                  std::size_t n) {
  if (n % V::kWords != 0) return scalar_table().select_rotated(op, dst, n);
  const bool p2 = op.p2.words != nullptr;
  const bool q2 = op.q2.words != nullptr;
  if (p2) {
    return q2 ? select_rotated_vectors<V, true, true>(op, dst, n)
              : select_rotated_vectors<V, true, false>(op, dst, n);
  }
  return q2 ? select_rotated_vectors<V, false, true>(op, dst, n)
            : select_rotated_vectors<V, false, false>(op, dst, n);
}

}  // namespace hdface::core::kernels::detail
