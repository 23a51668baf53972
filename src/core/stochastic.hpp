#pragma once

// Stochastic arithmetic over binary hypervectors (paper §4).
//
// A fixed random basis hypervector V₁ represents the number 1; a hypervector
// V_a represents a ∈ [−1, 1] iff δ(V_a, V₁) = a, i.e. V_a agrees with V₁ on a
// (1+a)/2 fraction of dimensions. Under this representation:
//
//   negation        −a  :  element-wise flip                 (exact)
//   weighted avg  pa+qb :  per-dim random select, p + q = 1  (E exact, ±σ)
//   multiplication  ab  :  V_a ^ V_b ^ V₁                    (E exact for
//                          independently-random operands, ±σ)
//   decode          a   :  δ(V_a, V₁) via XOR+popcount       (exact readout)
//   divide / sqrt       :  binary search per the paper's §4.2 algorithm
//
// σ ~ 1/√D is the binomial sampling noise; Fig 2 of the paper (reproduced by
// bench/fig2_arith_error) shows how it shrinks with dimensionality.
//
// Independence caveat: the multiplication identity requires the two operands'
// randomness to be independent given V₁. The paper squares gradient vectors as
// V_G ⊗ V_G, which taken literally always yields V₁ (≡ 1). We decorrelate by
// regeneration — decode the operand exactly and re-construct a fresh
// representation — the standard stochastic-computing fix (see DESIGN.md §2 and
// bench/ablation_stochastic).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/hypervector.hpp"
#include "core/kernels/kernels.hpp"
#include "core/op_counter.hpp"
#include "core/rng.hpp"
#include "util/check.hpp"

namespace hdface::core {

struct StochasticConfig {
  std::size_t dim = 4096;
  std::uint64_t seed = 0x5eed;
  // Binary-search iterations for divide / sqrt. Interval error is 2^-iters,
  // on top of the ~1/√D stochastic noise. 0 = auto: ⌈log₂√D⌉ + 1, i.e. just
  // past the point where the interval term sinks below the stochastic noise.
  int search_iters = 0;
  // Probability resolution of Bernoulli masks: 2^-mask_bits (fresh-mask mode).
  int mask_bits = 16;
  // Selection-mask pool: > 0 enables reuse of precomputed Bernoulli masks
  // (pool entries per quantized probability bucket). This is how optimized
  // software/hardware implementations supply stochastic selection bits (LFSR
  // banks / mask ROMs) instead of running a fresh RNG chain per operation —
  // it cuts host time and modeled cost by ~an order of magnitude. Reuse
  // introduces a small collision probability (1/pool per operand pair, mildly
  // correlating results); bench/ablation_stochastic quantifies the effect.
  // 0 = always generate fresh masks. Pool mode quantizes probabilities to 8
  // bits (matching 8-bit pixel depth).
  std::size_t mask_pool = 64;
};

class StochasticContext {
 public:
  explicit StochasticContext(const StochasticConfig& config);
  StochasticContext(std::size_t dim, std::uint64_t seed)
      : StochasticContext(StochasticConfig{.dim = dim, .seed = seed}) {}

  std::size_t dim() const { return config_.dim; }
  const StochasticConfig& config() const { return config_; }

  // The basis hypervector V₁ (represents +1). Its negation represents −1.
  const Hypervector& basis() const { return basis_; }

  // Construct a fresh representation V_a of a ∈ [−1, 1] (clamped).
  Hypervector construct(double a);

  // Exact readout: δ(v, V₁).
  double decode(const Hypervector& v) const;

  // C = p·a ⊕ (1−p)·b : per-dimension random selection (paper's ⊕).
  Hypervector weighted_average(const Hypervector& a, const Hypervector& b,
                               double p);

  // Represents (a+b)/2 — the paper's addition (used for HOG gradients).
  Hypervector add_halved(const Hypervector& a, const Hypervector& b) {
    return weighted_average(a, b, 0.5);
  }

  // Represents (a−b)/2.
  Hypervector sub_halved(const Hypervector& a, const Hypervector& b) {
    return weighted_average(a, ~b, 0.5);
  }

  // V_{ab} = V_a ^ V_b ^ V₁. Operands must carry independent randomness.
  Hypervector multiply(const Hypervector& a, const Hypervector& b);

  // Fresh representation of the same value (decorrelation).
  Hypervector regenerate(const Hypervector& v) { return construct(decode(v)); }

  // a² with regeneration-based decorrelation.
  Hypervector square(const Hypervector& v);

  // V_{c·a} for a constant c ∈ [−1, 1]: average with a fresh zero vector.
  Hypervector scale(const Hypervector& v, double c);

  // |a| (sign read out via decode, then conditional flip).
  Hypervector abs(const Hypervector& v);

  // √a for a ∈ [0, 1] via the paper's binary-search algorithm (negative
  // inputs, which arise only from stochastic noise around 0, clamp to 0).
  Hypervector sqrt(const Hypervector& v);

  // a/b clamped to [−1, 1], via binary search with multiply + compare.
  Hypervector divide(const Hypervector& a, const Hypervector& b);

  // Hyperspace comparison: sign of δ(0.5a ⊕ 0.5(−b), V₁) with margin eps
  // (default 2/√D, the statistical noise floor). Returns −1, 0 or +1.
  int compare(const Hypervector& a, const Hypervector& b, double eps = -1.0);

  // Sign of the represented value, with the same margin convention.
  int sign_of(const Hypervector& v, double eps = -1.0) const;

  // Fresh representation of zero.
  Hypervector zero() { return construct(0.0); }

  // Bernoulli selection mask: each bit 1 with probability p (quantized to
  // mask_bits of precision). Exposed for tests and the item memory.
  Hypervector bernoulli_mask(double p);

  // Borrowed view of a pooled Bernoulli mask: the pool entry's words plus
  // the word-rotation offset bernoulli_mask(p) would have applied, so mask
  // word i is words[(i + offset) % n]. The batched cell encoder hands the
  // view straight to the select_rotated kernel, which applies the rotation
  // as an address offset; the rotated copy is never materialized.
  // pooled_mask_view(p) advances the RNG chain and charges the counter
  // exactly like bernoulli_mask(p) in pool mode — same NaN contract, same
  // clamp and bucket, same two draws (pool index, then rotation) — so the
  // two are interchangeable draw-for-draw. Inline because the encoder draws
  // about thirty masks per pixel. Only valid while the pool outlives the
  // view; requires pooled_fast_path() (throws std::logic_error otherwise).
  kernels::WordView pooled_mask_view(double p) {
    if (!pooled_fast_path()) throw_not_pooled();
    HD_CHECK(!std::isnan(p), "pooled_mask_view: NaN probability (upstream "
                             "arithmetic produced a poisoned value)");
    const std::size_t bucket = pool_bucket(p);
    const auto& masks = (*pool_)[bucket];
    count(OpKind::kRngWord, 1);  // pool index + rotation draw
    count(OpKind::kWordLogic, basis_.num_words());  // mask stream read
    const Hypervector& entry = masks[rng_.below(masks.size())];
    const std::size_t off = rng_.below(entry.num_words());
    return kernels::WordView{entry.words().data(), off};
  }

  // True when pooled_mask_view can stand in for bernoulli_mask: pool mode
  // enabled and warmed (so the draw is a pure pool lookup, never a lazy
  // fill) and dim a whole number of words (so rotation never touches tail
  // bits and complement identities like popcount(~w) = 64 − popcount(w)
  // hold word-exactly).
  bool pooled_fast_path() const {
    return config_.mask_pool > 0 && pool_warmed_ && config_.dim % 64 == 0;
  }

  // Optional op accounting.
  void set_counter(OpCounter* counter) { counter_ = counter; }
  OpCounter* counter() const { return counter_; }

  // Effective binary-search iteration count (resolves the auto setting).
  int effective_search_iters() const;

  // --- concurrency support ---------------------------------------------------
  //
  // A context is single-threaded: the RNG chain and the lazily-filled mask
  // pool are mutable state. Concurrent encoding instead uses *forks*: a fork
  // shares the basis V₁ and the (immutable once warmed) mask pool with its
  // parent, but owns an independent RNG chain and counter pointer, so any
  // number of forks may run on different threads at once.
  //
  // Determinism contract: after `reseed(s)`, every operation sequence on the
  // fork is a pure function of (basis, warmed pool, s) — independent of which
  // thread runs it or what other forks do. The parallel detection engine
  // reseeds per window with a seed derived from the window index, which makes
  // parallel scans bit-identical to serial ones.

  // Fill every mask-pool bucket up front so that forks never race on the lazy
  // fill. Idempotent; draws from this context's RNG chain in bucket order on
  // first call. No-op when mask_pool == 0.
  void warm_pool();
  bool pool_warmed() const { return pool_warmed_; }

  // Independent-stream copy sharing basis + pool. Requires warm_pool() first
  // (throws std::logic_error otherwise) unless mask_pool == 0.
  StochasticContext fork(std::uint64_t stream_seed) const;

  // Restart the RNG chain from a fixed seed (per-window determinism).
  void reseed(std::uint64_t seed) { rng_ = Rng(seed); }

  // --- fault-injection hooks -------------------------------------------------
  //
  // The warmed mask pool is the software analogue of a hardware mask ROM /
  // LFSR bank — stored hypervector material that device-level faults can
  // corrupt. pipeline::faulted_copy writes faults into the pool of a copied
  // context through these hooks. A copy shares its original's pool just as a
  // fork does, so it takes a private pool (unshare_pool) before any bucket is
  // written, and writes it before any fork of it reads the pool.

  // Number of quantized probability buckets (0 when pooling is disabled).
  std::size_t pool_buckets() const { return pool_ ? pool_->size() : 0; }

  // Replaces the shared pool with a private deep copy; forks taken afterwards
  // share the private one. No-op when pooling is disabled.
  void unshare_pool() {
    if (pool_) {
      pool_ = std::make_shared<std::vector<std::vector<Hypervector>>>(*pool_);
    }
  }

  // Mutable view of one warmed bucket, shared with every context that shares
  // the pool. Throws std::logic_error before warm_pool() — patching a
  // lazily-filled pool would race with the fill.
  std::vector<Hypervector>& mutable_pool_bucket(std::size_t bucket);

 private:
  void count(OpKind kind, std::uint64_t n) {
    if (counter_) counter_->add(kind, n);
  }
  double default_eps() const;
  Hypervector fresh_mask(double p);
  [[noreturn]] static void throw_not_pooled();

  // Pool bucket of a probability: p clamped to [0, 1] and rounded to the
  // nearest 255th, halves up. For x = p·255 ∈ [0, 255] the difference
  // x − trunc(x) is exact, so this picks std::llround(x)'s bucket for every
  // p without the library call.
  static std::size_t pool_bucket(double p) {
    const double x = std::clamp(p, 0.0, 1.0) * 255.0;
    const auto t = static_cast<std::size_t>(x);
    return x - static_cast<double>(t) >= 0.5 ? t + 1 : t;
  }

  StochasticConfig config_;
  Rng rng_;
  Hypervector basis_;
  OpCounter* counter_ = nullptr;
  // (*pool_)[bucket] lazily holds `mask_pool` masks for probability
  // bucket/255. Shared (read-only once warmed) between a context and its
  // forks; only the owning context may lazy-fill, and never after forking.
  std::shared_ptr<std::vector<std::vector<Hypervector>>> pool_;
  bool pool_warmed_ = false;
};

}  // namespace hdface::core
