#include "core/accumulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/kernels/kernels.hpp"

namespace hdface::core {

Accumulator::Accumulator(std::size_t dim) : counts_(dim, 0.0) {
  if (dim == 0) throw std::invalid_argument("Accumulator: dim must be > 0");
}

void Accumulator::add(const Hypervector& v, double weight) {
  if (v.dim() != counts_.size()) {
    throw std::invalid_argument("Accumulator: dimensionality mismatch");
  }
  // weight · (±1) is exactly ±weight, so the select is the product.
  const double sel[2] = {-weight, weight};
  const std::span<const std::uint64_t> words = v.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t bits = words[w];
    double* c = counts_.data() + w * 64;
    const std::size_t n = std::min<std::size_t>(64, counts_.size() - w * 64);
    for (std::size_t b = 0; b < n; ++b, bits >>= 1) c[b] += sel[bits & 1ULL];
  }
  if (op_counter_) op_counter_->add(OpKind::kIntAdd, counts_.size());
}

void Accumulator::add_xor(const Hypervector& a, const Hypervector& b,
                          double weight) {
  if (a.dim() != counts_.size() || b.dim() != counts_.size()) {
    throw std::invalid_argument("Accumulator: dimensionality mismatch");
  }
  const std::span<const std::uint64_t> aw = a.words();
  const std::span<const std::uint64_t> bw = b.words();
  const std::size_t dim = counts_.size();
  // The dispatched kernel performs the branchless ±weight select (every
  // backend adds exactly ±weight once per dimension, so the result is
  // bit-identical regardless of backend).
  kernels::active().add_xor_weighted(aw.data(), bw.data(), dim, weight,
                                     counts_.data());
  if (op_counter_) {
    op_counter_->add(OpKind::kWordLogic, aw.size());
    op_counter_->add(OpKind::kIntAdd, dim);
  }
}

void Accumulator::reset() {
  for (auto& c : counts_) c = 0.0;
}

void Accumulator::set_counts(std::vector<double> counts) {
  if (counts.size() != counts_.size()) {
    throw std::invalid_argument("Accumulator: set_counts size mismatch");
  }
  counts_ = std::move(counts);
}

Hypervector Accumulator::threshold(Rng& rng) const {
  if (counts_.empty()) throw std::logic_error("Accumulator: empty");
  Hypervector out(counts_.size());
  const std::size_t zeros = kernels::active().threshold_words(
      counts_.data(), counts_.size(), out.mutable_words().data());
  if (zeros != 0) {
    // Tie-break pass stays scalar so the RNG stream is identical on every
    // backend: one draw per exact zero, in ascending dimension order.
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0.0 && (rng.next() & 1ULL)) out.set(i, true);
    }
  }
  return out;
}

double Accumulator::cosine(const Hypervector& v) const {
  double dot = 0.0;
  double nrm = 0.0;
  dot_norm2_many({this, 1}, v, {&dot, 1}, {&nrm, 1}, op_counter_);
  return cosine_from(dot, nrm, counts_.size());
}

double Accumulator::norm() const {
  double nrm = 0.0;
  for (auto c : counts_) nrm += c * c;
  return std::sqrt(nrm);
}

void dot_norm2_many(std::span<const Accumulator> accs, const Hypervector& v,
                    std::span<double> dots, std::span<double> norms2,
                    OpCounter* counter) {
  if (dots.size() != accs.size() || norms2.size() != accs.size()) {
    throw std::invalid_argument("dot_norm2_many: output size mismatch");
  }
  const std::size_t dim = v.dim();
  for (const Accumulator& a : accs) {
    if (a.dim() != dim) {
      throw std::invalid_argument("Accumulator: dimensionality mismatch");
    }
  }
  std::fill(dots.begin(), dots.end(), 0.0);
  std::fill(norms2.begin(), norms2.end(), 0.0);
  static constexpr double kSign[2] = {-1.0, 1.0};
  const std::span<const std::uint64_t> words = v.words();
  const std::size_t count = accs.size();
  for (std::size_t w = 0; w < words.size(); ++w) {
    const std::size_t lo = w * 64;
    const std::size_t n = std::min<std::size_t>(64, dim - lo);
    // Accumulators go in pairs so four independent add chains overlap (each
    // chain is latency-bound); an odd last one pairs with itself.
    for (std::size_t c0 = 0; c0 < count; c0 += 2) {
      const std::size_t c1 = std::min(c0 + 1, count - 1);
      const double* x0 = accs[c0].counts().data() + lo;
      const double* x1 = accs[c1].counts().data() + lo;
      double d0 = dots[c0];
      double m0 = norms2[c0];
      double d1 = dots[c1];
      double m1 = norms2[c1];
      std::uint64_t bits = words[w];
      for (std::size_t b = 0; b < n; ++b, bits >>= 1) {
        const double s = kSign[bits & 1ULL];
        d0 += x0[b] * s;
        m0 += x0[b] * x0[b];
        d1 += x1[b] * s;
        m1 += x1[b] * x1[b];
      }
      dots[c0] = d0;
      norms2[c0] = m0;
      dots[c1] = d1;
      norms2[c1] = m1;
    }
  }
  if (counter) {
    counter->add(OpKind::kFloatMul, 2 * dim * count);
    counter->add(OpKind::kFloatAdd, 2 * dim * count);
  }
}

double cosine_from(double dot, double norm2, std::size_t dim) {
  if (norm2 == 0.0) return 0.0;
  return dot / (std::sqrt(norm2) * std::sqrt(static_cast<double>(dim)));
}

}  // namespace hdface::core
