#include "core/prototype_block.hpp"

#include <array>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "core/kernels/kernels.hpp"
#include "util/check.hpp"

namespace hdface::core {

namespace {
// Lanes per 64-byte cache line; the stride is rounded up to this so every
// hamming_block row starts a fresh line and the widest backend (8×64-bit)
// can always load a full vector of lanes.
constexpr std::size_t kLaneRound = 8;
constexpr std::size_t kAlignBytes = 64;
constexpr std::size_t kAlignSlackWords = kAlignBytes / sizeof(std::uint64_t) - 1;
}  // namespace

void PrototypeBlock::align_and_zero() {
  const std::size_t payload = words_ * stride_;
  if (payload == 0) {
    storage_.clear();
    data_ = nullptr;
    return;
  }
  storage_.assign(payload + kAlignSlackWords, 0);
  void* p = storage_.data();
  std::size_t space = storage_.size() * sizeof(std::uint64_t);
  void* aligned = std::align(kAlignBytes, payload * sizeof(std::uint64_t), p,
                             space);
  HD_CHECK(aligned != nullptr,
           "PrototypeBlock: alignment slack too small for a 64-byte base");
  data_ = static_cast<std::uint64_t*>(aligned);
}

PrototypeBlock::PrototypeBlock(std::span<const Hypervector> prototypes) {
  if (prototypes.empty()) return;
  count_ = prototypes.size();
  dim_ = prototypes.front().dim();
  for (const Hypervector& p : prototypes) {
    if (p.dim() != dim_) {
      throw std::invalid_argument("PrototypeBlock: dimensionality mismatch");
    }
  }
  words_ = prototypes.front().num_words();
  stride_ = (count_ + kLaneRound - 1) / kLaneRound * kLaneRound;
  align_and_zero();
  for (std::size_t c = 0; c < count_; ++c) {
    const std::span<const std::uint64_t> pw = prototypes[c].words();
    for (std::size_t w = 0; w < words_; ++w) {
      data_[w * stride_ + c] = pw[w];
    }
  }
}

PrototypeBlock::PrototypeBlock(const PrototypeBlock& o)
    : count_(o.count_), dim_(o.dim_), words_(o.words_), stride_(o.stride_) {
  // The alignment offset differs between buffers, so the payload is re-laid
  // out from the aligned base rather than the vector copied verbatim.
  align_and_zero();
  if (data_ != nullptr) {
    std::memcpy(data_, o.data_, words_ * stride_ * sizeof(std::uint64_t));
  }
}

PrototypeBlock& PrototypeBlock::operator=(const PrototypeBlock& o) {
  if (this == &o) return *this;
  count_ = o.count_;
  dim_ = o.dim_;
  words_ = o.words_;
  stride_ = o.stride_;
  align_and_zero();
  if (data_ != nullptr) {
    std::memcpy(data_, o.data_, words_ * stride_ * sizeof(std::uint64_t));
  }
  return *this;
}

PrototypeBlock::PrototypeBlock(PrototypeBlock&& o) noexcept
    : count_(o.count_),
      dim_(o.dim_),
      words_(o.words_),
      stride_(o.stride_),
      storage_(std::move(o.storage_)),
      data_(o.data_) {  // vector move keeps the heap buffer, so data_ holds
  o.count_ = o.dim_ = o.words_ = o.stride_ = 0;
  o.storage_.clear();
  o.data_ = nullptr;
}

PrototypeBlock& PrototypeBlock::operator=(PrototypeBlock&& o) noexcept {
  if (this == &o) return *this;
  count_ = o.count_;
  dim_ = o.dim_;
  words_ = o.words_;
  stride_ = o.stride_;
  storage_ = std::move(o.storage_);
  data_ = o.data_;
  o.count_ = o.dim_ = o.words_ = o.stride_ = 0;
  o.storage_.clear();
  o.data_ = nullptr;
  return *this;
}

Hypervector PrototypeBlock::get(std::size_t c) const {
  if (c >= count_) {
    throw std::out_of_range("PrototypeBlock: prototype index out of range");
  }
  Hypervector v(dim_);
  const std::span<std::uint64_t> vw = v.mutable_words();
  for (std::size_t w = 0; w < words_; ++w) {
    vw[w] = data_[w * stride_ + c];
  }
  return v;
}

void PrototypeBlock::hamming_many(const Hypervector& query,
                                  std::span<std::size_t> out,
                                  OpCounter* counter) const {
  hamming_many_range(query, 0, words_, out, counter);
}

std::vector<std::size_t> PrototypeBlock::hamming_many(const Hypervector& query,
                                                      OpCounter* counter) const {
  std::vector<std::size_t> out(count_);
  hamming_many(query, out, counter);
  return out;
}

void PrototypeBlock::hamming_many_range(const Hypervector& query,
                                        std::size_t word_lo,
                                        std::size_t word_hi,
                                        std::span<std::size_t> out,
                                        OpCounter* counter) const {
  if (out.size() != count_) {
    throw std::invalid_argument("PrototypeBlock: output size mismatch");
  }
  if (count_ == 0) return;
  if (query.dim() != dim_) {
    throw std::invalid_argument("PrototypeBlock: dimensionality mismatch");
  }
  if (word_lo > word_hi || word_hi > words_) {
    throw std::invalid_argument("PrototypeBlock: word range out of bounds");
  }
  std::array<std::uint64_t, 64> stack{};
  std::vector<std::uint64_t> heap;
  std::uint64_t* sums = stack.data();
  if (count_ > stack.size()) {
    heap.resize(count_);
    sums = heap.data();
  }
  // A word range is the block kernel on offset pointers: row word_lo of the
  // interleaved block starts at data_ + word_lo · stride_.
  kernels::active().hamming_block(query.words().data() + word_lo,
                                  data_ + word_lo * stride_, word_hi - word_lo,
                                  count_, stride_, sums);
  for (std::size_t c = 0; c < count_; ++c) {
    out[c] = static_cast<std::size_t>(sums[c]);
  }
  if (counter) {
    const auto ops = static_cast<std::uint64_t>(word_hi - word_lo) * count_;
    counter->add(OpKind::kWordLogic, ops);
    counter->add(OpKind::kPopcount, ops);
  }
}

}  // namespace hdface::core
