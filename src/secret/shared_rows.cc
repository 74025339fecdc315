#include "src/secret/shared_rows.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace incshrink {

void SharedRows::AppendSecretRow(std::span<const Word> row, Rng* rng) {
  INCSHRINK_CHECK_EQ(row.size(), width_);
  const size_t base = shares0_.size();
  shares0_.resize(base + width_);
  shares1_.resize(base + width_);
  for (size_t c = 0; c < width_; ++c) {
    const WordShares s = ShareWord(row[c], rng);
    shares0_[base + c] = s.s0;
    shares1_[base + c] = s.s1;
  }
  ++rows_;
}

SharedRows::SharedRows(size_t width, std::vector<Word> shares0,
                       std::vector<Word> shares1)
    : width_(width),
      rows_(width == 0 ? 0 : shares0.size() / width),
      shares0_(std::move(shares0)),
      shares1_(std::move(shares1)) {
  INCSHRINK_CHECK_EQ(shares0_.size(), rows_ * width_);
  INCSHRINK_CHECK_EQ(shares1_.size(), shares0_.size());
}

void SharedRows::AppendSharedRow(const std::vector<Word>& share0,
                                 const std::vector<Word>& share1) {
  INCSHRINK_CHECK_EQ(share0.size(), width_);
  INCSHRINK_CHECK_EQ(share1.size(), width_);
  shares0_.insert(shares0_.end(), share0.begin(), share0.end());
  shares1_.insert(shares1_.end(), share1.begin(), share1.end());
  ++rows_;
}

void SharedRows::AppendRowFrom(const SharedRows& src, size_t row) {
  INCSHRINK_CHECK_EQ(src.width_, width_);
  INCSHRINK_CHECK_LT(row, src.rows_);
  const size_t base = row * width_;
  shares0_.insert(shares0_.end(), src.shares0_.begin() + base,
                  src.shares0_.begin() + base + width_);
  shares1_.insert(shares1_.end(), src.shares1_.begin() + base,
                  src.shares1_.begin() + base + width_);
  ++rows_;
}

void SharedRows::AppendAll(const SharedRows& other) {
  INCSHRINK_CHECK_EQ(other.width_, width_);
  shares0_.insert(shares0_.end(), other.shares0_.begin(),
                  other.shares0_.end());
  shares1_.insert(shares1_.end(), other.shares1_.begin(),
                  other.shares1_.end());
  rows_ += other.rows_;
}

SharedRows SharedRows::SplitPrefix(size_t n) {
  n = std::min(n, rows_);
  SharedRows head(width_);
  const size_t words = n * width_;
  // One exact allocation per share array: prefix cuts run on every cache
  // read/flush, and assign()'s growth path may over- or re-allocate.
  head.Reserve(n);
  head.shares0_.insert(head.shares0_.end(), shares0_.begin(),
                       shares0_.begin() + words);
  head.shares1_.insert(head.shares1_.end(), shares1_.begin(),
                       shares1_.begin() + words);
  head.rows_ = n;
  shares0_.erase(shares0_.begin(), shares0_.begin() + words);
  shares1_.erase(shares1_.begin(), shares1_.begin() + words);
  rows_ -= n;
  return head;
}

void SharedRows::Clear() {
  shares0_.clear();
  shares1_.clear();
  rows_ = 0;
}

void SharedRows::Truncate(size_t n) {
  if (n >= rows_) return;
  shares0_.resize(n * width_);
  shares1_.resize(n * width_);
  rows_ = n;
}

std::vector<Word> SharedRows::RecoverRow(size_t i) const {
  std::vector<Word> out(width_);
  RecoverRowInto(i, out);
  return out;
}

std::span<const Word> SharedRows::RecoverRowInto(size_t i,
                                                 std::span<Word> out) const {
  INCSHRINK_CHECK_LT(i, rows_);
  INCSHRINK_CHECK_EQ(out.size(), width_);
  for (size_t c = 0; c < width_; ++c)
    out[c] = shares0_[i * width_ + c] ^ shares1_[i * width_ + c];
  return out;
}

Word SharedRows::RecoverAt(size_t row, size_t col) const {
  INCSHRINK_CHECK_LT(row, rows_);
  INCSHRINK_CHECK_LT(col, width_);
  return shares0_[row * width_ + col] ^ shares1_[row * width_ + col];
}

}  // namespace incshrink
