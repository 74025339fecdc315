#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/secret/share.h"

namespace incshrink {

/// \brief A secret-shared table of fixed-width rows over Z_2^32.
///
/// Each logical row is a block of `width` ring words; the two servers each
/// hold one XOR share of every word. This is the physical representation of
/// the paper's secure objects: the outsourced data DS, the secure cache
/// sigma, and the materialized view V.
///
/// The class itself performs no computation on secrets — all data-dependent
/// logic runs inside the simulated 2PC runtime (`Protocol2PC`), which
/// accesses the raw share arrays via `share_row0/1`.
class SharedRows {
 public:
  /// Creates an empty shared table whose rows are `width` words wide.
  explicit SharedRows(size_t width) : width_(width) {}
  /// Adopts two whole share arrays of `width`-word rows (equal sizes, a
  /// multiple of `width`): decoders build tables without per-row copies.
  SharedRows(size_t width, std::vector<Word> shares0,
             std::vector<Word> shares1);

  size_t width() const { return width_; }
  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  /// Total bytes held across both servers (shares are 4 bytes/word/server).
  size_t TotalBytes() const { return rows_ * width_ * sizeof(Word) * 2; }

  /// Pre-sizes the share arrays for `rows` total rows so append-heavy paths
  /// (join union building, padded operator outputs) never reallocate
  /// mid-loop. Capacity only — size and contents are untouched.
  void Reserve(size_t rows) {
    shares0_.reserve(rows * width_);
    shares1_.reserve(rows * width_);
  }

  /// Shares the plaintext `row` (length == width) and appends it.
  void AppendSecretRow(std::span<const Word> row, Rng* rng);
  void AppendSecretRow(std::initializer_list<Word> row, Rng* rng) {
    AppendSecretRow(std::span<const Word>(row.begin(), row.size()), rng);
  }

  /// Appends a row given its two pre-computed share blocks.
  void AppendSharedRow(const std::vector<Word>& share0,
                       const std::vector<Word>& share1);

  /// Appends a copy of row `row` of `src` (widths must match) straight from
  /// its share arrays — no per-row temporaries.
  void AppendRowFrom(const SharedRows& src, size_t row);

  /// Appends all rows of `other` (widths must match).
  void AppendAll(const SharedRows& other);

  /// Moves the first `n` rows into a new SharedRows and drops them from this
  /// one (the cache-read "cut off the head of the sorted array" step).
  /// `n` is clamped to size().
  SharedRows SplitPrefix(size_t n);

  /// Drops all rows ("recycle the remaining array" during a cache flush).
  void Clear();

  /// Keeps only the first `n` rows.
  void Truncate(size_t n);

  /// Recovers the plaintext of row `i` (test/ideal-functionality use only).
  std::vector<Word> RecoverRow(size_t i) const;

  /// RecoverRow into caller-owned storage (`out.size() == width`), for
  /// per-row scan loops that would otherwise allocate a vector per row.
  /// Returns `out`.
  std::span<const Word> RecoverRowInto(size_t i, std::span<Word> out) const;

  /// Recovers the word at (row, col).
  Word RecoverAt(size_t row, size_t col) const;

  /// Raw share access for the 2PC runtime. Index = row * width + col.
  Word* mutable_share0() { return shares0_.data(); }
  Word* mutable_share1() { return shares1_.data(); }
  const std::vector<Word>& shares0() const { return shares0_; }
  const std::vector<Word>& shares1() const { return shares1_; }

  Word share0_at(size_t row, size_t col) const {
    return shares0_[row * width_ + col];
  }
  Word share1_at(size_t row, size_t col) const {
    return shares1_[row * width_ + col];
  }
  void set_share0_at(size_t row, size_t col, Word v) {
    shares0_[row * width_ + col] = v;
  }
  void set_share1_at(size_t row, size_t col, Word v) {
    shares1_[row * width_ + col] = v;
  }

 private:
  size_t width_;
  size_t rows_ = 0;
  std::vector<Word> shares0_;
  std::vector<Word> shares1_;
};

}  // namespace incshrink
