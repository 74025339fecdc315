#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/secret/share.h"

namespace incshrink {

/// One conjunct of an ObliviousPredicate: lo <= row[col] <= hi, unsigned.
/// An empty range (lo > hi) matches nothing.
struct ColumnTerm {
  size_t col = 0;
  Word lo = 0;
  Word hi = 0;
};

/// \brief A predicate evaluated inside the 2PC protocol: a closed
/// conjunction of at most kMaxTerms column-range terms.
///
/// Evaluation decodes only the words the terms name, folds each term's two
/// unsigned compares into a 0/1 word, and makes no branch and no indirect
/// call on any row. `and_gates_per_row` is the size of the equivalent
/// Boolean circuit, charged once per row so the cost accounting matches a
/// real garbled-circuit evaluation:
///  * ColumnLess / ColumnGreaterEq / ColumnEquals: one 32-bit comparator
///    against a public constant, kWordBits AND gates;
///  * ColumnBetween: two comparators plus the AND joining them,
///    2 * kWordBits + 1;
///  * AndThen: the sum of both sides plus one AND;
///  * True(): no terms, no gates.
/// The charge belongs to the constructor, not to the constants: a
/// ColumnLess(c, 0) compiles to an empty range yet costs its comparator.
struct ObliviousPredicate {
  static constexpr size_t kMaxTerms = 4;

  std::array<ColumnTerm, kMaxTerms> terms{};
  size_t num_terms = 0;
  uint64_t and_gates_per_row = 0;

  /// Accepts every row (zero terms, zero circuit cost).
  static ObliviousPredicate True();

  /// row[col] <=> value comparisons against a public constant.
  static ObliviousPredicate ColumnLess(size_t col, Word value);
  static ObliviousPredicate ColumnGreaterEq(size_t col, Word value);
  static ObliviousPredicate ColumnEquals(size_t col, Word value);

  /// lo <= row[col] <= hi.
  static ObliviousPredicate ColumnBetween(size_t col, Word lo, Word hi);

  /// Conjunction of two predicates. Aborts if the terms of both sides do
  /// not fit in kMaxTerms.
  static ObliviousPredicate AndThen(const ObliviousPredicate& a,
                                    const ObliviousPredicate& b);

  /// Whether every column a term names is below `width`.
  bool FitsWidth(size_t width) const;

  /// Whether the plaintext `row` satisfies every term (for callers that
  /// already hold a recovered row).
  bool Matches(std::span<const Word> row) const;

  /// The select bit of one shared row from its two share blocks: the low
  /// bit of word `flag_col` AND every term, as 0/1. Decodes only the flag
  /// word and the term columns.
  Word FlaggedMatch(const Word* row0, const Word* row1,
                    size_t flag_col) const {
    const Word flag = row0[flag_col] ^ row1[flag_col];
    return (flag & 1) &
           Eval([row0, row1](size_t c) { return row0[c] ^ row1[c]; });
  }

 private:
  /// 1 if the words `word_at(col)` yields satisfy every term, else 0.
  template <typename WordAt>
  Word Eval(WordAt&& word_at) const {
    Word match = 1;
    for (size_t t = 0; t < num_terms; ++t) {
      const Word v = word_at(terms[t].col);
      match &= static_cast<Word>(v >= terms[t].lo) &
               static_cast<Word>(v <= terms[t].hi);
    }
    return match;
  }
};

}  // namespace incshrink
