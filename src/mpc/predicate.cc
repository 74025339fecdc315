#include "src/mpc/predicate.h"

#include "src/common/logging.h"

namespace incshrink {

namespace {

ObliviousPredicate OneTerm(size_t col, Word lo, Word hi, uint64_t gates) {
  ObliviousPredicate p;
  p.terms[0] = ColumnTerm{col, lo, hi};
  p.num_terms = 1;
  p.and_gates_per_row = gates;
  return p;
}

}  // namespace

ObliviousPredicate ObliviousPredicate::True() { return ObliviousPredicate{}; }

ObliviousPredicate ObliviousPredicate::ColumnLess(size_t col, Word value) {
  // row[col] < 0 holds for no row: the empty range [1, 0].
  return value == 0 ? OneTerm(col, 1, 0, kWordBits)
                    : OneTerm(col, 0, value - 1, kWordBits);
}

ObliviousPredicate ObliviousPredicate::ColumnGreaterEq(size_t col,
                                                       Word value) {
  return OneTerm(col, value, UINT32_MAX, kWordBits);
}

ObliviousPredicate ObliviousPredicate::ColumnEquals(size_t col, Word value) {
  return OneTerm(col, value, value, kWordBits);
}

ObliviousPredicate ObliviousPredicate::ColumnBetween(size_t col, Word lo,
                                                     Word hi) {
  return OneTerm(col, lo, hi, 2 * kWordBits + 1);
}

ObliviousPredicate ObliviousPredicate::AndThen(const ObliviousPredicate& a,
                                               const ObliviousPredicate& b) {
  INCSHRINK_CHECK_LE(a.num_terms + b.num_terms, kMaxTerms);
  ObliviousPredicate p = a;
  for (size_t t = 0; t < b.num_terms; ++t) p.terms[p.num_terms++] = b.terms[t];
  p.and_gates_per_row = a.and_gates_per_row + b.and_gates_per_row + 1;
  return p;
}

bool ObliviousPredicate::FitsWidth(size_t width) const {
  for (size_t t = 0; t < num_terms; ++t) {
    if (terms[t].col >= width) return false;
  }
  return true;
}

bool ObliviousPredicate::Matches(std::span<const Word> row) const {
  INCSHRINK_CHECK(FitsWidth(row.size()));
  return Eval([row](size_t c) { return row[c]; }) != 0;
}

}  // namespace incshrink
