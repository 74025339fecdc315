// Lint self-test fixture: draws from the seeded Rng, and identifiers that
// only contain a banned word, stay clean.
// Not compiled — analyzed by tools/lint/oblivious_lint.py --selftest.
// lint-path: tests/entropy_fixture_test.cc
// lint-rule: hidden-entropy
// expect-findings: 0
#include "src/common/rng.h"

namespace incshrink {

uint64_t SeededDraw(uint64_t operand) {
  Rng rng(2022);
  const uint64_t brand = operand();  // word boundary: not the C library call
  return rng.Next64() ^ brand;
}

}  // namespace incshrink
