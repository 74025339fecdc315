// Lint self-test fixture: the hidden-entropy rule flags every unseeded
// source, comments included, anywhere in src/, tests/, bench/ or examples/.
// Not compiled — analyzed by tools/lint/oblivious_lint.py --selftest.
// lint-path: tests/entropy_fixture_test.cc
// lint-rule: hidden-entropy
// expect-findings: 4
#include <random>

namespace incshrink {

uint64_t UnseededDraw() {
  std::random_device rd;          // FINDING: OS entropy
  std::mt19937 gen(rd());         // FINDING: unportable engine
  srand(time(nullptr));           // FINDING: wall-clock seed
  // seeded from /dev/urandom     // FINDING: a comment still counts
  return gen();
}

}  // namespace incshrink
