// Lint self-test fixture: common/rng is the one place a shuffle may live.
// Not compiled — analyzed by tools/lint/oblivious_lint.py --selftest.
// lint-path: src/common/rng.cc
// lint-rule: shuffle-outside-rng
// expect-findings: 0
#include <algorithm>

namespace incshrink {

void Rng::Permute(std::vector<uint32_t>& v) {
  std::shuffle(v.begin(), v.end(), *this);
}

}  // namespace incshrink
