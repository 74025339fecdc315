// Lint self-test fixture: a shuffle outside common/rng is flagged.
// Not compiled — analyzed by tools/lint/oblivious_lint.py --selftest.
// lint-path: src/oblivious/permute_fixture.cc
// lint-rule: shuffle-outside-rng
// expect-findings: 2
#include <algorithm>

namespace incshrink {

void Permute(std::vector<uint32_t>& v, Rng& gen) {
  std::shuffle(v.begin(), v.end(), gen);  // FINDING
  std::random_shuffle(v.begin(), v.end());  // FINDING
}

}  // namespace incshrink
