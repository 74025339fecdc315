// Lint self-test fixture: an oblivious COUNT that branches on each row's
// recovered flag MUST be flagged — the tally has to be accumulated without
// a branch, so the scan's control flow is the same for every input.
// Not compiled — analyzed by tools/lint/oblivious_lint.py --selftest.
// expect-findings: 2
#include "src/mpc/protocol.h"

namespace incshrink {

Word LeakyCount(const SharedRows& rows, size_t flag_col) {
  const size_t w = rows.width();
  const Word* s0 = rows.shares0().data();
  const Word* s1 = rows.shares1().data();
  Word tally = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    const Word flag = s0[r * w + flag_col] ^ s1[r * w + flag_col];
    if (flag & 1) ++tally;  // FINDING: branch on a recovered flag
    tally += (flag & 1) ? 1 : 0;  // FINDING: ternary on a recovered flag
  }
  return tally;
}

}  // namespace incshrink
