// Lint self-test fixture: the branch-free COUNT accumulate is clean without
// any marker — the recovered flag and term match only feed arithmetic, never
// a branch, a loop bound, an index or an allocation.
// Not compiled — analyzed by tools/lint/oblivious_lint.py --selftest.
// expect-findings: 0
#include "src/mpc/protocol.h"

namespace incshrink {

Word BranchFreeCount(const SharedRows& rows, size_t flag_col, size_t col,
                     Word lo, Word hi) {
  const size_t w = rows.width();
  const Word* s0 = rows.shares0().data();
  const Word* s1 = rows.shares1().data();
  Word tally = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    const Word flag = s0[r * w + flag_col] ^ s1[r * w + flag_col];
    const Word v = s0[r * w + col] ^ s1[r * w + col];
    const Word match = static_cast<Word>(v >= lo) & static_cast<Word>(v <= hi);
    tally += (flag & 1) & match;
  }
  return tally;
}

}  // namespace incshrink
