// Lint self-test fixture: a recovered secret reaching a snapshot field call
// MUST be flagged — every U8/U32/U64/F64/Bytes call on a checkpoint archive
// persists its argument in the at-rest blob.
// Not compiled — analyzed by tools/lint/oblivious_lint.py --selftest.
// expect-findings: 1
#include "src/mpc/protocol.h"
#include "src/storage/checkpoint.h"

namespace incshrink {

template <class A>
void LeakyCounterVisit(A& a, Protocol2PC* proto, const WordShares& counter) {
  const Word c = proto->RecoverInside(counter);
  a.U32(counter.s0);  // one share alone is uniform noise: clean
  a.U32(c);           // FINDING: the recovered count lands in the snapshot
}

}  // namespace incshrink
