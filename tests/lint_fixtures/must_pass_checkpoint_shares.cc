// Lint self-test fixture: shares that reach a snapshot through the SharedRows
// visit (the ISR1 share-blob path) and public sizes are clean without any
// marker.
// Not compiled — analyzed by tools/lint/oblivious_lint.py --selftest.
// expect-findings: 0
#include "src/storage/checkpoint.h"

namespace incshrink {

template <class A>
void CacheShardVisit(A& a, FieldRef<A, SharedRows> rows,
                     FieldRef<A, WordShares> counter) {
  a.BeginSection(CheckpointTag('C', 'S', 'H', 'D'));
  Visit(a, rows);
  Visit(a, counter);
  a.U64(rows.size());
  a.EndSection();
}

}  // namespace incshrink
