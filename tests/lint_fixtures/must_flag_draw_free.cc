// Lint self-test fixture: a snapshot Visit body, from its signature line to
// the closing brace in column 0, may not draw. Outside one, this file is out
// of the rule's scope.
// Not compiled — analyzed by tools/lint/oblivious_lint.py --selftest.
// lint-path: src/core/visit_fixture.cc
// lint-rule: draw-free
// expect-findings: 2
#include "src/storage/checkpoint.h"

namespace incshrink {

template <class A>
void VisitFixture(A& a, FieldRef<A, Fixture> f) {
  a.U64(f.count);
  f.noise = Laplace(f.scale);  // FINDING
}

template <class A>
Status VisitFixtureSplit(
    A& a, FieldRef<A, Fixture> f) {
  f.mask = f.gen.Next64();  // FINDING
  return Status::OK();
}

uint64_t Redraw(Fixture& f) { return f.gen.Next64(); }  // outside a Visit

}  // namespace incshrink
