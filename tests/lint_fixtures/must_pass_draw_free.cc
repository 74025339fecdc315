// Lint self-test fixture: a Visit body that only moves serialized state is
// clean, and draws outside every Visit body are out of scope.
// Not compiled — analyzed by tools/lint/oblivious_lint.py --selftest.
// lint-path: src/core/visit_fixture.cc
// lint-rule: draw-free
// expect-findings: 0
#include "src/storage/checkpoint.h"

namespace incshrink {

uint64_t Redraw(Fixture& f) { return f.gen.Next64(); }

template <class A>
void VisitFixture(A& a, FieldRef<A, Fixture> f) {
  a.U64(f.count);
  Visit(a, f.gen);
}

template <class A>
void Helper(A& a, Fixture& f) {
  f.noise = Laplace(f.scale);
}

}  // namespace incshrink
