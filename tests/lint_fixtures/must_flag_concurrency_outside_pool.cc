// Lint self-test fixture: core-count and this-thread probes outside the
// ThreadPool are flagged.
// Not compiled — analyzed by tools/lint/oblivious_lint.py --selftest.
// lint-path: src/core/workers_fixture.cc
// lint-rule: concurrency-outside-pool
// expect-findings: 2
#include <thread>

namespace incshrink {

unsigned Workers() {
  const unsigned n = std::thread::hardware_concurrency();  // FINDING
  std::this_thread::yield();                               // FINDING
  return n;
}

}  // namespace incshrink
