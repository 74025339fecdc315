// Lint self-test fixture: the ThreadPool alone may ask for the core count.
// Not compiled — analyzed by tools/lint/oblivious_lint.py --selftest.
// lint-path: src/common/thread_pool.cc
// lint-rule: concurrency-outside-pool
// expect-findings: 0
#include <thread>

namespace incshrink {

unsigned ResolveThreadCount(unsigned requested) {
  if (requested > 0) return requested;
  std::this_thread::yield();
  return std::thread::hardware_concurrency();
}

}  // namespace incshrink
