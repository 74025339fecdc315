// Lint self-test fixture: a clock read anywhere in src/ is flagged, not
// only in the transport layer.
// Not compiled — analyzed by tools/lint/oblivious_lint.py --selftest.
// lint-path: src/core/timing_fixture.cc
// lint-rule: wall-clock
// expect-findings: 3
#include <chrono>

namespace incshrink {

void Timed() {
  const auto t0 = std::chrono::steady_clock::now();  // FINDING
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);  // FINDING
  usleep(100);                          // FINDING
  (void)t0;
}

}  // namespace incshrink
