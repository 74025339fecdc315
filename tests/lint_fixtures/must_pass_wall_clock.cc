// Lint self-test fixture: a poll timeout bound on a marked line is the one
// sanctioned clock use; it is exempted and counted.
// Not compiled — analyzed by tools/lint/oblivious_lint.py --selftest.
// lint-path: src/net/poll_fixture.cc
// lint-rule: wall-clock
// expect-findings: 0
// expect-suppressed: 1
#include <poll.h>

namespace incshrink {

int WaitReadable(pollfd* pfd, int timeout_ms) {
  const auto bound = std::chrono::milliseconds(timeout_ms);  // net-timeout-ok
  return poll(pfd, 1, static_cast<int>(bound.count()));
}

}  // namespace incshrink
