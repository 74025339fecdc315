// Lint self-test fixture: codec code whose names only contain a banned
// word stays clean.
// Not compiled — analyzed by tools/lint/oblivious_lint.py --selftest.
// lint-path: src/common/bytes.cc
// lint-rule: transport-randomness
// expect-findings: 0
#include "src/common/bytes.h"

namespace incshrink {

uint64_t ByteReader::Strings(uint64_t seeds_seen) {
  const uint64_t ranges = U64();
  return ranges + seeds_seen;
}

}  // namespace incshrink
