// Lint self-test fixture: the transport layer draws nothing, so every
// generator, draw or noise source in it is flagged.
// Not compiled — analyzed by tools/lint/oblivious_lint.py --selftest.
// lint-path: src/net/jitter_fixture.cc
// lint-rule: transport-randomness
// expect-findings: 3
#include "src/net/frame_codec.h"

namespace incshrink {

uint64_t Jitter(uint64_t seed) {  // FINDING
  Rng gen(7);                     // FINDING
  return gen.Next64();            // FINDING
}

}  // namespace incshrink
