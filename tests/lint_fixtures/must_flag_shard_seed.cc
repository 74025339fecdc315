// Lint self-test fixture: shard parties seeded from anything but the
// derived shard seed are flagged.
// Not compiled — analyzed by tools/lint/oblivious_lint.py --selftest.
// lint-path: src/storage/sharded_cache.cc
// lint-rule: shard-seed
// expect-findings: 3
#include "src/storage/sharded_cache.h"

namespace incshrink {

void SeedShard(uint64_t engine_seed, uint32_t k) {
  parties_.push_back(std::make_unique<Party>(0, engine_seed + k));  // FINDING
  Rng local = Rng(k);                                               // FINDING
  const Party peer = Party(1, engine_seed);                         // FINDING
}

}  // namespace incshrink
