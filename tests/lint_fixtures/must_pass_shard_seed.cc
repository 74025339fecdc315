// Lint self-test fixture: constructions on a line naming the derived shard
// seed are exempted and counted.
// Not compiled — analyzed by tools/lint/oblivious_lint.py --selftest.
// lint-path: src/storage/sharded_cache.h
// lint-rule: shard-seed
// expect-findings: 0
// expect-suppressed: 2
#include "src/storage/sharded_cache.h"

namespace incshrink {

void SeedShard(uint64_t engine_seed, uint32_t k) {
  const uint64_t derived_seed = DeriveShardSeed(engine_seed, k);
  parties_.push_back(std::make_unique<Party>(0, derived_seed * 3 + 1));
  Rng local = Rng(derived_seed);
}

}  // namespace incshrink
