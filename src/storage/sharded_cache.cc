#include "src/storage/sharded_cache.h"

#include <limits>

#include "src/common/logging.h"
#include "src/dp/allocation.h"
#include "src/dp/composition.h"
#include "src/oblivious/formats.h"

namespace incshrink {

namespace {

uint64_t SplitMix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t DeriveShardSeed(uint64_t engine_seed, size_t shard_index) {
  // Same splitmix64 expansion as DeriveTenantSeed, salted with a distinct
  // stream constant so shard k of a tenant never aliases tenant k of a
  // fleet rooted at the same seed.
  return SplitMix64((engine_seed ^ 0x5348415244435348ull) +
                    0x9E3779B97F4A7C15ull *
                        (static_cast<uint64_t>(shard_index) + 1));
}

size_t ShardOfAppendIndex(uint64_t append_index, size_t num_shards) {
  if (num_shards <= 1) return 0;
  return static_cast<size_t>(SplitMix64(append_index) % num_shards);
}

std::vector<double> SplitShardBudget(double eps_total, size_t num_shards,
                                     double sensitivity, uint64_t releases) {
  INCSHRINK_CHECK_GE(num_shards, 1u);
  if (num_shards == 1) return {eps_total};

  // One identical operator per shard: the shard map is content-oblivious,
  // so in expectation every shard sees the same input share and the
  // Appendix-D.2 optimizer lands on the symmetric split.
  std::vector<OperatorSpec> ops(num_shards);
  for (OperatorSpec& op : ops) {
    op.kind = OperatorSpec::Kind::kFilter;
    op.input_rows1 = 1000;
    op.output_rows = 1000;
    op.sensitivity = sensitivity;
    op.releases = releases;
  }
  const AllocationResult alloc = OptimizePrivacyAllocation(
      ops, eps_total, std::numeric_limits<double>::infinity());
  std::vector<double> slices = alloc.eps;
  INCSHRINK_CHECK_EQ(slices.size(), num_shards);
  for (const double s : slices) INCSHRINK_CHECK_GT(s, 0.0);

  // Nudge the last slice until the *sequentially composed* total reproduces
  // eps_total bit-exactly (a fixpoint in <= a few IEEE steps): the privacy
  // accounting over shards must sum to the configured budget, not to a
  // rounded neighbour of it.
  for (int pass = 0; pass < 8; ++pass) {
    const double composed = SequentialComposition(slices);
    if (composed == eps_total) break;
    slices.back() += eps_total - composed;
  }
  INCSHRINK_CHECK_GT(slices.back(), 0.0);
  INCSHRINK_CHECK_EQ(SequentialComposition(slices), eps_total);
  return slices;
}

ShardedSecureCache::ShardedSecureCache(Protocol2PC* root_proto,
                                       size_t num_shards, double eps_total,
                                       double sensitivity_b,
                                       uint64_t engine_seed,
                                       CostModel cost_model)
    : root_proto_(root_proto),
      shard_eps_(SplitShardBudget(eps_total, num_shards, sensitivity_b,
                                  /*releases=*/1)) {
  INCSHRINK_CHECK_GE(num_shards, 1u);
  shards_.reserve(num_shards);
  if (num_shards == 1) {
    // Unsharded deployment: the single shard lives on the root protocol —
    // no derived protocol, no extra randomness, bit-identical to the
    // pre-sharding engine.
    shards_.push_back(std::make_unique<SecureCache>(root_proto));
    return;
  }
  parties_.reserve(2 * num_shards);
  protos_.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    const uint64_t derived_seed = DeriveShardSeed(engine_seed, k);
    // Same party-seed expansion the engine applies to its deployment seed.
    // (The `shard-seed` rule in tools/lint/secret_api.toml statically
    // enforces that every Party/Rng constructed here is seeded from
    // derived_seed.)
    parties_.push_back(
        std::make_unique<Party>(0, derived_seed * 0x9E3779B97F4A7C15ull + 1));
    parties_.push_back(
        std::make_unique<Party>(1, derived_seed * 0xC2B2AE3D27D4EB4Full + 2));
    protos_.push_back(std::make_unique<Protocol2PC>(
        parties_[2 * k].get(), parties_[2 * k + 1].get(), cost_model));
    shards_.push_back(std::make_unique<SecureCache>(protos_[k].get()));
  }
}

size_t ShardedSecureCache::size() const {
  size_t total = 0;
  for (const std::unique_ptr<SecureCache>& s : shards_) total += s->size();
  return total;
}

void ShardedSecureCache::AppendTransformBlock(Protocol2PC* proto,
                                              const SharedRows& block,
                                              uint32_t real_entries) {
  const size_t num = shards_.size();
  if (num == 1) {
    shards_[0]->AddToCounter(proto, real_entries);
    shards_[0]->Append(block);
    append_cursor_ += block.size();
    return;
  }

  // Route rows by the public shard map. The split itself is a public
  // reorganization of shared arrays (no secure computation); the per-shard
  // real-entry tallies are accumulated in-circuit — one 32-bit accumulate
  // per row — and never leave the protocol (they flow straight into the
  // shards' secret-shared counters).
  proto->AccountAndGates(block.size() * kWordBits);
  std::vector<SharedRows> parts;
  parts.reserve(num);
  for (size_t k = 0; k < num; ++k) parts.emplace_back(block.width());
  std::vector<uint32_t> real(num, 0);
  for (size_t r = 0; r < block.size(); ++r) {
    const size_t k = ShardOfAppendIndex(append_cursor_++, num);
    parts[k].AppendRowFrom(block, r);
    real[k] += block.RecoverAt(r, kViewIsViewCol) & 1;
  }
  uint32_t total = 0;
  for (size_t k = 0; k < num; ++k) total += real[k];
  INCSHRINK_CHECK_EQ(total, real_entries);
  for (size_t k = 0; k < num; ++k) {
    shards_[k]->AddToCounter(proto, real[k]);
    shards_[k]->Append(parts[k]);
  }
}

}  // namespace incshrink
