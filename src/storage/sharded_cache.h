#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/mpc/cost_model.h"
#include "src/mpc/party.h"
#include "src/mpc/protocol.h"
#include "src/secret/shared_rows.h"
#include "src/storage/secure_cache.h"

namespace incshrink {

/// Protocol seed of shard `k` inside a deployment seeded with
/// `engine_seed`: a splitmix64 substream (the same expansion the fleet uses
/// for tenants, salted so shard streams never collide with tenant streams).
/// Public and stable — the equivalence tests reconstruct shard protocols
/// from it, and the `shard-seed` rule in tools/lint/secret_api.toml enforces
/// that shard-local RNG state comes from nowhere else.
uint64_t DeriveShardSeed(uint64_t engine_seed, size_t shard_index);

/// Public shard map: which shard the row with global append index `idx`
/// lands in. A splitmix64 hash of the index (the row's public FIFO
/// identity), reduced mod K. Routing on the *public* per-append key — not
/// the secret join key — is what keeps every per-shard append size a
/// deterministic function of public parameters: hashing secret keys would
/// make per-shard sizes data-dependent and leak beyond the DP releases.
size_t ShardOfAppendIndex(uint64_t append_index, size_t num_shards);

/// Splits the deployment's total view-update budget across `num_shards`
/// per-shard Shrink instances. Each shard is modelled as one operator of an
/// Appendix-D.2 allocation problem (sensitivity = the contribution bound b,
/// one DP release per firing) and the slices come out of
/// OptimizePrivacyAllocation; identical shards yield the symmetric eps/K
/// split. The last slice is then nudged so the *sequential composition* of
/// the returned slices reproduces `eps_total` bit-exactly — the composed
/// budget of the sharded deployment equals the configured eps, not an
/// FP-rounded neighbour of it. For num_shards == 1 the result is exactly
/// {eps_total}.
std::vector<double> SplitShardBudget(double eps_total, size_t num_shards,
                                     double sensitivity, uint64_t releases);

/// \brief The secure cache sigma, split into K independent shards so one
/// hot deployment parallelizes its Shrink work across the ThreadPool
/// (ROADMAP "sharded secure cache"; budget-split machinery after
/// Shrinkwrap's per-operator slices and DP-Sync's composed streams).
///
/// Each shard is a full SecureCache — its own exhaustively padded row
/// array and secret-shared cardinality counter — and, for K > 1, its own
/// two-party protocol instance whose randomness derives from
/// DeriveShardSeed, so shards can step concurrently without sharing any
/// mutable protocol state. Transform output is routed per row by the
/// public append-index shard map; the FIFO insertion sequence stays global,
/// so every shard's sort keys are a subsequence of the unsharded order and
/// merging shard results in fixed shard order is deterministic at any
/// thread count.
///
/// K == 1 is bit-identical to the pre-sharding engine: the single shard
/// *is* the root protocol's SecureCache, no derived protocol exists, no
/// extra circuit cost or randomness is consumed, and the budget slice is
/// the whole eps (enforced by the golden-transcript suite).
class ShardedSecureCache {
 public:
  ShardedSecureCache(Protocol2PC* root_proto, size_t num_shards,
                     double eps_total, double sensitivity_b,
                     uint64_t engine_seed, CostModel cost_model);

  size_t num_shards() const { return shards_.size(); }
  SecureCache& shard(size_t k) { return *shards_[k]; }
  const SecureCache& shard(size_t k) const { return *shards_[k]; }

  /// The protocol instance shard `k`'s Shrink steps on: the root protocol
  /// when K == 1, the shard's own derived instance otherwise.
  Protocol2PC* shard_proto(size_t k) {
    return protos_.empty() ? root_proto_ : protos_[k].get();
  }

  /// Per-shard view-update budget slices; sequentially composed they equal
  /// the configured total exactly.
  const std::vector<double>& shard_eps() const { return shard_eps_; }

  /// Global FIFO insertion sequence shared by all shards.
  uint64_t* seq() { return &seq_; }

  /// Total padded rows across all shards (public).
  size_t size() const;

  /// Rows ever routed through AppendTransformBlock (public).
  uint64_t append_cursor() const { return append_cursor_; }

  /// Checkpoint support: shard `k`'s derived party `which` (0 or 1), or
  /// nullptr when K == 1 (the single shard runs on the root protocol's
  /// parties, which the engine snapshot covers already).
  Party* shard_party(size_t k, int which) {
    return parties_.empty() ? nullptr : parties_[2 * k + which].get();
  }

  /// Checkpoint-restore path: overwrites the global FIFO sequence and the
  /// append cursor with snapshot values.
  void RestoreCursors(uint64_t seq, uint64_t append_cursor) {
    seq_ = seq;
    append_cursor_ = append_cursor;
  }

  /// Commits one Transform output block (Alg. 1 lines 4-7, sharded): routes
  /// each row to ShardOfAppendIndex(global append index), updates every
  /// shard's secret-shared counter with its share of `real_entries`, and
  /// appends the per-shard sub-blocks. `proto` is the (serial) protocol the
  /// Transform invocation runs on; per-shard tallies are computed inside it
  /// and charged as in-circuit accumulations. For K == 1 this is exactly
  /// SecureCache::AddToCounter followed by SecureCache::Append.
  void AppendTransformBlock(Protocol2PC* proto, const SharedRows& block,
                            uint32_t real_entries);

 private:
  Protocol2PC* root_proto_;
  // K > 1 only: per-shard parties (2 per shard, derived seeds) + protocols.
  std::vector<std::unique_ptr<Party>> parties_;
  std::vector<std::unique_ptr<Protocol2PC>> protos_;
  std::vector<std::unique_ptr<SecureCache>> shards_;
  std::vector<double> shard_eps_;
  uint64_t seq_ = 0;
  uint64_t append_cursor_ = 0;
};

}  // namespace incshrink
