#pragma once

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/core/upload_policy.h"
#include "src/mpc/cost_model.h"
#include "src/oblivious/join.h"
#include "src/oblivious/sort.h"

namespace incshrink {

/// Which view-update strategy the servers deploy.
enum class Strategy : uint8_t {
  kDpTimer,  ///< sDPTimer (Alg. 2): update every T steps with DP-sized batch
  kDpAnt,    ///< sDPANT (Alg. 3): SVT-triggered updates with DP-sized batch
  kEp,       ///< exhaustive padding: sync the fully padded output each step
  kOtm,      ///< one-time materialization: materialize once, never update
  kNm,       ///< non-materialized: re-join the full DS for every query
};

const char* StrategyName(Strategy s);

/// Which truncated-transformation operator Transform compiles.
enum class TransformOperator : uint8_t {
  kSortMergeJoin,   ///< Example 5.1 (default)
  kNestedLoopJoin,  ///< Algorithm 4 (appendix alternative)
};

/// What the materialized view computes.
enum class ViewKind : uint8_t {
  kWindowJoin,  ///< windowed equi-join of the two streams (Q1/Q2)
  kFilter,      ///< oblivious selection over the T1 stream (Appendix A.1.1)
};

/// Standing selection predicate of a filter view: keep rows whose payload
/// column lies in [lo, hi]. Selection has stability 1 (each record yields at
/// most one view row), so omega = 1 suffices.
struct FilterSpec {
  Word lo = 0;
  Word hi = 0xFFFFFFFFu;
};

/// \brief Full configuration of one IncShrink deployment.
///
/// Defaults mirror the paper's default setting (Section 7): eps = 1.5,
/// cache flush every f = 2000 steps with flush size s = 15, sDPANT threshold
/// theta = 30.
struct IncShrinkConfig {
  // --- privacy ---
  double eps = 1.5;         ///< event-level privacy parameter
  uint32_t omega = 1;       ///< per-invocation truncation bound
  uint32_t budget_b = 10;   ///< lifetime contribution budget per record

  // --- view definition ---
  ViewKind view_kind = ViewKind::kWindowJoin;
  JoinSpec join;            ///< windowed equi-join view (Q1/Q2 shape)
  FilterSpec filter;        ///< selection predicate (kFilter views)
  /// Upload steps a record stays eligible as a window partner: records older
  /// than this never satisfy the window predicate, so Transform skips them.
  uint32_t window_steps = 10;
  TransformOperator op = TransformOperator::kSortMergeJoin;
  bool t2_is_public = false;  ///< CPDB: the Award relation is public

  // --- update strategy ---
  Strategy strategy = Strategy::kDpTimer;
  uint32_t timer_T = 10;     ///< sDPTimer update interval
  double ant_theta = 30;     ///< sDPANT synchronization threshold

  // --- cache flush (Section 5.2.1) ---
  uint32_t flush_interval = 2000;  ///< f; 0 disables flushing
  uint32_t flush_size = 15;        ///< s (per shard when sharded)

  // --- secure-cache sharding ---
  /// Number of independent secure-cache shards. 1 (the default) reproduces
  /// the unsharded engine bit for bit. With K > 1 the cache splits into K
  /// shards by the public append-index shard map; each shard runs its own
  /// Shrink instance at an eps/K budget slice (composed back to exactly
  /// `eps` by sequential composition) on its own derived protocol
  /// substream, and the per-shard steps execute concurrently on the
  /// deployment's ThreadPool with results merged in fixed shard order.
  /// Flushes and the sDPANT threshold apply per shard.
  uint32_t num_cache_shards = 1;
  /// Worker count for the per-shard Shrink fork-join (K > 1 only).
  /// 0 = INCSHRINK_THREADS override, else hardware concurrency; always
  /// capped at the shard count. Never affects results, only wall time.
  int cache_shard_threads = 0;

  // --- fleet serving ---
  /// Relative service-level weight of this deployment when it runs inside a
  /// priority-scheduled DeploymentFleet: a tenant with weight 2w accrues
  /// priority twice as fast as one with weight w at equal backlog/deadline
  /// pressure. Public configuration by definition (the scheduler must never
  /// read secret state), ignored by the lockstep fleet and by standalone
  /// engines. Bounded so priority arithmetic stays exact in 64 bits.
  uint32_t sla_weight = 1;

  // --- batched oblivious execution ---
  /// Minimum combined compare-exchange count of a sorting-network layer (or
  /// fused cross-shard layer round) before the batch executor splits it
  /// across the deployment's ThreadPool; smaller layers run the serial
  /// batch kernel on the submitting thread. Purely a scheduling threshold:
  /// results are bit-identical at any value and any worker count (batched
  /// submissions pre-draw their resharing masks in scalar call order).
  uint32_t oblivious_batch_min_layer = 128;
  /// Execution policy of the oblivious cache sorts (Shrink sync order and
  /// the flush path). kBatcher — the reference odd-even merge network the
  /// goldens are recorded on. kShuffleSort — the Waksman permutation-network
  /// tier (src/oblivious/shuffle.h): sync sorts run ORQ-style
  /// shuffle-then-sort (O(n log n) gates instead of O(n log^2 n)) and
  /// flushes, which only need *some* secret permutation, drop the sort for
  /// a single random Waksman shuffle. Opt-in: the shuffle tier re-randomizes
  /// tie placement and flush selection, so released view contents differ
  /// from the Batcher goldens (equally valid under the same DP guarantees).
  SortAlgorithm sort_algorithm = SortAlgorithm::kBatcher;

  // --- owner update policy ---
  uint32_t upload_rows_t1 = 8;  ///< C_r for the T1 owner (fixed-size policy)
  uint32_t upload_rows_t2 = 8;  ///< C_r for the T2 owner
  /// Record synchronization strategies (Section 8 "Connecting with
  /// DP-Sync"). Defaults to the fixed-size policy the prototype assumes.
  UploadPolicyConfig upload_policy1;
  UploadPolicyConfig upload_policy2;

  // --- upload transport (owners -> servers) ---
  /// Maximum owner upload frames the engine drains from each channel per
  /// engine step. 1 (the default) is the lockstep cadence: one owner step
  /// consumed per engine step, reproducing the pre-transport engine bit for
  /// bit when owners are driven synchronously. Larger values let the engine
  /// catch up on a backlog (owners running ahead on their own clock) by
  /// merging several queued owner steps into one upload batch; the drain
  /// count is a deterministic function of the queue depth and this bound,
  /// never of thread scheduling.
  uint32_t max_batches_per_step = 1;
  /// Bounded capacity (in frames) of each owner upload channel. When a
  /// channel is full the owner's TryStep is refused — public backpressure;
  /// the owner retries on a later round. Must cover the configured owner
  /// lead (owners may queue at most `capacity` steps ahead).
  uint32_t upload_channel_capacity = 64;

  /// Whether Transform obliviously compacts its padded operator outputs to
  /// the tight public bound before caching. The DP protocols rely on this
  /// to keep the cache small; the EP baseline materializes the raw
  /// exhaustively padded outputs (the engine clears this flag for EP).
  bool compact_transform_output = true;

  // --- crash recovery (ICKP snapshots, src/storage/checkpoint.h) ---
  /// Ceiling on one serialized snapshot (taken on demand by
  /// `Engine::SaveCheckpoint()`). SaveCheckpoint returns OutOfRange instead
  /// of producing a larger blob, so a misconfigured deployment cannot fill a
  /// disk or the wire with a runaway snapshot. Must be at least 4096 (header,
  /// checksum and section framing need real room).
  uint64_t checkpoint_max_bytes = 1ull << 30;

  // --- simulation ---
  CostModel cost_model = CostModel::EmpLikeLan();
  uint64_t seed = 42;

  /// Validates parameter consistency (omega <= b, eps > 0, ...).
  Status Validate() const;
};

/// FNV-1a64 fingerprint over every behavior-determining config field
/// (doubles as raw IEEE-754 bits). Stored in each ICKP snapshot and compared
/// at restore time: a snapshot only loads into an engine whose configuration
/// matches the one that produced it, because restored RNG cursors and share
/// state only mean anything under identical parameters.
uint64_t ConfigFingerprint(const IncShrinkConfig& config);

}  // namespace incshrink
