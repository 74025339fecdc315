#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>

#include "src/common/result.h"
#include "src/core/config.h"
#include "src/dp/accountant.h"
#include "src/mpc/protocol.h"
#include "src/oblivious/join.h"
#include "src/storage/outsourced_store.h"
#include "src/storage/secure_cache.h"
#include "src/storage/sharded_cache.h"

namespace incshrink {

/// \brief The Transform protocol (paper Algorithm 1).
///
/// On every owner upload, Transform:
///  1. assembles its inputs — the new batches plus the still-eligible window
///     partners (records are eligible for min(window_steps, b/omega - 1)
///     steps after upload; eligibility is a *public* schedule because every
///     input record is charged omega per invocation regardless of whether it
///     contributes — Section 5.1 "Contribution over time");
///  2. runs the truncated oblivious transformation (sort-merge join of
///     Example 5.1 or nested-loop join of Algorithm 4) so that new pairs are
///     generated exactly once: new1 x (new2 + window2) and window1 x new2,
///     with a shared per-invocation contribution cap of omega per record;
///  3. obliviously compacts the exhaustively padded operator outputs to the
///     tight public bound on new view entries (omega x new private rows per
///     side), which is what keeps the secure cache small;
///  4. appends the compacted block to the secure cache and updates the
///     secret-shared cardinality counter c (Alg. 1 lines 4-7).
class TransformProtocol {
 public:
  TransformProtocol(Protocol2PC* proto, const IncShrinkConfig& config,
                    PrivacyAccountant* accountant);

  /// Result of one Transform invocation.
  struct StepResult {
    uint32_t real_entries = 0;    ///< new view entries cached (in-protocol)
    uint64_t appended_rows = 0;   ///< public: rows appended to the cache
    double simulated_seconds = 0; ///< simulated MPC time of this invocation
  };

  /// Runs the invocation for upload step `t` (1-based; the batches for step
  /// t must already be present in both stores). Charges contribution budgets
  /// and returns Status::PrivacyBudgetExhausted on ledger violations.
  /// Dispatches on the configured view kind (windowed join or selection).
  Result<StepResult> Step(uint64_t t, const OutsourcedTable& store1,
                          const OutsourcedTable& store2, SecureCache* cache);

  /// Sharded variant: same computation, but the DeltaV block is committed
  /// through ShardedSecureCache::AppendTransformBlock, which routes rows to
  /// shards by the public append-index map and splits the counter update.
  Result<StepResult> Step(uint64_t t, const OutsourcedTable& store1,
                          const OutsourcedTable& store2,
                          ShardedSecureCache* cache);

  /// Selection-view invocation (Appendix A.1.1): converts the step's T1
  /// batch into view rows whose isView bit encodes the predicate, an
  /// inherently 1-stable transformation. Output size == batch size.
  Result<StepResult> StepFilter(uint64_t t, const OutsourcedTable& store1,
                                SecureCache* cache);

  /// Sharded selection-view invocation.
  Result<StepResult> StepFilter(uint64_t t, const OutsourcedTable& store1,
                                ShardedSecureCache* cache);

  /// Steps a record stays eligible as a window partner after its upload:
  /// min(window_steps, b/omega - 1).
  static uint32_t EligibleSteps(const IncShrinkConfig& config);

  /// Retention floor of the outsourced stores after step `t` (1-based):
  /// the first upload step a future invocation can still read. Join views
  /// read batch(t) and the EligibleSteps batches before it at step t+1, so
  /// the floor is t - EligibleSteps (saturating at 0); selection views read
  /// only batch(t), so it is t. NM re-reads all of DS (ConcatAll) and keeps
  /// every batch: its floor is 0. A function of the public clock and config
  /// only, so eviction leaks nothing.
  static uint64_t RetainFrom(const IncShrinkConfig& config, uint64_t t);

  /// Public number of rows one invocation appends to the cache at step t
  /// (the exhaustive-padding bound on new view entries). Used by the
  /// transcript simulator.
  static uint64_t PublicCacheAppendRows(const IncShrinkConfig& config,
                                        uint64_t t);

  /// Total view rows a single logical record may ever contribute (the
  /// stability constant q of the composed transformation) — equals b.
  uint32_t StabilityBound() const { return config_.budget_b; }

  /// Batch execution policy for this protocol's oblivious sorts (the
  /// compaction sort and the sort-merge join's network). Scheduling only —
  /// results are bit-identical with any pool/threshold.
  void set_sort_exec(const BatchExec& exec) { sort_exec_ = exec; }

 private:
  /// Commit hook: receives the finished DeltaV block and its in-protocol
  /// real-entry count; the unsharded path appends to one SecureCache, the
  /// sharded path routes per shard. Runs exactly once per invocation,
  /// before the invocation's simulated time is metered.
  using CommitFn = std::function<void(const SharedRows&, uint32_t)>;

  /// The windowed-join invocation body shared by both cache layouts.
  Result<StepResult> StepJoin(uint64_t t, const OutsourcedTable& store1,
                              const OutsourcedTable& store2, uint64_t* seq,
                              const CommitFn& commit);

  /// The selection invocation body shared by both cache layouts.
  Result<StepResult> StepFilterImpl(uint64_t t, const OutsourcedTable& store1,
                                    uint64_t* seq, const CommitFn& commit);

  /// Charges omega to every real record of `batch` (Alg. 1 participation
  /// accounting), collecting charged rids into `charged`; returns error when
  /// a budget would be exceeded.
  Status ChargeBatch(const SharedRows& batch,
                     std::unordered_set<Word>* charged);

  Protocol2PC* proto_;
  IncShrinkConfig config_;
  PrivacyAccountant* accountant_;
  BatchExec sort_exec_;
};

}  // namespace incshrink
