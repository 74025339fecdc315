#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/analyst.h"
#include "src/core/config.h"
#include "src/core/metrics.h"
#include "src/core/shrink.h"
#include "src/core/transform.h"
#include "src/dp/accountant.h"
#include "src/dp/mechanisms.h"
#include "src/dp/simulator.h"
#include "src/dp/transcript.h"
#include "src/mpc/party.h"
#include "src/mpc/protocol.h"
#include "src/net/upload_channel.h"
#include "src/oblivious/sort.h"
#include "src/relational/growing_table.h"
#include "src/relational/query.h"
#include "src/storage/materialized_view.h"
#include "src/storage/outsourced_store.h"
#include "src/storage/secure_cache.h"
#include "src/storage/sharded_cache.h"

namespace incshrink {

/// The engine's append-only per-step logs: one snapshot section.
struct EngineLogs {
  std::vector<StepMetrics> metrics;
  Transcript transcript;
  std::vector<LeakageRelease> releases;
  std::vector<uint32_t> real_entries_per_step;
  std::vector<uint64_t> upload_rows_t1;  ///< per-step T1 upload sizes
  std::vector<uint64_t> upload_rows_t2;  ///< per-step T2 upload sizes
};

/// \brief The IncShrink engine: the server side of one secure outsourced
/// growing database deployment (two servers, one view definition, one
/// update strategy).
///
/// Owners are decoupled from the engine (paper Section 3 separates the data
/// owners from the two untrusted servers): each owner is an OwnerClient
/// (src/core/owner_client.h) that synchronizes records on its *own* logical
/// clock and pushes serialized upload frames into the engine's bounded
/// inbound UploadChannels (src/net/). Per engine step:
///  1. the engine drains a deterministic, config-bounded number of queued
///     owner frames per channel (`max_batches_per_step`, fixed T1-then-T2
///     interleave) and appends them to the outsourced stores;
///  2. the configured strategy maintains the materialized view —
///     Transform + Shrink for the DP protocols, direct materialization for
///     EP/OTM, nothing for NM;
///  3. the analyst's COUNT query is answered from the view (or, for NM, by
///     re-joining the entire outsourced data) and accuracy/efficiency
///     metrics are recorded.
///
/// Determinism contract of the transport: the drain schedule is a pure
/// function of the queue depths and `max_batches_per_step` — never of
/// thread scheduling — so a deployment's observables are a pure function of
/// (config, the owners' schedules). Owners stepped in lockstep with the
/// engine (SynchronousDeployment) reproduce the pre-transport fused engine
/// bit for bit.
///
/// The engine also logs the observable transcript and the DP releases so
/// the test suite can replay the Table-1 simulator against the real run.
///
/// With `num_cache_shards > 1` the secure cache splits into K shards
/// (src/storage/sharded_cache.h), each running its own Shrink instance at
/// an eps/K budget slice on its own protocol substream; the per-shard
/// steps execute concurrently on a deployment-local ThreadPool and merge
/// in fixed shard order, so results are bit-identical at any thread count
/// (and, at K = 1, identical to the unsharded engine).
class Engine {
 public:
  explicit Engine(const IncShrinkConfig& config);

  /// Processes one engine time step, draining queued owner upload frames
  /// (see class comment). A step with no queued frames still advances the
  /// strategy clock with an empty upload.
  Status Step();

  // ------------------------------------------------------------------
  // Phase-split stepping (cross-tenant sort coalescing).
  //
  // BeginStep runs the step through the Shrink plans (drain, transform,
  // per-shard timer/ANT decisions), TakePendingSortJobs exposes the fired
  // shards' cache sorts as batchable jobs, and FinishStep completes the
  // step (sync commits, flush phase, analyst query). BeginStep + execute
  // jobs + FinishStep is bit-identical to Step() at any thread count;
  // Step() itself is implemented exactly that way, executing the jobs on
  // the deployment-local pool. DeploymentFleet uses the split to fuse
  // same-shaped sorts across tenants into one batch submission per round.
  // ------------------------------------------------------------------

  /// First phase of Step(). Must be balanced by FinishStep().
  Status BeginStep();

  /// The fired shards' pending cache sorts (empty for non-DP strategies or
  /// quiet steps). The caller assumes responsibility for executing every
  /// returned job (ObliviousSortBatch) before calling FinishStep; jobs left
  /// untaken are executed by FinishStep itself.
  std::vector<SortJob> TakePendingSortJobs();

  /// Second phase of Step().
  Status FinishStep();

  /// Inbound upload channel of the T1 owner (server-side endpoint).
  UploadChannel* channel1() { return &channel1_; }
  /// Inbound upload channel of the T2 owner (unused by filter views).
  UploadChannel* channel2() { return &channel2_; }
  /// Queued frames not yet drained. Channels drain as pairs, so the T1
  /// depth is the public queue depth of the deployment.
  size_t queue_depth() const { return channel1_.depth(); }
  /// Total owner frames drained across all steps so far.
  uint64_t frames_drained() const { return frames_drained_; }

  /// Distance, in engine steps, to the next *publicly scheduled* DP release
  /// of this deployment: the sooner of the next sDPTimer firing and the next
  /// cache flush. This is a pure function of the public clock and config —
  /// sDPANT's data-dependent firings deliberately do not contribute — so a
  /// fleet scheduler may fold it into priorities without the service order
  /// ever becoming a leakage channel (tests/oblivious_invariants_test.cc
  /// pins this). Returns UINT64_MAX when no public release is scheduled
  /// (EP/OTM/NM, or flushing disabled for sDPANT).
  uint64_t StepsToNextPublicRelease() const;

  /// Aggregated results (Table 2 rows).
  RunSummary Summary() const;

  const std::vector<StepMetrics>& step_metrics() const { return logs_.metrics; }
  const Transcript& transcript() const { return logs_.transcript; }
  const std::vector<LeakageRelease>& releases() const { return logs_.releases; }
  const std::vector<uint32_t>& per_step_real_entries() const {
    return logs_.real_entries_per_step;
  }

  const IncShrinkConfig& config() const { return config_; }
  const PrivacyAccountant& accountant() const { return accountant_; }
  Protocol2PC* proto() { return &proto_; }
  uint64_t current_step() const { return t_; }
  const MaterializedView& view() const { return view_; }
  /// Shard `k` of the secure cache — the whole cache is shard 0 in the
  /// (default) unsharded deployment.
  const SecureCache& shard_cache(size_t k) const { return cache_.shard(k); }
  const ShardedSecureCache& sharded_cache() const { return cache_; }
  /// Per-shard view-update budget slices; SequentialComposition over them
  /// equals config().eps exactly (== {eps} when unsharded).
  const std::vector<double>& shard_epsilons() const {
    return cache_.shard_eps();
  }
  const OutsourcedTable& store1() const { return store1_; }
  const OutsourcedTable& store2() const { return store2_; }

  /// Public parameters for the SIM-CDP transcript simulator, capturing the
  /// recorded public upload sizes and the deterministic transform-output
  /// schedule of this run. Everything inside is a function of public
  /// constants and of DP-released sizes (upload sizes are either fixed or
  /// the output of the owners' DP synchronization policies).
  SimulatorPublicParams MakeSimulatorParams() const;

  /// Total event-level epsilon of the composed system: the view-update
  /// leakage eps plus the strongest private owner upload-policy eps
  /// (sequential composition, Section 8).
  double ComposedEpsilon() const;

  /// Result of an ad-hoc analyst query answered from the view.
  struct AdHocResult {
    uint64_t answer = 0;         ///< q~(V_t): the server's response
    double query_seconds = 0;    ///< simulated QET
  };

  /// Answers a rewritten ad-hoc query (date-range / key restriction) over
  /// the current materialized view (join views only). Demonstrates the
  /// paper's KI-3 claim: despite contribution constraints, a rich class of
  /// queries is answerable from the view with small error.
  AdHocResult AnswerAdHocQuery(const AnalystQuery& query);

  /// q(D_t): the exact logical answer to an ad-hoc query, scanned from the
  /// evaluation-only ground-truth counter (join views only). Kept off the
  /// serving path: AnswerAdHocQuery never pays for this scan.
  uint64_t AdHocTruth(const AnalystQuery& query) const;

  // ------------------------------------------------------------------
  // Crash-safe checkpoint/restore (ICKP v3, src/storage/checkpoint.h).
  // ------------------------------------------------------------------

  /// Serializes the engine's full resumable state — clocks, RNG cursors,
  /// privacy ledger, stores, cache shards, view, ground truth, logs and
  /// channel backlogs — into one ICKP snapshot. Draws no randomness, so
  /// checkpointing never perturbs the run. Fails with FailedPrecondition
  /// between BeginStep and FinishStep (in-flight step state is not
  /// serializable) and with OutOfRange when the blob would exceed
  /// config().checkpoint_max_bytes.
  Result<std::vector<uint8_t>> SaveCheckpoint();
  /// The same snapshot, nested in place in `outer`'s current section (see
  /// CheckpointWriter::BeginContainer). On error `outer` is unspecified.
  Status SaveCheckpoint(CheckpointWriter* outer);

  /// Restores a SaveCheckpoint blob into this engine, which must have been
  /// constructed with the identical config (fingerprint-checked). Atomic:
  /// everything is decoded and validated into temporaries before any member
  /// changes, so a malformed or hostile snapshot is rejected with a Status
  /// and the engine keeps running on its prior state. Never draws
  /// randomness — restored RNG cursors resume the exact party streams.
  Status RestoreCheckpoint(std::span<const uint8_t> snapshot);

  /// Automatic checkpoint slot: when config().checkpoint_interval > 0,
  /// FinishStep refreshes this after every interval-th completed step so a
  /// recovery driver can persist it. Empty until the first auto-checkpoint.
  const std::vector<uint8_t>& last_checkpoint() const {
    return last_checkpoint_;
  }
  /// Step the auto-checkpoint slot was taken at (0 = never).
  uint64_t last_checkpoint_step() const { return last_checkpoint_step_; }
  /// Auto-checkpoints taken over the engine's lifetime.
  uint64_t checkpoints_taken() const { return checkpoints_taken_; }

 private:
  /// In-flight state between BeginStep and FinishStep.
  struct PendingStep {
    StepMetrics m;
    LeakageRelease release{0, 0, false};
    bool dp = false;               ///< DP strategy: shard plans pending
    std::vector<ShrinkPlan> plans;
    std::vector<MaterializedView> staged_sync;
    std::vector<SortJob> jobs;     ///< fired shards' sync sorts
    bool jobs_taken = false;       ///< caller executes them before Finish
  };

  /// Answers this step's COUNT query; returns the revealed answer and
  /// records the simulated QET in *seconds.
  uint64_t AnswerQuery(double* seconds);

  /// Moves the whole cache straight into the view (EP / OTM materialize).
  uint64_t MaterializeAll();

  /// Runs body(k) over all shards, on the shard pool when one exists.
  void ForEachShard(const std::function<void(size_t)>& body);

  /// Body of BeginStep (wrapped so error returns reset the pending state).
  Status BeginStepImpl();

  /// Writes every snapshot section (between steps only).
  Status SaveSections(CheckpointWriter& w);
  /// OutOfRange when a snapshot of `bytes` exceeds checkpoint_max_bytes.
  Status CheckSnapshotSize(size_t bytes) const;

  /// Batch execution policy of this deployment's oblivious submissions.
  BatchExec batch_exec() {
    return BatchExec{shard_pool_.get(), config_.oblivious_batch_min_layer};
  }

  IncShrinkConfig config_;
  UploadChannel channel1_;
  UploadChannel channel2_;
  Party s0_;
  Party s1_;
  Protocol2PC proto_;
  PrivacyAccountant accountant_;
  OutsourcedTable store1_;
  OutsourcedTable store2_;
  ShardedSecureCache cache_;
  MaterializedView view_;
  TransformProtocol transform_;
  /// Per-shard Shrink instances (one entry per shard for the strategy in
  /// use; both empty for EP/OTM/NM). Shard k steps on cache_.shard_proto(k)
  /// with the eps slice baked into shard_configs_[k].
  std::vector<std::unique_ptr<ShrinkTimer>> timers_;
  std::vector<std::unique_ptr<ShrinkAnt>> ants_;
  std::vector<IncShrinkConfig> shard_configs_;
  /// Fork-join pool for the per-shard Shrink phase; null when K == 1 (the
  /// unsharded engine never spawns a thread).
  std::unique_ptr<ThreadPool> shard_pool_;
  WindowJoinCounter truth_;

  std::unique_ptr<PendingStep> pending_;  ///< set between Begin/FinishStep
  uint64_t filter_truth_ = 0;  ///< ground truth for filter views
  uint64_t frames_drained_ = 0;
  uint64_t t_ = 0;
  EngineLogs logs_;
  uint64_t total_real_entries_ = 0;

  std::vector<uint8_t> last_checkpoint_;  ///< auto-checkpoint slot
  uint64_t last_checkpoint_step_ = 0;
  uint64_t checkpoints_taken_ = 0;
};

}  // namespace incshrink
