// Crash-safe checkpoint/restore property suite (robustness tentpole):
//
//   * kill-at-step-k + restore must reproduce the uninterrupted run BIT FOR
//     BIT — summaries, step metrics, transcripts, DP releases, and the final
//     snapshot bytes themselves — for every Shrink strategy, sharded and
//     unsharded, at 1 / 2 / 8 shard threads, for every kill step;
//   * snapshotting draws no randomness: an auto-checkpointing run equals an
//     uncheckpointed one;
//   * fleet tenants checkpoint out of one fleet and resume bit-identically
//     inside a freshly built fleet (live migration), including their
//     scheduling state;
//   * every malformed snapshot — truncated, bit-flipped, config-mismatched —
//     is rejected with a Status, never loaded, and leaves the target usable.
//
// Runs under the TSan CI job (see .github/workflows/ci.yml) because the
// sharded restore paths touch the same state the shard pool does.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/engine.h"
#include "src/core/fleet.h"
#include "src/core/owner_client.h"
#include "src/storage/checkpoint.h"
#include "src/testing/fault_injector.h"
#include "src/workload/generators.h"

namespace incshrink {
namespace {

constexpr uint64_t kSteps = 8;

GeneratedWorkload SmallWorkload() {
  TpcDsParams p;
  p.steps = kSteps;
  p.seed = 77;
  return GenerateTpcDs(p);
}

IncShrinkConfig CheckpointConfig(Strategy strategy, uint32_t shards,
                                 int threads) {
  IncShrinkConfig cfg = DefaultTpcDsConfig();
  cfg.strategy = strategy;
  cfg.timer_T = 3;          // several timer fires inside 8 steps
  cfg.ant_theta = 6;        // low enough that ANT fires
  cfg.flush_interval = 4;   // exercise the flush path across a restore
  cfg.flush_size = 4;
  cfg.num_cache_shards = shards;
  cfg.cache_shard_threads = threads;
  return cfg;
}

void ExpectStatIdentical(const RunningStat& a, const RunningStat& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.sum(), b.sum());
}

void ExpectSummaryIdentical(const RunSummary& a, const RunSummary& b) {
  ExpectStatIdentical(a.l1_error, b.l1_error);
  ExpectStatIdentical(a.relative_error, b.relative_error);
  ExpectStatIdentical(a.true_count_stat, b.true_count_stat);
  ExpectStatIdentical(a.qet_seconds, b.qet_seconds);
  ExpectStatIdentical(a.transform_seconds, b.transform_seconds);
  ExpectStatIdentical(a.shrink_seconds, b.shrink_seconds);
  EXPECT_EQ(a.total_mpc_seconds, b.total_mpc_seconds);
  EXPECT_EQ(a.total_query_seconds, b.total_query_seconds);
  EXPECT_EQ(a.final_view_mb, b.final_view_mb);
  EXPECT_EQ(a.final_view_rows, b.final_view_rows);
  EXPECT_EQ(a.final_cache_rows, b.final_cache_rows);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.flushes, b.flushes);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.total_real_entries_cached, b.total_real_entries_cached);
  EXPECT_EQ(a.final_true_count, b.final_true_count);
}

void ExpectEngineIdentical(const Engine& a, const Engine& b) {
  ExpectSummaryIdentical(a.Summary(), b.Summary());
  ASSERT_EQ(a.transcript().size(), b.transcript().size());
  for (size_t i = 0; i < a.transcript().size(); ++i) {
    EXPECT_EQ(a.transcript()[i], b.transcript()[i]) << "event " << i;
  }
  ASSERT_EQ(a.releases().size(), b.releases().size());
  for (size_t i = 0; i < a.releases().size(); ++i) {
    EXPECT_EQ(a.releases()[i].t, b.releases()[i].t);
    EXPECT_EQ(a.releases()[i].size, b.releases()[i].size);
    EXPECT_EQ(a.releases()[i].fired, b.releases()[i].fired);
  }
  ASSERT_EQ(a.step_metrics().size(), b.step_metrics().size());
  for (size_t i = 0; i < a.step_metrics().size(); ++i) {
    const StepMetrics& ma = a.step_metrics()[i];
    const StepMetrics& mb = b.step_metrics()[i];
    EXPECT_EQ(ma.t, mb.t);
    EXPECT_EQ(ma.transform_seconds, mb.transform_seconds);
    EXPECT_EQ(ma.shrink_seconds, mb.shrink_seconds);
    EXPECT_EQ(ma.query_seconds, mb.query_seconds);
    EXPECT_EQ(ma.true_count, mb.true_count);
    EXPECT_EQ(ma.view_answer, mb.view_answer);
    EXPECT_EQ(ma.view_rows, mb.view_rows);
    EXPECT_EQ(ma.cache_rows, mb.cache_rows);
    EXPECT_EQ(ma.synced, mb.synced);
    EXPECT_EQ(ma.sync_rows, mb.sync_rows);
    EXPECT_EQ(ma.flushed, mb.flushed);
  }
}

// ---------------------------------------------------------------------------
// The core property: kill-at-step-k + restore == uninterrupted, bit for bit.
// ---------------------------------------------------------------------------

class CrashRestartTest
    : public ::testing::TestWithParam<std::tuple<Strategy, uint32_t, int>> {};

TEST_P(CrashRestartTest, KillAtEveryStepRestoresBitIdentical) {
  const auto [strategy, shards, threads] = GetParam();
  const GeneratedWorkload w = SmallWorkload();
  const IncShrinkConfig cfg = CheckpointConfig(strategy, shards, threads);

  SynchronousDeployment uninterrupted(cfg);
  ASSERT_TRUE(uninterrupted.Run(w.t1, w.t2).ok());
  Result<std::vector<uint8_t>> golden = uninterrupted.SaveCheckpoint();
  ASSERT_TRUE(golden.ok());

  for (uint64_t k = 1; k < kSteps; ++k) {
    Result<std::unique_ptr<SynchronousDeployment>> restored =
        RunWithCrashAtStep(cfg, w.t1, w.t2, k);
    ASSERT_TRUE(restored.ok()) << "kill step " << k << ": "
                               << restored.status().message();
    ExpectEngineIdentical(uninterrupted.engine(), (*restored)->engine());
    EXPECT_EQ((*restored)->owner1().clock(), uninterrupted.owner1().clock());
    EXPECT_EQ((*restored)->owner2().clock(), uninterrupted.owner2().clock());
    // The strongest form of the property: the final snapshots — covering
    // every RNG cursor, share array, ledger row and counter — are the same
    // bytes.
    Result<std::vector<uint8_t>> after = (*restored)->SaveCheckpoint();
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*golden, *after) << "kill step " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesShardsThreads, CrashRestartTest,
    ::testing::Values(
        std::make_tuple(Strategy::kDpTimer, 1u, 1),
        std::make_tuple(Strategy::kDpAnt, 1u, 1),
        std::make_tuple(Strategy::kEp, 1u, 1),
        std::make_tuple(Strategy::kDpTimer, 4u, 2),
        std::make_tuple(Strategy::kDpAnt, 4u, 2),
        std::make_tuple(Strategy::kEp, 4u, 2),
        std::make_tuple(Strategy::kDpTimer, 4u, 8),
        std::make_tuple(Strategy::kDpAnt, 4u, 8),
        std::make_tuple(Strategy::kEp, 4u, 8)));

// Checkpointing draws no randomness: a run that snapshots its engine after
// every step must equal an uncheckpointed one observable for observable.
TEST(CheckpointNeutralityTest, CheckpointingEveryStepLeavesRunBitIdentical) {
  const GeneratedWorkload w = SmallWorkload();
  const IncShrinkConfig cfg = CheckpointConfig(Strategy::kDpAnt, 1, 1);

  SynchronousDeployment a(cfg);
  SynchronousDeployment b(cfg);
  ASSERT_TRUE(a.Run(w.t1, w.t2).ok());
  std::vector<uint8_t> last;
  for (size_t i = 0; i < w.t1.size(); ++i) {
    ASSERT_TRUE(b.Step(w.t1[i], w.t2[i]).ok());
    Result<std::vector<uint8_t>> snapshot = b.engine().SaveCheckpoint();
    ASSERT_TRUE(snapshot.ok()) << "step " << i;
    last = std::move(snapshot).value();
  }
  ExpectEngineIdentical(a.engine(), b.engine());

  // The last snapshot restores into a fresh engine, and re-snapshotting that
  // engine reproduces its bytes.
  Engine fresh(cfg);
  ASSERT_TRUE(fresh.RestoreCheckpoint(last).ok());
  Result<std::vector<uint8_t>> again = fresh.SaveCheckpoint();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(last, *again);
}

// ---------------------------------------------------------------------------
// Fleet tenant migration.
// ---------------------------------------------------------------------------

TEST(FleetMigrationTest, TenantsMigrateBitIdentically) {
  const GeneratedWorkload w1 = SmallWorkload();
  TpcDsParams p2;
  p2.steps = kSteps;
  p2.seed = 78;
  const GeneratedWorkload w2 = GenerateTpcDs(p2);

  std::vector<DeploymentFleet::TenantSpec> specs(2);
  specs[0].name = "timer";
  specs[0].config = CheckpointConfig(Strategy::kDpTimer, 1, 1);
  specs[0].workload = &w1;
  specs[1].name = "ant";
  specs[1].config = CheckpointConfig(Strategy::kDpAnt, 1, 1);
  specs[1].workload = &w2;

  DeploymentFleet::Options opts;
  opts.root_seed = 9;
  opts.num_threads = 2;

  // Reference: one fleet runs the whole stream uninterrupted.
  DeploymentFleet reference(specs, opts);
  reference.RunAll();

  // Migration: run half the rounds, checkpoint both tenants, restore them
  // into a freshly built fleet (different worker budget — scheduling knobs
  // are outside the fingerprint) and finish there.
  DeploymentFleet source(specs, opts);
  for (int r = 0; r < 4; ++r) source.StepAll();
  Result<std::vector<uint8_t>> blob0 = source.CheckpointTenant(0);
  Result<std::vector<uint8_t>> blob1 = source.CheckpointTenant(1);
  ASSERT_TRUE(blob0.ok());
  ASSERT_TRUE(blob1.ok());

  DeploymentFleet::Options migrated_opts = opts;
  migrated_opts.num_threads = 1;
  DeploymentFleet migrated(specs, migrated_opts);
  ASSERT_TRUE(migrated.RestoreTenant(0, *blob0).ok());
  ASSERT_TRUE(migrated.RestoreTenant(1, *blob1).ok());
  migrated.RunAll();

  for (size_t i = 0; i < 2; ++i) {
    ExpectEngineIdentical(reference.engine(i), migrated.engine(i));
    EXPECT_EQ(reference.owner1(i).clock(), migrated.owner1(i).clock());
    EXPECT_EQ(reference.owner2(i).clock(), migrated.owner2(i).clock());
  }

  // Cross-tenant mixups must fail closed: tenant 1's blob does not restore
  // into slot 0 (different config fingerprint), and the failed attempt
  // leaves the tenant running.
  DeploymentFleet again(specs, opts);
  const Status mixed = again.RestoreTenant(0, *blob1);
  EXPECT_EQ(mixed.code(), StatusCode::kFailedPrecondition);
  again.RunAll();
  ExpectEngineIdentical(reference.engine(0), again.engine(0));
}

// ---------------------------------------------------------------------------
// DP-ANT upload-policy owners. The owner's SVT draws through a pointer to
// the owner's policy generator, so an owner moved into place — by a restore,
// or out of MakeOwner1/2 into a fleet slot — must draw from its own stream.
// ---------------------------------------------------------------------------

IncShrinkConfig DpAntOwnerConfig() {
  IncShrinkConfig cfg = CheckpointConfig(Strategy::kDpTimer, 1, 1);
  for (UploadPolicyConfig* policy :
       {&cfg.upload_policy1, &cfg.upload_policy2}) {
    policy->kind = UploadPolicyKind::kDpAntSync;
    policy->sync_theta = 4;
  }
  return cfg;
}

TEST(DpAntOwnerRestoreTest, RestoredDeploymentsResumeBitIdentical) {
  const GeneratedWorkload w = SmallWorkload();
  const IncShrinkConfig cfg = DpAntOwnerConfig();
  SynchronousDeployment uninterrupted(cfg);
  ASSERT_TRUE(uninterrupted.Run(w.t1, w.t2).ok());
  Result<std::vector<uint8_t>> golden = uninterrupted.SaveCheckpoint();
  ASSERT_TRUE(golden.ok());

  for (uint64_t k = 1; k < kSteps; ++k) {
    // A cold deployment restored from the step-k snapshot.
    Result<std::unique_ptr<SynchronousDeployment>> cold =
        RunWithCrashAtStep(cfg, w.t1, w.t2, k);
    ASSERT_TRUE(cold.ok()) << "kill step " << k;
    ExpectEngineIdentical(uninterrupted.engine(), (*cold)->engine());
    Result<std::vector<uint8_t>> cold_after = (*cold)->SaveCheckpoint();
    ASSERT_TRUE(cold_after.ok());
    EXPECT_EQ(*golden, *cold_after) << "cold restore at step " << k;

    // The same snapshot restored over the live deployment that took it.
    SynchronousDeployment live(cfg);
    for (uint64_t t = 0; t < k; ++t) {
      ASSERT_TRUE(live.Step(w.t1[t], w.t2[t]).ok());
    }
    Result<std::vector<uint8_t>> blob = live.SaveCheckpoint();
    ASSERT_TRUE(blob.ok());
    ASSERT_TRUE(live.RestoreCheckpoint(*blob).ok());
    for (uint64_t t = k; t < kSteps; ++t) {
      ASSERT_TRUE(live.Step(w.t1[t], w.t2[t]).ok());
    }
    Result<std::vector<uint8_t>> live_after = live.SaveCheckpoint();
    ASSERT_TRUE(live_after.ok());
    EXPECT_EQ(*golden, *live_after) << "in-place restore at step " << k;
  }
}

TEST(DpAntOwnerRestoreTest, FleetTenantsMatchLockstepAndMigrate) {
  const GeneratedWorkload w = SmallWorkload();
  std::vector<DeploymentFleet::TenantSpec> specs(1);
  specs[0].name = "ant-owners";
  specs[0].config = DpAntOwnerConfig();
  specs[0].workload = &w;
  DeploymentFleet::Options opts;
  opts.root_seed = 9;
  opts.num_threads = 1;

  // The fleet's owners are moved into their slots; they must still run the
  // lockstep deployment's exact policy streams.
  IncShrinkConfig lockstep_cfg = specs[0].config;
  lockstep_cfg.seed = DeriveTenantSeed(opts.root_seed, 0);
  SynchronousDeployment lockstep(lockstep_cfg);
  ASSERT_TRUE(lockstep.Run(w.t1, w.t2).ok());

  DeploymentFleet reference(specs, opts);
  reference.RunAll();
  ExpectEngineIdentical(lockstep.engine(), reference.engine(0));

  // Migration restores the tenant's owners by move as well.
  DeploymentFleet source(specs, opts);
  for (int r = 0; r < 4; ++r) source.StepAll();
  Result<std::vector<uint8_t>> blob = source.CheckpointTenant(0);
  ASSERT_TRUE(blob.ok());
  DeploymentFleet migrated(specs, opts);
  ASSERT_TRUE(migrated.RestoreTenant(0, *blob).ok());
  migrated.RunAll();
  ExpectEngineIdentical(lockstep.engine(), migrated.engine(0));
  EXPECT_EQ(lockstep.owner1().pending(), migrated.owner1(0).pending());
  EXPECT_EQ(lockstep.owner2().pending(), migrated.owner2(0).pending());
}

// ---------------------------------------------------------------------------
// Fail-closed rejection.
// ---------------------------------------------------------------------------

TEST(CheckpointRejectionTest, ConfigMismatchIsRejectedAtomically) {
  const GeneratedWorkload w = SmallWorkload();
  const IncShrinkConfig cfg = CheckpointConfig(Strategy::kDpTimer, 1, 1);
  SynchronousDeployment source(cfg);
  ASSERT_TRUE(source.Run(w.t1, w.t2).ok());
  Result<std::vector<uint8_t>> blob = source.SaveCheckpoint();
  ASSERT_TRUE(blob.ok());

  IncShrinkConfig other = cfg;
  other.seed = cfg.seed + 1;
  SynchronousDeployment victim(other);
  const Status st = victim.RestoreCheckpoint(*blob);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  // The refused restore left the victim untouched and fully usable.
  ASSERT_TRUE(victim.Run(w.t1, w.t2).ok());
  EXPECT_EQ(victim.engine().current_step(), kSteps);
}

TEST(CheckpointRejectionTest, MidStepCheckpointIsRefused) {
  const GeneratedWorkload w = SmallWorkload();
  const IncShrinkConfig cfg = CheckpointConfig(Strategy::kDpTimer, 1, 1);
  Engine engine(cfg);
  ASSERT_TRUE(engine.BeginStep().ok());
  EXPECT_EQ(engine.SaveCheckpoint().status().code(),
            StatusCode::kFailedPrecondition);
  std::vector<uint8_t> junk(64, 0);
  EXPECT_EQ(engine.RestoreCheckpoint(junk).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(engine.FinishStep().ok());
  // Between steps the same engine checkpoints fine.
  EXPECT_TRUE(engine.SaveCheckpoint().ok());
  (void)w;
}

TEST(CheckpointRejectionTest, SnapshotSizeCeilingIsEnforced) {
  IncShrinkConfig cfg = CheckpointConfig(Strategy::kDpTimer, 1, 1);
  cfg.checkpoint_max_bytes = 4096;  // smallest legal ceiling
  const GeneratedWorkload w = SmallWorkload();
  SynchronousDeployment d(cfg);
  ASSERT_TRUE(d.Run(w.t1, w.t2).ok());
  // Eight steps of shares cannot fit 4 KiB.
  EXPECT_EQ(d.engine().SaveCheckpoint().status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(d.SaveCheckpoint().status().code(), StatusCode::kOutOfRange);
}

TEST(CheckpointRejectionTest, ValidateRejectsTinyCeiling) {
  IncShrinkConfig cfg = DefaultTpcDsConfig();
  cfg.checkpoint_max_bytes = 4095;
  EXPECT_EQ(cfg.Validate().code(), StatusCode::kInvalidArgument);
  cfg.checkpoint_max_bytes = 4096;
  EXPECT_TRUE(cfg.Validate().ok());
}

// Deterministic fault schedules: every corruption the injector draws from a
// seed is rejected with a Status and leaves the engine able to load the
// pristine snapshot afterwards.
TEST(CheckpointRejectionTest, InjectedCorruptionsAllFailClosed) {
  const GeneratedWorkload w = SmallWorkload();
  const IncShrinkConfig cfg = CheckpointConfig(Strategy::kDpAnt, 1, 1);
  SynchronousDeployment source(cfg);
  ASSERT_TRUE(source.Run(w.t1, w.t2).ok());
  Result<std::vector<uint8_t>> blob = source.SaveCheckpoint();
  ASSERT_TRUE(blob.ok());

  SynchronousDeployment victim(cfg);
  FaultInjector inject(0xC0FFEE);
  const FaultPlan plan = inject.MakePlan(
      /*horizon=*/kSteps, /*kills=*/0, /*corruptions=*/64,
      /*snapshot_bytes=*/blob->size(), /*drops=*/0, /*max_drop_rounds=*/1);
  for (const FaultEvent& ev : plan.events) {
    std::vector<uint8_t> bad;
    if (ev.kind == FaultKind::kTornWrite) {
      bad = FaultInjector::TruncateAt(*blob, ev.param);
    } else {
      ASSERT_EQ(ev.kind, FaultKind::kBitFlip);
      bad = FaultInjector::FlipBit(*blob, ev.param);
    }
    EXPECT_FALSE(victim.RestoreCheckpoint(bad).ok())
        << "seed " << plan.seed << " accepted a corrupted snapshot";
  }
  // After every hostile blob bounced, the pristine one still loads.
  EXPECT_TRUE(victim.RestoreCheckpoint(*blob).ok());
  Result<std::vector<uint8_t>> after = victim.SaveCheckpoint();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*blob, *after);
}

}  // namespace
}  // namespace incshrink
