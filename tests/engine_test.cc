#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/owner_client.h"
#include "src/workload/generators.h"

namespace incshrink {
namespace {

/// A deterministic mini-workload: every step `pairs` sales arrive and are
/// returned `delay` steps later, all within window and batch capacity, so
/// transformation loss is zero and errors come only from the update policy.
struct MiniStream {
  std::vector<std::vector<LogicalRecord>> t1;
  std::vector<std::vector<LogicalRecord>> t2;
};

MiniStream MakeMiniStream(uint64_t steps, uint32_t pairs, uint32_t delay) {
  MiniStream s;
  s.t1.resize(steps);
  s.t2.resize(steps);
  Word rid = 1, key = 1;
  for (uint64_t t = 0; t < steps; ++t) {
    for (uint32_t i = 0; i < pairs; ++i) {
      const Word k = key++;
      s.t1[t].push_back({t + 1, rid++, k, static_cast<Word>(t + 1), 0});
      if (t + delay < steps) {
        s.t2[t + delay].push_back(
            {t + delay + 1, rid++, k, static_cast<Word>(t + 1 + delay), 0});
      }
    }
  }
  return s;
}

IncShrinkConfig MiniConfig(Strategy strategy) {
  IncShrinkConfig cfg;
  cfg.eps = 1.5;
  cfg.omega = 1;
  cfg.budget_b = 6;
  cfg.join = JoinSpec{0, 10, true, 1, true, true};
  cfg.window_steps = 5;
  cfg.strategy = strategy;
  cfg.timer_T = 4;
  cfg.ant_theta = 8;
  cfg.flush_interval = 20;
  cfg.flush_size = 20;
  cfg.upload_rows_t1 = 3;
  cfg.upload_rows_t2 = 3;
  cfg.seed = 7;
  return cfg;
}

RunSummary RunMini(Strategy strategy, uint64_t steps = 40) {
  const MiniStream s = MakeMiniStream(steps, 2, 2);
  SynchronousDeployment deployment(MiniConfig(strategy));
  const Status st = deployment.Run(s.t1, s.t2);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return deployment.Summary();
}

TEST(EngineTest, EpHasZeroErrorOnLossFreeStream) {
  const RunSummary s = RunMini(Strategy::kEp);
  EXPECT_DOUBLE_EQ(s.l1_error.max(), 0.0);
  EXPECT_GT(s.final_view_rows, 0u);
}

TEST(EngineTest, NmHasZeroErrorOnLossFreeStream) {
  const RunSummary s = RunMini(Strategy::kNm);
  EXPECT_DOUBLE_EQ(s.l1_error.max(), 0.0);
  EXPECT_EQ(s.final_view_rows, 0u);  // no materialized view at all
  EXPECT_EQ(s.updates, 0u);
}

TEST(EngineTest, OtmErrorGrowsToOne) {
  const RunSummary s = RunMini(Strategy::kOtm);
  // The one-time view never receives later pairs; relative error approaches
  // 1 as the logical answer grows.
  EXPECT_GT(s.l1_error.max(), 50.0);
  EXPECT_GT(s.relative_error.mean(), 0.5);
  EXPECT_EQ(s.updates, 1u);
}

TEST(EngineTest, DpTimerTracksTruthWithinNoise) {
  const RunSummary s = RunMini(Strategy::kDpTimer);
  EXPECT_GT(s.updates, 5u);
  // Deferred data + Laplace noise keep the error bounded and small compared
  // to the OTM baseline (final truth ~76 pairs).
  EXPECT_LT(s.l1_error.mean(), 25.0);
  EXPECT_LT(s.relative_error.mean(), 0.7);
}

TEST(EngineTest, DpAntTracksTruthWithinNoise) {
  const RunSummary s = RunMini(Strategy::kDpAnt);
  EXPECT_GT(s.updates, 3u);
  EXPECT_LT(s.l1_error.mean(), 25.0);
}

TEST(EngineTest, ViewSizeOrderingMatchesPaper) {
  // EP materializes every padded batch; DP shrinks it; OTM never grows.
  const RunSummary ep = RunMini(Strategy::kEp);
  const RunSummary dp = RunMini(Strategy::kDpTimer);
  const RunSummary otm = RunMini(Strategy::kOtm);
  EXPECT_GT(ep.final_view_rows, dp.final_view_rows);
  EXPECT_GT(dp.final_view_rows, otm.final_view_rows);
}

TEST(EngineTest, QetOrderingMatchesPaper) {
  // NM recomputes the full join per query -> slowest; EP scans a bloated
  // view; DP scans a small view.
  const RunSummary nm = RunMini(Strategy::kNm);
  const RunSummary ep = RunMini(Strategy::kEp);
  const RunSummary dp = RunMini(Strategy::kDpTimer);
  EXPECT_GT(nm.qet_seconds.mean(), ep.qet_seconds.mean());
  EXPECT_GT(ep.qet_seconds.mean(), dp.qet_seconds.mean());
}

TEST(EngineTest, TranscriptShapesPerStrategy) {
  const MiniStream s = MakeMiniStream(12, 1, 1);
  SynchronousDeployment dp(MiniConfig(Strategy::kDpTimer));
  ASSERT_TRUE(dp.Run(s.t1, s.t2).ok());
  int syncs = 0, uploads = 0, transforms = 0;
  for (const auto& e : dp.transcript()) {
    switch (e.kind) {
      case TranscriptEvent::Kind::kSync:
        ++syncs;
        break;
      case TranscriptEvent::Kind::kUpload:
        ++uploads;
        break;
      case TranscriptEvent::Kind::kTransformOut:
        ++transforms;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(uploads, 12);
  EXPECT_EQ(transforms, 12);
  EXPECT_EQ(syncs, 3);  // T = 4 over 12 steps

  SynchronousDeployment nm(MiniConfig(Strategy::kNm));
  ASSERT_TRUE(nm.Run(s.t1, s.t2).ok());
  for (const auto& e : nm.transcript()) {
    EXPECT_EQ(e.kind, TranscriptEvent::Kind::kUpload);
  }
}

TEST(EngineTest, StepMetricsAreConsistent) {
  const MiniStream s = MakeMiniStream(20, 2, 2);
  SynchronousDeployment engine(MiniConfig(Strategy::kDpTimer));
  ASSERT_TRUE(engine.Run(s.t1, s.t2).ok());
  const auto& steps = engine.step_metrics();
  ASSERT_EQ(steps.size(), 20u);
  uint64_t last_true = 0;
  for (const auto& m : steps) {
    EXPECT_GE(m.true_count, last_true);  // growing database
    last_true = m.true_count;
    EXPECT_GE(m.l1_error, 0.0);
    EXPECT_GT(m.transform_seconds, 0.0);
    EXPECT_GT(m.query_seconds, 0.0);
    if (m.synced) {
      EXPECT_GT(m.shrink_seconds, 0.0);
    }
  }
  const RunSummary sum = engine.Summary();
  EXPECT_EQ(sum.steps, 20u);
  EXPECT_GT(sum.total_mpc_seconds, 0.0);
  EXPECT_GT(sum.total_query_seconds, 0.0);
}

TEST(EngineTest, OverflowQueueDelaysUploadsWithoutLosingRecords) {
  // Burst of 9 arrivals into batches of 3: drains over 3 steps.
  IncShrinkConfig cfg = MiniConfig(Strategy::kEp);
  SynchronousDeployment deployment(cfg);
  std::vector<LogicalRecord> burst;
  Word rid = 1;
  for (int i = 0; i < 9; ++i)
    burst.push_back({1, rid++, static_cast<Word>(100 + i), 1, 0});
  ASSERT_TRUE(deployment.Step(burst, {}).ok());
  EXPECT_EQ(deployment.engine().store1().total_rows(), 3u);
  EXPECT_EQ(deployment.owner1().pending(), 6u);  // queued at the owner
  ASSERT_TRUE(deployment.Step({}, {}).ok());
  ASSERT_TRUE(deployment.Step({}, {}).ok());
  EXPECT_EQ(deployment.engine().store1().total_rows(), 9u);
  EXPECT_EQ(deployment.owner1().pending(), 0u);
}

TEST(EngineTest, PublicT2UploadsUnpadded) {
  IncShrinkConfig cfg = MiniConfig(Strategy::kDpTimer);
  cfg.t2_is_public = true;
  cfg.join.cap_t2 = false;
  SynchronousDeployment deployment(cfg);
  ASSERT_TRUE(deployment.Step({}, {{1, 1, 5, 1, 0}, {1, 2, 6, 1, 0}}).ok());
  EXPECT_EQ(deployment.engine().store2().batch(0).size(),
            2u);  // exactly the arrivals
  ASSERT_TRUE(deployment.Step({}, {}).ok());
  EXPECT_EQ(deployment.engine().store2().batch(1).size(), 0u);
}

TEST(EngineTest, MalformedFrameRejectsTheStepWithoutChangingState) {
  IncShrinkConfig cfg = MiniConfig(Strategy::kDpTimer);
  const MiniStream s = MakeMiniStream(6, 2, 2);
  SynchronousDeployment deployment(cfg);
  for (size_t t = 0; t < 3; ++t) {
    ASSERT_TRUE(deployment.Step(s.t1[t], s.t2[t]).ok());
  }
  Engine& engine = deployment.engine();
  ASSERT_TRUE(engine.channel1()->TryPush({1, 2, 3, 4}));
  ASSERT_TRUE(engine.channel2()->TryPush({5, 6, 7, 8}));
  const Result<std::vector<uint8_t>> before = engine.SaveCheckpoint();
  ASSERT_TRUE(before.ok());

  const Status first = engine.Step();
  EXPECT_EQ(first.code(), StatusCode::kInvalidArgument);
  const Result<std::vector<uint8_t>> after = engine.SaveCheckpoint();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after) << "a rejected step changed engine state";
  EXPECT_EQ(engine.current_step(), 3u);
  EXPECT_EQ(engine.store1().steps(), 3u);

  // The poisoned frame stays queued: every later step reports the same
  // Status instead of aborting on a clock/store mismatch.
  for (int i = 0; i < 3; ++i) {
    const Status again = engine.Step();
    EXPECT_EQ(again.code(), first.code());
    EXPECT_EQ(again.ToString(), first.ToString());
  }
  EXPECT_EQ(engine.current_step(), 3u);
}

TEST(EngineTest, UnpairedMalformedFrameNeverAbortsTheServer) {
  // A malformed T1 frame waits for its T2 partner (an empty step), then the
  // owners' next pair makes every later step reject without aborting.
  const MiniStream s = MakeMiniStream(8, 2, 2);
  SynchronousDeployment deployment(MiniConfig(Strategy::kDpTimer));
  for (size_t t = 0; t < 3; ++t) {
    ASSERT_TRUE(deployment.Step(s.t1[t], s.t2[t]).ok());
  }
  Engine& engine = deployment.engine();
  ASSERT_TRUE(engine.channel1()->TryPush({1, 2, 3, 4}));
  ASSERT_TRUE(engine.Step().ok());
  EXPECT_EQ(engine.current_step(), 4u);
  for (size_t t = 3; t < 6; ++t) {
    EXPECT_EQ(deployment.Step(s.t1[t], s.t2[t]).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(engine.current_step(), 4u);
    EXPECT_EQ(engine.store1().steps(), 4u);
  }
}

// Retention: after every step each store holds exactly the batches at or
// above TransformProtocol::RetainFrom(t) — at most EligibleSteps + 1 — for
// every strategy that maintains a view; NM keeps all of DS.
struct RetentionCase {
  Strategy strategy;
  ViewKind view_kind;
  uint32_t shards;
};

class RetentionTest : public ::testing::TestWithParam<RetentionCase> {};

TEST_P(RetentionTest, StoresHoldOnlyTheReadableWindow) {
  const RetentionCase& c = GetParam();
  IncShrinkConfig cfg = MiniConfig(c.strategy);
  cfg.view_kind = c.view_kind;
  cfg.filter = FilterSpec{2, 20};
  cfg.num_cache_shards = c.shards;
  const bool join_view = c.view_kind == ViewKind::kWindowJoin;
  const uint64_t eligible = TransformProtocol::EligibleSteps(cfg);
  const MiniStream s = MakeMiniStream(24, 2, 2);
  SynchronousDeployment deployment(cfg);
  const Engine& engine = deployment.engine();
  for (uint64_t t = 1; t <= s.t1.size(); ++t) {
    ASSERT_TRUE(deployment.Step(s.t1[t - 1], s.t2[t - 1]).ok());
    const uint64_t floor = TransformProtocol::RetainFrom(engine.config(), t);
    const OutsourcedTable& store1 = engine.store1();
    EXPECT_EQ(store1.steps(), t);
    EXPECT_EQ(store1.first_retained(), floor) << "step " << t;
    if (c.strategy == Strategy::kNm) {
      EXPECT_EQ(floor, 0u);  // NM re-reads all of DS every step
    } else {
      EXPECT_EQ(floor, join_view ? (t > eligible ? t - eligible : 0) : t);
      EXPECT_LE(store1.steps() - store1.first_retained(), eligible + 1);
    }
    const OutsourcedTable& store2 = engine.store2();
    EXPECT_EQ(store2.steps(), join_view ? t : 0u);
    EXPECT_EQ(store2.first_retained(), join_view ? floor : 0u);
  }
  // Eviction never changes the lifetime counters.
  EXPECT_EQ(engine.store1().total_rows(), s.t1.size() * cfg.upload_rows_t1);
}

std::vector<RetentionCase> AllRetentionCases() {
  std::vector<RetentionCase> cases;
  for (Strategy strategy : {Strategy::kDpTimer, Strategy::kDpAnt,
                            Strategy::kEp, Strategy::kOtm, Strategy::kNm}) {
    for (ViewKind view : {ViewKind::kWindowJoin, ViewKind::kFilter}) {
      for (uint32_t shards : {1u, 4u}) {
        cases.push_back(RetentionCase{strategy, view, shards});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesViewsShards, RetentionTest,
    ::testing::ValuesIn(AllRetentionCases()),
    [](const ::testing::TestParamInfo<RetentionCase>& p) {
      std::string name = StrategyName(p.param.strategy);
      name += p.param.view_kind == ViewKind::kFilter ? "_filter" : "_join";
      name += "_shards" + std::to_string(p.param.shards);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(EngineTest, InvalidConfigRejected) {
  IncShrinkConfig cfg = MiniConfig(Strategy::kDpTimer);
  cfg.omega = 5;  // != join.omega
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = MiniConfig(Strategy::kDpTimer);
  cfg.eps = -1;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = MiniConfig(Strategy::kDpTimer);
  cfg.budget_b = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = MiniConfig(Strategy::kDpTimer);
  cfg.max_batches_per_step = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = MiniConfig(Strategy::kDpTimer);
  cfg.upload_channel_capacity = 0;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(EngineTest, StrategyNames) {
  EXPECT_STREQ(StrategyName(Strategy::kDpTimer), "DP-Timer");
  EXPECT_STREQ(StrategyName(Strategy::kDpAnt), "DP-ANT");
  EXPECT_STREQ(StrategyName(Strategy::kEp), "EP");
  EXPECT_STREQ(StrategyName(Strategy::kOtm), "OTM");
  EXPECT_STREQ(StrategyName(Strategy::kNm), "NM");
}

}  // namespace
}  // namespace incshrink
