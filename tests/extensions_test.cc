#include <gtest/gtest.h>

#include "src/common/stats.h"
#include "src/core/engine.h"
#include "src/core/multilevel.h"
#include "src/core/owner_client.h"
#include "src/core/upload_policy.h"
#include "src/dp/allocation.h"
#include "src/workload/generators.h"

namespace incshrink {
namespace {

// ---------------------------------------------------------------------------
// Owner upload policies (Section 8, DP-Sync composition)
// ---------------------------------------------------------------------------

std::vector<LogicalRecord> Arrivals(uint64_t t, size_t n, Word* rid) {
  std::vector<LogicalRecord> v;
  for (size_t i = 0; i < n; ++i)
    v.push_back({t, (*rid)++, 7, static_cast<Word>(t), 0});
  return v;
}

TEST(UploadPolicyTest, FixedSizePadsAndQueues) {
  UploadPolicyConfig cfg;  // kFixedSize
  OwnerUploader up(cfg, /*fixed_rows=*/4, /*is_public=*/false, 1);
  Rng rng(2);
  Word rid = 1;
  SharedRows b1 = up.BuildBatch(1, Arrivals(1, 6, &rid), &rng);
  EXPECT_EQ(b1.size(), 4u);
  EXPECT_EQ(up.pending(), 2u);
  SharedRows b2 = up.BuildBatch(2, {}, &rng);
  EXPECT_EQ(b2.size(), 4u);  // 2 real + 2 dummies
  EXPECT_EQ(up.pending(), 0u);
  EXPECT_DOUBLE_EQ(up.PolicyEpsilon(), 0.0);
}

TEST(UploadPolicyTest, PublicUploadsEverythingUnpadded) {
  UploadPolicyConfig cfg;
  OwnerUploader up(cfg, 4, /*is_public=*/true, 1);
  Rng rng(3);
  Word rid = 1;
  EXPECT_EQ(up.BuildBatch(1, Arrivals(1, 9, &rid), &rng).size(), 9u);
  EXPECT_EQ(up.BuildBatch(2, {}, &rng).size(), 0u);
}

TEST(UploadPolicyTest, DpTimerUploadsOnlyOnSchedule) {
  UploadPolicyConfig cfg;
  cfg.kind = UploadPolicyKind::kDpTimerSync;
  cfg.eps_sync = 5.0;
  cfg.sync_interval = 3;
  OwnerUploader up(cfg, 4, false, 7);
  Rng rng(8);
  Word rid = 1;
  for (uint64_t t = 1; t <= 12; ++t) {
    const SharedRows batch = up.BuildBatch(t, Arrivals(t, 2, &rid), &rng);
    if (t % 3 != 0) {
      EXPECT_EQ(batch.size(), 0u) << t;
    }
  }
  EXPECT_DOUBLE_EQ(up.PolicyEpsilon(), 5.0);
}

TEST(UploadPolicyTest, DpTimerBatchSizeCentersOnPending) {
  UploadPolicyConfig cfg;
  cfg.kind = UploadPolicyKind::kDpTimerSync;
  cfg.eps_sync = 2.0;
  cfg.sync_interval = 1;
  OwnerUploader up(cfg, 4, false, 9);
  Rng rng(10);
  Word rid = 1;
  RunningStat sizes;
  for (uint64_t t = 1; t <= 4000; ++t) {
    const SharedRows batch = up.BuildBatch(t, Arrivals(t, 3, &rid), &rng);
    sizes.Add(static_cast<double>(batch.size()));
  }
  // Uploads 3/step on average (what arrives must eventually ship).
  EXPECT_NEAR(sizes.mean(), 3.0, 0.25);
  EXPECT_GT(sizes.stddev(), 0.3);  // DP noise visible in sizes
}

TEST(UploadPolicyTest, DpAntFiresOnBacklog) {
  UploadPolicyConfig cfg;
  cfg.kind = UploadPolicyKind::kDpAntSync;
  cfg.eps_sync = 4.0;
  cfg.sync_theta = 10;
  OwnerUploader up(cfg, 4, false, 11);
  Rng rng(12);
  Word rid = 1;
  uint64_t uploads = 0;
  for (uint64_t t = 1; t <= 300; ++t) {
    const SharedRows batch = up.BuildBatch(t, Arrivals(t, 2, &rid), &rng);
    if (!batch.empty()) ++uploads;
  }
  // ~2 records/step against theta 10: roughly every 5 steps.
  EXPECT_NEAR(static_cast<double>(uploads), 60.0, 30.0);
  EXPECT_LT(up.pending(), 60u);  // backlog keeps draining
}

TEST(UploadPolicyComposedTest, EngineComposesEpsilons) {
  IncShrinkConfig cfg = DefaultTpcDsConfig();
  cfg.strategy = Strategy::kDpTimer;
  cfg.upload_policy1.kind = UploadPolicyKind::kDpTimerSync;
  cfg.upload_policy1.eps_sync = 0.5;
  cfg.upload_policy1.sync_interval = 2;
  cfg.upload_policy2.kind = UploadPolicyKind::kDpTimerSync;
  cfg.upload_policy2.eps_sync = 0.25;
  cfg.upload_policy2.sync_interval = 2;

  TpcDsParams p;
  p.steps = 60;
  const GeneratedWorkload w = GenerateTpcDs(p);
  SynchronousDeployment deployment(cfg);
  ASSERT_TRUE(deployment.Run(w.t1, w.t2).ok());
  // eps_total = eps_view + max(owner policies) = 1.5 + 0.5.
  EXPECT_DOUBLE_EQ(deployment.engine().ComposedEpsilon(), 2.0);
  EXPECT_DOUBLE_EQ(deployment.owner1().PolicyEpsilon(), 0.5);
  EXPECT_DOUBLE_EQ(deployment.owner2().PolicyEpsilon(), 0.25);
  // The composed system still answers with bounded error.
  const RunSummary s = deployment.Summary();
  EXPECT_GT(s.updates, 2u);
  EXPECT_LT(s.l1_error.mean(),
            static_cast<double>(s.final_true_count));
}

TEST(UploadPolicyComposedTest, SimulatorStillReproducesTranscript) {
  // The SIM-CDP structural test must hold under DP upload policies too: the
  // upload sizes are themselves DP releases, and every other event size
  // derives from them.
  IncShrinkConfig cfg = DefaultTpcDsConfig();
  cfg.strategy = Strategy::kDpTimer;
  cfg.upload_policy1.kind = UploadPolicyKind::kDpTimerSync;
  cfg.upload_policy1.eps_sync = 1.0;
  cfg.upload_policy1.sync_interval = 2;

  TpcDsParams p;
  p.steps = 80;
  const GeneratedWorkload w = GenerateTpcDs(p);
  SynchronousDeployment deployment(cfg);
  ASSERT_TRUE(deployment.Run(w.t1, w.t2).ok());
  const Engine& engine = deployment.engine();
  const Transcript simulated =
      SimulateTranscript(engine.releases(), engine.MakeSimulatorParams());
  EXPECT_EQ(simulated, engine.transcript());
}

// ---------------------------------------------------------------------------
// Filter views (Appendix A.1.1 as a view definition)
// ---------------------------------------------------------------------------

IncShrinkConfig FilterConfig(Strategy strategy) {
  IncShrinkConfig cfg;
  cfg.eps = 1.5;
  cfg.omega = 1;
  cfg.budget_b = 1;
  cfg.view_kind = ViewKind::kFilter;
  cfg.filter = FilterSpec{100, 199};
  cfg.join.omega = 1;
  cfg.strategy = strategy;
  cfg.timer_T = 4;
  cfg.ant_theta = 6;
  cfg.flush_interval = 0;
  cfg.upload_rows_t1 = 4;
  cfg.upload_rows_t2 = 4;
  cfg.seed = 21;
  return cfg;
}

std::vector<std::vector<LogicalRecord>> FilterStream(uint64_t steps) {
  std::vector<std::vector<LogicalRecord>> t1(steps);
  Rng rng(22);
  Word rid = 1;
  for (uint64_t t = 0; t < steps; ++t) {
    const uint64_t n = rng.Uniform(4);
    for (uint64_t i = 0; i < n; ++i) {
      t1[t].push_back({t + 1, rid++, rid,
                       static_cast<Word>(t + 1),
                       static_cast<Word>(rng.Uniform(300))});
    }
  }
  return t1;
}

TEST(FilterViewTest, EpAnswersExactly) {
  const auto t1 = FilterStream(40);
  const std::vector<std::vector<LogicalRecord>> t2(40);
  SynchronousDeployment engine(FilterConfig(Strategy::kEp));
  ASSERT_TRUE(engine.Run(t1, t2).ok());
  const RunSummary s = engine.Summary();
  EXPECT_GT(s.final_true_count, 10u);
  EXPECT_DOUBLE_EQ(s.l1_error.max(), 0.0);
}

TEST(FilterViewTest, NmAnswersExactlyByScanningDs) {
  const auto t1 = FilterStream(40);
  const std::vector<std::vector<LogicalRecord>> t2(40);
  SynchronousDeployment engine(FilterConfig(Strategy::kNm));
  ASSERT_TRUE(engine.Run(t1, t2).ok());
  EXPECT_DOUBLE_EQ(engine.Summary().l1_error.max(), 0.0);
}

TEST(FilterViewTest, DpTimerTracksWithNoise) {
  const auto t1 = FilterStream(60);
  const std::vector<std::vector<LogicalRecord>> t2(60);
  SynchronousDeployment engine(FilterConfig(Strategy::kDpTimer));
  ASSERT_TRUE(engine.Run(t1, t2).ok());
  const RunSummary s = engine.Summary();
  EXPECT_GT(s.updates, 10u);
  EXPECT_LT(s.l1_error.mean(),
            0.5 * static_cast<double>(s.final_true_count));
}

TEST(FilterViewTest, TransformOutputSizeEqualsBatchSize) {
  SynchronousDeployment engine(FilterConfig(Strategy::kDpTimer));
  ASSERT_TRUE(engine.Step({{1, 1, 5, 1, 150}}, {}).ok());
  for (const auto& e : engine.transcript()) {
    if (e.kind == TranscriptEvent::Kind::kTransformOut) {
      EXPECT_EQ(e.rows, 4u);  // == upload_rows_t1
    }
  }
}

TEST(FilterViewTest, SimulatorReproducesFilterTranscript) {
  const auto t1 = FilterStream(48);
  const std::vector<std::vector<LogicalRecord>> t2(48);
  SynchronousDeployment deployment(FilterConfig(Strategy::kDpAnt));
  ASSERT_TRUE(deployment.Run(t1, t2).ok());
  const Engine& engine = deployment.engine();
  const Transcript simulated =
      SimulateTranscript(engine.releases(), engine.MakeSimulatorParams());
  EXPECT_EQ(simulated, engine.transcript());
}

// ---------------------------------------------------------------------------
// Privacy budget allocation (Appendix D.2)
// ---------------------------------------------------------------------------

OperatorSpec FilterOp(uint64_t rows, uint64_t out) {
  OperatorSpec op;
  op.kind = OperatorSpec::Kind::kFilter;
  op.input_rows1 = rows;
  op.output_rows = out;
  op.sensitivity = 1.0;
  op.releases = 20;
  return op;
}

OperatorSpec JoinOp(uint64_t rows1, uint64_t rows2, uint64_t out, double b) {
  OperatorSpec op;
  op.kind = OperatorSpec::Kind::kJoin;
  op.input_rows1 = rows1;
  op.input_rows2 = rows2;
  op.output_rows = out;
  op.sensitivity = b;
  op.releases = 20;
  return op;
}

TEST(AllocationTest, ExpectedDummiesShrinkWithEps) {
  EXPECT_GT(ExpectedDummyRows(10, 0.1, 20), ExpectedDummyRows(10, 1.0, 20));
  EXPECT_DOUBLE_EQ(ExpectedDummyRows(10, 1.0, 20), 100.0);
}

TEST(AllocationTest, EfficienciesIncreaseWithEps) {
  const OperatorSpec f = FilterOp(1000, 500);
  EXPECT_LT(FilterEfficiency(f, 0.01), FilterEfficiency(f, 1.0));
  EXPECT_LE(FilterEfficiency(f, 1.0), 1.0);
  const OperatorSpec j = JoinOp(1000, 1000, 800, 10);
  EXPECT_LT(JoinEfficiency(j, 0.01), JoinEfficiency(j, 1.0));
}

TEST(AllocationTest, QueryEfficiencyWeightsByCardinality) {
  // A dominant operator (most output rows) should dominate E_Q.
  const std::vector<OperatorSpec> ops = {FilterOp(100, 10),
                                         JoinOp(5000, 5000, 990, 10)};
  const double eq_bad_join = QueryEfficiency(ops, {1.9, 0.1});
  const double eq_good_join = QueryEfficiency(ops, {0.1, 1.9});
  EXPECT_GT(eq_good_join, eq_bad_join);
}

TEST(AllocationTest, OptimizerRespectsBudgetAndImprovesUniform) {
  const std::vector<OperatorSpec> ops = {FilterOp(200, 50),
                                         JoinOp(4000, 4000, 950, 10)};
  const double eps_total = 2.0;
  const AllocationResult r =
      OptimizePrivacyAllocation(ops, eps_total, /*lg_total=*/1e9);
  ASSERT_TRUE(r.feasible);
  double sum = 0;
  for (double e : r.eps) {
    EXPECT_GE(e, 0.0);
    sum += e;
  }
  EXPECT_NEAR(sum, eps_total, 1e-9);
  const double uniform =
      QueryEfficiency(ops, {eps_total / 2, eps_total / 2});
  EXPECT_GE(r.efficiency, uniform - 1e-12);
  // The big join deserves the bigger slice.
  EXPECT_GT(r.eps[1], r.eps[0]);
}

TEST(AllocationTest, InfeasibleGapBudgetReported) {
  const std::vector<OperatorSpec> ops = {JoinOp(100, 100, 100, 50)};
  const AllocationResult r =
      OptimizePrivacyAllocation(ops, /*eps_total=*/0.01, /*lg_total=*/1.0);
  EXPECT_FALSE(r.feasible);
}

TEST(AllocationTest, GapConstraintShiftsBudget) {
  // Two identical joins, but one has a tight gap requirement via higher
  // sensitivity; the optimizer must keep the total gap under budget.
  std::vector<OperatorSpec> ops = {JoinOp(1000, 1000, 500, 2),
                                   JoinOp(1000, 1000, 500, 40)};
  const AllocationResult r =
      OptimizePrivacyAllocation(ops, 2.0, /*lg_total=*/2500.0);
  ASSERT_TRUE(r.feasible);
  const double gap = OperatorLogicalGap(ops[0], r.eps[0], 0.05) +
                     OperatorLogicalGap(ops[1], r.eps[1], 0.05);
  EXPECT_LE(gap, 2500.0 + 1e-6);
  EXPECT_GT(r.eps[1], r.eps[0]);  // the sensitive join needs more budget
}

// ---------------------------------------------------------------------------
// Multi-level pipeline (Section 8, complex query workloads)
// ---------------------------------------------------------------------------

struct PipelineStream {
  std::vector<std::vector<LogicalRecord>> t1;
  std::vector<std::vector<LogicalRecord>> t2;
  uint64_t expected_pairs = 0;
};

/// T1 records carry a payload; only payload >= 100 passes the filter. Every
/// filtered record is joined by one T2 record two steps later.
PipelineStream MakePipelineStream(uint64_t steps) {
  PipelineStream s;
  s.t1.resize(steps);
  s.t2.resize(steps);
  Rng rng(31);
  Word rid = 1, key = 1;
  for (uint64_t t = 0; t + 4 < steps; ++t) {
    for (int i = 0; i < 2; ++i) {
      const bool passes = rng.Bernoulli(0.5);
      const Word k = key++;
      s.t1[t].push_back({t + 1, rid++, k, static_cast<Word>(t + 1),
                         passes ? 150u : 50u});
      s.t2[t + 2].push_back(
          {t + 3, rid++, k, static_cast<Word>(t + 3), 0});
      if (passes) ++s.expected_pairs;
    }
  }
  return s;
}

MultiLevelPipeline::Config PipelineConfig() {
  MultiLevelPipeline::Config cfg;
  cfg.eps1 = 20;  // near-exact stages isolate the plumbing under test
  cfg.eps2 = 20;
  cfg.filter = FilterSpec{100, 0xFFFFFFFF};
  cfg.join = JoinSpec{0, 10, true, 1, true, true};
  cfg.omega = 1;
  cfg.budget_b = 10;
  cfg.window_steps = 8;
  cfg.timer_T1 = 2;
  cfg.timer_T2 = 3;
  cfg.upload_rows_t1 = 4;
  cfg.upload_rows_t2 = 4;
  return cfg;
}

TEST(MultiLevelPipelineTest, TracksFilteredJoinTruth) {
  const PipelineStream s = MakePipelineStream(40);
  MultiLevelPipeline pipeline(PipelineConfig());
  for (size_t i = 0; i < s.t1.size(); ++i) {
    ASSERT_TRUE(pipeline.Step(s.t1[i], s.t2[i]).ok()) << i;
  }
  const RunSummary sum = pipeline.Summary();
  EXPECT_EQ(sum.final_true_count, s.expected_pairs);
  EXPECT_GT(sum.final_true_count, 10u);
  // With eps = 20 per stage the pipeline lag is the only error source.
  const auto& last = pipeline.step_metrics().back();
  EXPECT_NEAR(static_cast<double>(last.view_answer),
              static_cast<double>(last.true_count),
              12.0);
  EXPECT_GT(sum.updates, 5u);
  EXPECT_GT(pipeline.v1().size(), 0u);
  EXPECT_GT(pipeline.v2().size(), 0u);
}

TEST(MultiLevelPipelineTest, StageBudgetsAffectAccuracy) {
  // Starving stage 1 (tiny eps1) must hurt accuracy relative to a balanced
  // allocation — the effect the D.2 optimizer exploits.
  const PipelineStream s = MakePipelineStream(48);
  auto run = [&](double eps1, double eps2) {
    MultiLevelPipeline::Config cfg = PipelineConfig();
    cfg.eps1 = eps1;
    cfg.eps2 = eps2;
    MultiLevelPipeline pipeline(cfg);
    for (size_t i = 0; i < s.t1.size(); ++i) {
      EXPECT_TRUE(pipeline.Step(s.t1[i], s.t2[i]).ok());
    }
    return pipeline.Summary().l1_error.mean();
  };
  double starved = 0, balanced = 0;
  for (int i = 0; i < 3; ++i) {
    starved += run(0.02, 3.98);
    balanced += run(2.0, 2.0);
  }
  EXPECT_GT(starved, balanced);
}

TEST(MultiLevelPipelineTest, ViewSizesStayDpSized) {
  const PipelineStream s = MakePipelineStream(40);
  MultiLevelPipeline::Config cfg = PipelineConfig();
  cfg.eps1 = 1.0;
  cfg.eps2 = 1.0;
  MultiLevelPipeline pipeline(cfg);
  for (size_t i = 0; i < s.t1.size(); ++i) {
    ASSERT_TRUE(pipeline.Step(s.t1[i], s.t2[i]).ok());
  }
  // V2 stays far below the exhaustive bound (40 steps * padded outputs).
  EXPECT_LT(pipeline.v2().size(), 40u * 4u * 10u);
}

}  // namespace
}  // namespace incshrink
