// Dedicated coverage for two previously untested surfaces:
//
//   1. Engine::AnswerAdHocQuery — the KI-3 claim that a rich class of
//      rewritten selections (date-range / key restrictions) is answerable
//      from the materialized view alone: empty-view behavior, out-of-window
//      ranges, and exact partition identities of the oblivious counts.
//
//   2. MultiLevelPipeline overflow handling — the owners' fixed-size upload
//      batches buffer arrival bursts in overflow1_/overflow2_ and drain
//      them over subsequent steps; no logical record may be dropped.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/engine.h"
#include "src/core/owner_client.h"
#include "src/core/multilevel.h"
#include "src/oblivious/formats.h"
#include "src/workload/generators.h"

namespace incshrink {
namespace {

// ---------------------------------------------------------------------------
// Engine::AnswerAdHocQuery
// ---------------------------------------------------------------------------

GeneratedWorkload AdHocWorkload() {
  TpcDsParams p;
  p.steps = 40;
  p.seed = 55;
  return GenerateTpcDs(p);
}

TEST(AdHocQueryTest, EmptyViewAnswersZeroBeforeAnyStep) {
  SynchronousDeployment deployment(DefaultTpcDsConfig());
  Engine& engine = deployment.engine();
  const Engine::AdHocResult r = engine.AnswerAdHocQuery(AnalystQuery::CountAll());
  EXPECT_EQ(r.answer, 0u);
  EXPECT_EQ(engine.AdHocTruth(AnalystQuery::CountAll()), 0u);
  EXPECT_GE(r.query_seconds, 0.0);
}

TEST(AdHocQueryTest, EmptyViewAnswersZeroWhileTruthGrows) {
  // A timer that never fires (and no cache flush) keeps the view empty for
  // the whole run: the server's answer stays 0 while ground truth grows.
  const GeneratedWorkload w = AdHocWorkload();
  IncShrinkConfig cfg = DefaultTpcDsConfig();
  cfg.timer_T = 100000;
  cfg.flush_interval = 0;
  SynchronousDeployment deployment(cfg);
  ASSERT_TRUE(deployment.Run(w.t1, w.t2).ok());
  Engine& engine = deployment.engine();
  ASSERT_EQ(engine.view().size(), 0u);
  const Engine::AdHocResult r = engine.AnswerAdHocQuery(AnalystQuery::CountAll());
  EXPECT_EQ(r.answer, 0u);
  EXPECT_EQ(engine.AdHocTruth(AnalystQuery::CountAll()),
            w.total_view_entries);
}

TEST(AdHocQueryTest, OutOfWindowDateRangeAnswersExactZero) {
  // Generated dates stay below steps + window; a far-future range matches
  // neither truth pairs nor any real view row, and dummy rows never count
  // (isView = 0) — so the oblivious answer is exactly 0, not merely small.
  const GeneratedWorkload w = AdHocWorkload();
  SynchronousDeployment deployment(DefaultTpcDsConfig());
  ASSERT_TRUE(deployment.Run(w.t1, w.t2).ok());
  Engine& engine = deployment.engine();
  ASSERT_GT(engine.view().size(), 0u);
  const AnalystQuery far = AnalystQuery::CountDateRange(1u << 20, 1u << 21);
  EXPECT_EQ(engine.AnswerAdHocQuery(far).answer, 0u);
  EXPECT_EQ(engine.AdHocTruth(far), 0u);
}

TEST(AdHocQueryTest, CountAllMatchesStandingQueryAnswer) {
  const GeneratedWorkload w = AdHocWorkload();
  SynchronousDeployment deployment(DefaultTpcDsConfig());
  ASSERT_TRUE(deployment.Run(w.t1, w.t2).ok());
  Engine& engine = deployment.engine();
  const Engine::AdHocResult all = engine.AnswerAdHocQuery(AnalystQuery::CountAll());
  // Same view, same oblivious count: must agree with the last step's
  // standing COUNT(*) answer and with the exact stream truth.
  EXPECT_EQ(all.answer, engine.step_metrics().back().view_answer);
  EXPECT_EQ(engine.AdHocTruth(AnalystQuery::CountAll()), w.total_view_entries);
}

TEST(AdHocQueryTest, DateRangePartitionIsExact) {
  // Every real view row has one T2-side date, so splitting the full date
  // domain partitions both the oblivious answer and the truth exactly.
  const GeneratedWorkload w = AdHocWorkload();
  SynchronousDeployment deployment(DefaultTpcDsConfig());
  ASSERT_TRUE(deployment.Run(w.t1, w.t2).ok());
  Engine& engine = deployment.engine();
  const Word mid = 20;
  const AnalystQuery q_all = AnalystQuery::CountAll();
  const AnalystQuery q_lo = AnalystQuery::CountDateRange(0, mid);
  const AnalystQuery q_hi = AnalystQuery::CountDateRange(mid + 1, 0xFFFFFFFFu);
  EXPECT_EQ(engine.AnswerAdHocQuery(q_lo).answer +
                engine.AnswerAdHocQuery(q_hi).answer,
            engine.AnswerAdHocQuery(q_all).answer);
  EXPECT_EQ(engine.AdHocTruth(q_lo) + engine.AdHocTruth(q_hi),
            engine.AdHocTruth(q_all));
  EXPECT_GT(engine.AdHocTruth(q_all), 0u);
}

TEST(AdHocQueryTest, KeyEqualsRestrictionsAreConsistent) {
  const GeneratedWorkload w = AdHocWorkload();
  SynchronousDeployment deployment(DefaultTpcDsConfig());
  ASSERT_TRUE(deployment.Run(w.t1, w.t2).ok());
  Engine& engine = deployment.engine();
  const Engine::AdHocResult all = engine.AnswerAdHocQuery(AnalystQuery::CountAll());
  // TPC-ds keys have join multiplicity 1: every per-key slice answers 0 or
  // 1, and an absent key answers exactly 0.
  uint64_t matched = 0;
  for (Word key = 1; key <= 30; ++key) {
    const AnalystQuery q = AnalystQuery::CountKeyEquals(key);
    const Engine::AdHocResult r = engine.AnswerAdHocQuery(q);
    EXPECT_LE(r.answer, 1u);
    EXPECT_LE(engine.AdHocTruth(q), 1u);
    matched += r.answer;
  }
  EXPECT_LE(matched, all.answer);
  const AnalystQuery q_absent = AnalystQuery::CountKeyEquals(0x7FFFFFF0u);
  EXPECT_EQ(engine.AnswerAdHocQuery(q_absent).answer, 0u);
  EXPECT_EQ(engine.AdHocTruth(q_absent), 0u);
}

// ---------------------------------------------------------------------------
// MultiLevelPipeline overflow draining
// ---------------------------------------------------------------------------

MultiLevelPipeline::Config OverflowConfig() {
  MultiLevelPipeline::Config cfg;
  cfg.eps1 = 20;  // near-exact DP so draining is the only effect under test
  cfg.eps2 = 20;
  cfg.filter = FilterSpec{100, 0xFFFFFFFF};
  cfg.join = JoinSpec{0, 10, true, 1, true, true};
  cfg.omega = 1;
  cfg.budget_b = 10;
  cfg.window_steps = 8;
  cfg.timer_T1 = 2;
  cfg.timer_T2 = 3;
  cfg.upload_rows_t1 = 2;  // burst capacity: bursts must queue in overflow
  cfg.upload_rows_t2 = 2;
  return cfg;
}

/// Counts real (isView = 1) rows in a recovered view.
uint64_t CountRealRows(const MaterializedView& view) {
  uint64_t real = 0;
  const SharedRows& rows = view.rows();
  for (size_t r = 0; r < rows.size(); ++r) {
    real += rows.RecoverRow(r)[kViewIsViewCol] & 1;
  }
  return real;
}

TEST(MultiLevelOverflowTest, BurstOnT1DrainsWithoutRecordLoss) {
  // 6 filter-passing records arrive in step 1 against an upload capacity of
  // 2 rows/step: 4 must queue in overflow1_ and drain over steps 2-3. With
  // near-exact DP every one of them must eventually reach V1.
  MultiLevelPipeline pipeline(OverflowConfig());
  std::vector<LogicalRecord> burst;
  for (Word i = 0; i < 6; ++i) {
    burst.push_back({1, /*rid=*/100 + i, /*key=*/200 + i, /*date=*/1,
                     /*payload=*/500});
  }
  ASSERT_TRUE(pipeline.Step(burst, {}).ok());
  for (int t = 0; t < 29; ++t) {
    ASSERT_TRUE(pipeline.Step({}, {}).ok());
  }
  EXPECT_EQ(CountRealRows(pipeline.v1()), 6u);
}

TEST(MultiLevelOverflowTest, WithoutBurstSameRecordsArriveDirectly) {
  // Control: the same 6 records spread at <= capacity arrive without ever
  // touching the overflow queue and produce the same V1 content count.
  MultiLevelPipeline pipeline(OverflowConfig());
  Word i = 0;
  for (int t = 0; t < 3; ++t) {
    std::vector<LogicalRecord> two;
    for (int k = 0; k < 2; ++k, ++i) {
      two.push_back({static_cast<uint64_t>(t + 1), 100 + i, 200 + i, 1, 500});
    }
    ASSERT_TRUE(pipeline.Step(two, {}).ok());
  }
  for (int t = 0; t < 27; ++t) {
    ASSERT_TRUE(pipeline.Step({}, {}).ok());
  }
  EXPECT_EQ(CountRealRows(pipeline.v1()), 6u);
}

TEST(MultiLevelOverflowTest, BurstOnT2DrainsThroughJoin) {
  // T2-side burst: 2 allegations with 3 awards each (6 award records) hit
  // the 2-row T2 capacity in one step, so 4 awards queue in overflow2_.
  // The first upload batch carries only allegation #0's first two awards —
  // any view answer above 2 proves drained awards joined downstream.
  MultiLevelPipeline::Config cfg = OverflowConfig();
  cfg.omega = 4;  // join multiplicity is 3 here; don't truncate true pairs
  MultiLevelPipeline pipeline(cfg);
  std::vector<LogicalRecord> t1;
  std::vector<LogicalRecord> t2;
  for (Word a = 0; a < 2; ++a) {
    t1.push_back({1, 10 + a, 40 + a, 1, 500});  // passes the filter
    for (Word j = 0; j < 3; ++j) {
      t2.push_back({1, 20 + 3 * a + j, 40 + a, 2, 0});
    }
  }
  ASSERT_TRUE(pipeline.Step(t1, t2).ok());
  for (int t = 0; t < 35; ++t) {
    ASSERT_TRUE(pipeline.Step({}, {}).ok());
  }
  const StepMetrics& last = pipeline.step_metrics().back();
  EXPECT_EQ(last.true_count, 6u);
  EXPECT_GE(last.view_answer, 3u);  // > 2 is only reachable via overflow2_
  EXPECT_LE(last.view_answer, 6u);
}

TEST(MultiLevelOverflowTest, SustainedOverCapacityStreamKeepsDraining) {
  // 3 arrivals/step against capacity 2: the overflow queue grows during the
  // feed phase and fully drains during the quiet tail; nothing is lost.
  MultiLevelPipeline pipeline(OverflowConfig());
  Word i = 0;
  for (int t = 0; t < 8; ++t) {
    std::vector<LogicalRecord> three;
    for (int k = 0; k < 3; ++k, ++i) {
      three.push_back(
          {static_cast<uint64_t>(t + 1), 1000 + i, 2000 + i, 1, 500});
    }
    ASSERT_TRUE(pipeline.Step(three, {}).ok());
  }
  // 24 records total, 16 uploaded during the feed; 8 queued. Drain.
  for (int t = 0; t < 30; ++t) {
    ASSERT_TRUE(pipeline.Step({}, {}).ok());
  }
  EXPECT_EQ(CountRealRows(pipeline.v1()), 24u);
}

}  // namespace
}  // namespace incshrink
