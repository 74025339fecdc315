#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/owner_client.h"
#include "src/dp/composition.h"
#include "src/workload/generators.h"

namespace incshrink {
namespace {

// ---------------------------------------------------------------------------
// Composition calculators (Section 4.2 / Section 8)
// ---------------------------------------------------------------------------

TEST(CompositionTest, SequentialSums) {
  EXPECT_DOUBLE_EQ(SequentialComposition({}), 0.0);
  EXPECT_DOUBLE_EQ(SequentialComposition({0.5, 1.0, 0.25}), 1.75);
}

TEST(CompositionTest, ParallelTakesMax) {
  EXPECT_DOUBLE_EQ(ParallelComposition({0.5, 1.0, 0.25}), 1.0);
  EXPECT_DOUBLE_EQ(ParallelComposition({}), 0.0);
}

TEST(CompositionTest, GroupPrivacyScalesLinearly) {
  EXPECT_DOUBLE_EQ(UserLevelEpsilon(1.5, 1), 1.5);
  EXPECT_DOUBLE_EQ(UserLevelEpsilon(1.5, 4), 6.0);
}

TEST(CompositionTest, StabilityRule) {
  // Lemma 2: eps/b mechanism over a b-stable transformation = eps total.
  EXPECT_DOUBLE_EQ(StableTransformationEpsilon(1.5 / 10, 10), 1.5);
}

TEST(CompositionTest, RecordLevelSumsInvocations) {
  // Theorem 3: a record influencing 3 invocations of a 1-stable transform,
  // each released at eps = 0.15, loses 0.45.
  EXPECT_DOUBLE_EQ(RecordLevelEpsilon({1, 1, 1}, {0.15, 0.15, 0.15}), 0.45);
}

TEST(CompositionTest, DeploymentBudget) {
  DeploymentBudget budget;
  budget.view_update_eps = 1.5;
  budget.owner_policy_eps = 0.5;
  budget.max_updates_per_user = 3;
  EXPECT_DOUBLE_EQ(budget.EventLevel(), 2.0);
  EXPECT_DOUBLE_EQ(budget.UserLevel(), 6.0);
}

// ---------------------------------------------------------------------------
// Ad-hoc view-based query answering (KI-1 / KI-3)
// ---------------------------------------------------------------------------

class AdHocQueryTest : public ::testing::Test {
 protected:
  AdHocQueryTest() {
    TpcDsParams p;
    p.steps = 100;
    workload_ = GenerateTpcDs(p);
  }

  SynchronousDeployment MakeDeployment(Strategy strategy) {
    IncShrinkConfig cfg = DefaultTpcDsConfig();
    cfg.strategy = strategy;
    return SynchronousDeployment(cfg);
  }

  GeneratedWorkload workload_;
};

TEST_F(AdHocQueryTest, EpAnswersAdHocExactly) {
  SynchronousDeployment deployment = MakeDeployment(Strategy::kEp);
  ASSERT_TRUE(deployment.Run(workload_.t1, workload_.t2).ok());
  Engine& engine = deployment.engine();

  const AnalystQuery q_all = AnalystQuery::CountAll();
  const uint64_t all_truth = engine.AdHocTruth(q_all);
  EXPECT_EQ(engine.AnswerAdHocQuery(q_all).answer, all_truth);
  EXPECT_GT(all_truth, 100u);

  // Date-range restriction: returns recorded in the first half of the run.
  const AnalystQuery q_range = AnalystQuery::CountDateRange(0, 50);
  const uint64_t range_truth = engine.AdHocTruth(q_range);
  EXPECT_EQ(engine.AnswerAdHocQuery(q_range).answer, range_truth);
  EXPECT_LT(range_truth, all_truth);
  EXPECT_GT(range_truth, 0u);

  // An empty range must answer zero.
  const AnalystQuery q_empty =
      AnalystQuery::CountDateRange(4000000000u, 4000000001u);
  EXPECT_EQ(engine.AnswerAdHocQuery(q_empty).answer, 0u);
  EXPECT_EQ(engine.AdHocTruth(q_empty), 0u);
}

TEST_F(AdHocQueryTest, KeyEqualsQueries) {
  SynchronousDeployment deployment = MakeDeployment(Strategy::kEp);
  ASSERT_TRUE(deployment.Run(workload_.t1, workload_.t2).ok());
  Engine& engine = deployment.engine();
  // Find a key that actually joined.
  ASSERT_FALSE(workload_.t2.empty());
  Word key = 0;
  for (const auto& step : workload_.t2) {
    if (!step.empty()) {
      key = step.front().key;
      break;
    }
  }
  ASSERT_NE(key, 0u);
  const AnalystQuery q_key = AnalystQuery::CountKeyEquals(key);
  EXPECT_EQ(engine.AnswerAdHocQuery(q_key).answer, engine.AdHocTruth(q_key));
  EXPECT_EQ(engine.AdHocTruth(q_key), 1u);  // multiplicity-1 stream
}

TEST_F(AdHocQueryTest, DpViewAnswersWithBoundedError) {
  SynchronousDeployment deployment = MakeDeployment(Strategy::kDpTimer);
  ASSERT_TRUE(deployment.Run(workload_.t1, workload_.t2).ok());
  Engine& engine = deployment.engine();
  const AnalystQuery q_all = AnalystQuery::CountAll();
  const uint64_t all_answer = engine.AnswerAdHocQuery(q_all).answer;
  // Deferred data only: the view answer must undershoot by a bounded amount
  // and never exceed the truth.
  EXPECT_LE(all_answer, engine.AdHocTruth(q_all));
  EXPECT_GT(all_answer, engine.AdHocTruth(q_all) / 2);
  const AnalystQuery q_range = AnalystQuery::CountDateRange(0, 60);
  EXPECT_LE(engine.AnswerAdHocQuery(q_range).answer,
            engine.AdHocTruth(q_range));
}

TEST_F(AdHocQueryTest, AdHocQueriesChargeQet) {
  SynchronousDeployment deployment = MakeDeployment(Strategy::kEp);
  ASSERT_TRUE(deployment.Run(workload_.t1, workload_.t2).ok());
  Engine& engine = deployment.engine();
  const auto r = engine.AnswerAdHocQuery(AnalystQuery::CountAll());
  EXPECT_GT(r.query_seconds, 0.0);
}

TEST(RewriteTest, PredicatesMatchViewColumns) {
  // Directly exercise the rewriting on raw rows.
  std::vector<Word> row(kViewWidth, 0);
  row[kViewKeyCol] = 42;
  row[kViewDate2Col] = 100;
  EXPECT_TRUE(RewriteToViewPredicate(AnalystQuery::CountAll()).Matches(row));
  EXPECT_TRUE(RewriteToViewPredicate(AnalystQuery::CountDateRange(50, 150))
                  .Matches(row));
  EXPECT_FALSE(RewriteToViewPredicate(AnalystQuery::CountDateRange(101, 150))
                   .Matches(row));
  EXPECT_TRUE(
      RewriteToViewPredicate(AnalystQuery::CountKeyEquals(42)).Matches(row));
  EXPECT_FALSE(
      RewriteToViewPredicate(AnalystQuery::CountKeyEquals(43)).Matches(row));
}

}  // namespace
}  // namespace incshrink
