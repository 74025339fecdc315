#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/relational/encode.h"
#include "src/relational/growing_table.h"
#include "src/relational/query.h"
#include "src/relational/schema.h"
#include "tests/truth_oracle.h"

namespace incshrink {
namespace {

TEST(SchemaTest, ColumnsAndLookup) {
  Schema s({{"pid", ColumnType::kId},
            {"sale_date", ColumnType::kDate},
            {"amount", ColumnType::kUInt32}});
  EXPECT_EQ(s.num_columns(), 3u);
  EXPECT_EQ(s.name(1), "sale_date");
  EXPECT_EQ(s.type(0), ColumnType::kId);
  ASSERT_TRUE(s.IndexOf("amount").ok());
  EXPECT_EQ(*s.IndexOf("amount"), 2u);
  EXPECT_EQ(s.IndexOf("missing").status().code(), StatusCode::kNotFound);
}

TEST(WindowJoinQueryTest, MatchSemantics) {
  WindowJoinQuery q{0, 10, true};
  LogicalRecord a{1, 1, 7, 100, 0};
  LogicalRecord b{1, 2, 7, 105, 0};
  EXPECT_TRUE(q.Matches(a, b));
  b.date = 111;
  EXPECT_FALSE(q.Matches(a, b));  // delta 11 > 10
  b.date = 99;
  EXPECT_FALSE(q.Matches(a, b));  // negative delta
  b.date = 105;
  b.key = 8;
  EXPECT_FALSE(q.Matches(a, b));  // key mismatch
  WindowJoinQuery no_window{0, 10, false};
  b.key = 7;
  b.date = 5000;
  EXPECT_TRUE(no_window.Matches(a, b));
}

class WindowJoinCounterTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WindowJoinCounterTest, IncrementalMatchesFullRecount) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  WindowJoinQuery q{0, 10, true};
  WindowJoinCounter counter(q);
  std::vector<LogicalRecord> all1, all2;
  Word rid = 1;
  for (uint64_t t = 1; t <= 40; ++t) {
    std::vector<LogicalRecord> n1, n2;
    const uint64_t c1 = rng.Uniform(5);
    const uint64_t c2 = rng.Uniform(5);
    for (uint64_t i = 0; i < c1; ++i) {
      n1.push_back({t, rid++, 1 + static_cast<Word>(rng.Uniform(10)),
                    static_cast<Word>(t + rng.Uniform(3)), 0});
    }
    for (uint64_t i = 0; i < c2; ++i) {
      n2.push_back({t, rid++, 1 + static_cast<Word>(rng.Uniform(10)),
                    static_cast<Word>(t + rng.Uniform(12)), 0});
    }
    counter.Step(n1, n2);
    all1.insert(all1.end(), n1.begin(), n1.end());
    all2.insert(all2.end(), n2.begin(), n2.end());
    ASSERT_EQ(counter.count(), CountFull(q, all1, all2)) << "step " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowJoinCounterTest,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 99));

TEST(WindowJoinCounterTest, SameStepPairsCountedOnce) {
  WindowJoinQuery q{0, 10, true};
  WindowJoinCounter counter(q);
  // One matching pair arriving in the same step.
  counter.Step({{1, 1, 7, 100, 0}}, {{1, 2, 7, 103, 0}});
  EXPECT_EQ(counter.count(), 1u);
  // A later record joining the old one.
  counter.Step({}, {{2, 3, 7, 104, 0}});
  EXPECT_EQ(counter.count(), 2u);
}

/// A date the workload generators never produce: near 0, within 12 of the
/// largest date, or on a base that falls as the steps advance.
Word AdversarialDate(Rng* rng, uint64_t t) {
  switch (rng->Uniform(3)) {
    case 0:
      return static_cast<Word>(rng->Uniform(16));
    case 1:
      return 0xFFFFFFFFu - static_cast<Word>(rng->Uniform(13));
    default:
      return static_cast<Word>(1000 - 7 * t + rng->Uniform(20));
  }
}

TEST(WindowJoinCounterTest, RunsMatchBruteForceOnAdversarialInputs) {
  // Dates that go backwards across steps or sit at either end of the date
  // range, windows that start above 0, are empty or are switched off, empty
  // steps and a key domain of 4: count() and every ad-hoc count must equal
  // the brute-force oracle after every step.
  Rng rng(3000);
  for (int trial = 0; trial < 3000; ++trial) {
    WindowJoinQuery q;
    q.window_lo = static_cast<Word>(rng.Uniform(4));
    q.window_hi = q.window_lo + static_cast<Word>(rng.Uniform(12));
    if (rng.Uniform(16) == 0) {  // an empty window
      q.window_lo = 3;
      q.window_hi = 1;
    }
    q.use_window = rng.Uniform(5) != 0;
    WindowJoinCounter counter(q);
    std::vector<LogicalRecord> all1, all2;
    Word rid = 1;
    const uint64_t steps = 1 + rng.Uniform(12);
    for (uint64_t t = 1; t <= steps; ++t) {
      std::vector<LogicalRecord> n1, n2;
      for (std::vector<LogicalRecord>* side : {&n1, &n2}) {
        const uint64_t n = rng.Uniform(3) == 0 ? 0 : rng.Uniform(7);
        for (uint64_t i = 0; i < n; ++i) {
          side->push_back({t, rid++, static_cast<Word>(rng.Uniform(4)),
                           AdversarialDate(&rng, t), 0});
        }
      }
      counter.Step(n1, n2);
      all1.insert(all1.end(), n1.begin(), n1.end());
      all2.insert(all2.end(), n2.begin(), n2.end());
      const std::vector<OraclePair> pairs = OraclePairs(q, all1, all2);
      ASSERT_EQ(counter.count(), pairs.size())
          << "trial " << trial << " step " << t;
      Word lo = AdversarialDate(&rng, t);
      Word hi = AdversarialDate(&rng, t);
      if (rng.Uniform(4) != 0 && lo > hi) std::swap(lo, hi);
      for (const AnalystQuery& query :
           {AnalystQuery::CountAll(), AnalystQuery::CountDateRange(lo, hi),
            AnalystQuery::CountDateRange(0, 0xFFFFFFFFu),
            AnalystQuery::CountKeyEquals(static_cast<Word>(rng.Uniform(5)))}) {
        ASSERT_EQ(AdHocJoinTruth(counter, query),
                  OracleAdHocCount(pairs, query))
            << "trial " << trial << " step " << t << " kind "
            << static_cast<int>(query.kind);
      }
    }
  }
}

TEST(EncodeTest, SourceRowRoundTrip) {
  LogicalRecord rec{3, 42, 1234, 99, 777};
  const Row row = EncodeSourceRow(rec);
  EXPECT_EQ(row.size(), kSrcWidth);
  EXPECT_EQ(row[kSrcValidCol], 1u);
  EXPECT_EQ(row[kSrcKeyCol], 1234u);
  EXPECT_EQ(row[kSrcDateCol], 99u);
  EXPECT_EQ(row[kSrcRidCol], 42u);
  EXPECT_EQ(row[kSrcPayloadCol], 777u);
}

TEST(EncodeTest, DummyRowsAreInvalidWithHighKeys) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const Row d = MakeDummySourceRow(&rng);
    EXPECT_EQ(d[kSrcValidCol], 0u);
    EXPECT_GE(d[kSrcKeyCol], 0x40000000u);  // above the real key space
    EXPECT_LT(d[kSrcKeyCol], 0x80000000u);  // fits the composite sort key
  }
}

}  // namespace
}  // namespace incshrink
