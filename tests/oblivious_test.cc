#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/mpc/party.h"
#include "src/mpc/protocol.h"
#include "src/oblivious/cache_ops.h"
#include "src/oblivious/filter.h"
#include "src/oblivious/formats.h"
#include "src/oblivious/join.h"
#include "src/oblivious/sort.h"
#include "src/relational/encode.h"
#include "src/relational/query.h"
#include "tests/truth_oracle.h"

namespace incshrink {
namespace {

class ObliviousTest : public ::testing::Test {
 protected:
  ObliviousTest()
      : s0_(0, 11), s1_(1, 22), proto_(&s0_, &s1_, CostModel::EmpLikeLan()) {}
  Party s0_;
  Party s1_;
  Protocol2PC proto_;
  Rng rng_{33};
};

// ---------------------------------------------------------------------------
// Oblivious sort
// ---------------------------------------------------------------------------

class ObliviousSortSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ObliviousSortSizeTest, SortsArbitraryLengths) {
  const size_t n = GetParam();
  Party s0(0, n + 1), s1(1, n + 2);
  Protocol2PC proto(&s0, &s1, CostModel::Free());
  Rng rng(n + 3);

  SharedRows rows(2);
  std::vector<Word> keys;
  for (size_t i = 0; i < n; ++i) {
    const Word k = rng.Next32() % 1000;
    keys.push_back(k);
    rows.AppendSecretRow({k, static_cast<Word>(i)}, &rng);
  }
  ObliviousSort(&proto, &rows, 0, /*ascending=*/true);
  std::sort(keys.begin(), keys.end());
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(rows.RecoverAt(i, 0), keys[i]);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ObliviousSortSizeTest,
                         ::testing::Values(0, 1, 2, 3, 5, 7, 8, 15, 16, 17,
                                           31, 33, 64, 100, 127, 255, 1000));

TEST_F(ObliviousTest, SortDescending) {
  SharedRows rows(1);
  for (Word k : {5u, 1u, 9u, 3u}) rows.AppendSecretRow({k}, &rng_);
  ObliviousSort(&proto_, &rows, 0, /*ascending=*/false);
  EXPECT_EQ(rows.RecoverAt(0, 0), 9u);
  EXPECT_EQ(rows.RecoverAt(3, 0), 1u);
}

TEST_F(ObliviousTest, SortMovesWholeRows) {
  SharedRows rows(3);
  rows.AppendSecretRow({3, 300, 301}, &rng_);
  rows.AppendSecretRow({1, 100, 101}, &rng_);
  rows.AppendSecretRow({2, 200, 201}, &rng_);
  ObliviousSort(&proto_, &rows, 0, true);
  EXPECT_EQ(rows.RecoverRow(0), (std::vector<Word>{1, 100, 101}));
  EXPECT_EQ(rows.RecoverRow(1), (std::vector<Word>{2, 200, 201}));
  EXPECT_EQ(rows.RecoverRow(2), (std::vector<Word>{3, 300, 301}));
}

TEST(SortNetworkTest, CompareExchangeCountIsDataIndependentFormula) {
  // n log^2 n / 4 asymptotics, exact counts fixed per n.
  EXPECT_EQ(SortNetworkCompareExchanges(0), 0u);
  EXPECT_EQ(SortNetworkCompareExchanges(1), 0u);
  EXPECT_EQ(SortNetworkCompareExchanges(2), 1u);
  const uint64_t c1000 = SortNetworkCompareExchanges(1000);
  EXPECT_GT(c1000, 1000u);           // superlinear
  EXPECT_LT(c1000, 1000u * 100u);    // subquadratic
}

TEST(SortObliviousnessTest, GateTraceIndependentOfData) {
  // The defining property: two inputs of the same public size produce the
  // exact same circuit statistics.
  CircuitStats traces[2];
  for (int variant = 0; variant < 2; ++variant) {
    Party s0(0, 1), s1(1, 2);
    Protocol2PC proto(&s0, &s1, CostModel::EmpLikeLan());
    Rng rng(50 + variant * 1000);
    SharedRows rows(4);
    for (size_t i = 0; i < 97; ++i) {
      rows.AppendSecretRow(
          {rng.Next32(), rng.Next32(), rng.Next32(), rng.Next32()}, &rng);
    }
    const CircuitStats before = proto.Snapshot();
    ObliviousSort(&proto, &rows, 0, true);
    traces[variant] = proto.StatsSince(before);
  }
  EXPECT_EQ(traces[0].and_gates, traces[1].and_gates);
  EXPECT_EQ(traces[0].xor_gates, traces[1].xor_gates);
  EXPECT_EQ(traces[0].bytes, traces[1].bytes);
  EXPECT_EQ(traces[0].rounds, traces[1].rounds);
}

// ---------------------------------------------------------------------------
// Oblivious selection / counting (Appendix A.1.1)
// ---------------------------------------------------------------------------

SharedRows MakeFlaggedRows(Rng* rng, const std::vector<Word>& values,
                           const std::vector<Word>& flags) {
  SharedRows rows(2);
  for (size_t i = 0; i < values.size(); ++i) {
    rows.AppendSecretRow({flags[i], values[i]}, rng);
  }
  return rows;
}

TEST_F(ObliviousTest, SelectKeepsCardinalityRewritesFlags) {
  SharedRows rows = MakeFlaggedRows(&rng_, {5, 15, 25, 35}, {1, 1, 1, 0});
  ObliviousSelect(&proto_, &rows, 0, ObliviousPredicate::ColumnLess(1, 20));
  EXPECT_EQ(rows.size(), 4u);  // output size == input size (no leakage)
  EXPECT_EQ(rows.RecoverAt(0, 0), 1u);   // 5 < 20, was real
  EXPECT_EQ(rows.RecoverAt(1, 0), 1u);   // 15 < 20
  EXPECT_EQ(rows.RecoverAt(2, 0), 0u);   // 25 >= 20
  EXPECT_EQ(rows.RecoverAt(3, 0), 0u);   // dummy stays dummy
}

TEST_F(ObliviousTest, CountWherePredicates) {
  SharedRows rows =
      MakeFlaggedRows(&rng_, {5, 15, 25, 35, 45}, {1, 1, 1, 1, 0});
  auto count = [&](const ObliviousPredicate& p) {
    return proto_.RecoverInside(ObliviousCountWhere(&proto_, rows, 0, p));
  };
  EXPECT_EQ(count(ObliviousPredicate::True()), 4u);
  EXPECT_EQ(count(ObliviousPredicate::ColumnLess(1, 20)), 2u);
  EXPECT_EQ(count(ObliviousPredicate::ColumnGreaterEq(1, 25)), 2u);
  EXPECT_EQ(count(ObliviousPredicate::ColumnEquals(1, 15)), 1u);
  EXPECT_EQ(count(ObliviousPredicate::ColumnBetween(1, 10, 30)), 2u);
  EXPECT_EQ(count(ObliviousPredicate::AndThen(
                ObliviousPredicate::ColumnGreaterEq(1, 10),
                ObliviousPredicate::ColumnLess(1, 40))),
            3u);
}

// ---------------------------------------------------------------------------
// Truncated sort-merge join (Example 5.1)
// ---------------------------------------------------------------------------

SharedRows EncodeTable(Rng* rng, const std::vector<LogicalRecord>& recs,
                       size_t pad_to = 0) {
  SharedRows rows(kSrcWidth);
  for (const auto& r : recs) rows.AppendSecretRow(EncodeSourceRow(r), rng);
  while (rows.size() < pad_to)
    rows.AppendSecretRow(MakeDummySourceRow(rng), rng);
  return rows;
}

std::vector<std::vector<Word>> RecoverAll(const SharedRows& rows) {
  std::vector<std::vector<Word>> out;
  for (size_t i = 0; i < rows.size(); ++i) out.push_back(rows.RecoverRow(i));
  return out;
}

LogicalRecord Rec(Word rid, Word key, Word date) {
  return LogicalRecord{0, rid, key, date, 0};
}

TEST_F(ObliviousTest, SmjBasicJoin) {
  const std::vector<LogicalRecord> t1 = {Rec(1, 100, 5), Rec(2, 200, 6)};
  const std::vector<LogicalRecord> t2 = {Rec(3, 100, 7), Rec(4, 300, 8)};
  SharedRows s1 = EncodeTable(&rng_, t1);
  SharedRows s2 = EncodeTable(&rng_, t2);
  JoinSpec spec{0, 10, true, 1, true, true};
  uint64_t seq = 0;
  JoinResult r = TruncatedSortMergeJoin(&proto_, s1, s2, spec, &seq);
  EXPECT_EQ(r.real_count, 1u);  // only key 100 matches within window
  EXPECT_EQ(r.rows.size(), spec.omega * (t1.size() + t2.size()));
}

TEST_F(ObliviousTest, SmjRespectsWindow) {
  const std::vector<LogicalRecord> t1 = {Rec(1, 7, 100)};
  const std::vector<LogicalRecord> t2 = {
      Rec(2, 7, 105),  // in window [0,10]
      Rec(3, 7, 111),  // outside (delta 11)
      Rec(4, 7, 99),   // before t1 (negative delta)
  };
  SharedRows s1 = EncodeTable(&rng_, t1);
  SharedRows s2 = EncodeTable(&rng_, t2);
  JoinSpec spec{0, 10, true, 5, true, true};
  uint64_t seq = 0;
  JoinResult r = TruncatedSortMergeJoin(&proto_, s1, s2, spec, &seq);
  EXPECT_EQ(r.real_count, 1u);
}

TEST_F(ObliviousTest, SmjTruncatesContributions) {
  // One T1 record matching 5 T2 records, omega = 2 -> 2 survive.
  std::vector<LogicalRecord> t1 = {Rec(1, 7, 10)};
  std::vector<LogicalRecord> t2;
  for (Word i = 0; i < 5; ++i) t2.push_back(Rec(10 + i, 7, 12));
  SharedRows s1 = EncodeTable(&rng_, t1);
  SharedRows s2 = EncodeTable(&rng_, t2);
  JoinSpec spec{0, 10, true, 2, true, true};
  uint64_t seq = 0;
  JoinResult r = TruncatedSortMergeJoin(&proto_, s1, s2, spec, &seq);
  EXPECT_EQ(r.real_count, 2u);
  EXPECT_EQ(r.rows.size(), 2u * 6u);
}

TEST_F(ObliviousTest, SmjUncappedPublicSide) {
  // T2 public (cap_t2 = false): a T2 record may pair with many T1 records.
  std::vector<LogicalRecord> t1;
  for (Word i = 0; i < 4; ++i) t1.push_back(Rec(i + 1, 7, 10));
  const std::vector<LogicalRecord> t2 = {Rec(99, 7, 12)};
  SharedRows s1 = EncodeTable(&rng_, t1);
  SharedRows s2 = EncodeTable(&rng_, t2);
  JoinSpec spec{0, 10, true, 2, true, false};
  uint64_t seq = 0;
  JoinResult r = TruncatedSortMergeJoin(&proto_, s1, s2, spec, &seq);
  // omega slots per access still bound the per-access output: 2 pairs.
  EXPECT_EQ(r.real_count, 2u);
}

TEST_F(ObliviousTest, SmjIgnoresDummyRows) {
  const std::vector<LogicalRecord> t1 = {Rec(1, 100, 5)};
  const std::vector<LogicalRecord> t2 = {Rec(2, 100, 7)};
  SharedRows s1 = EncodeTable(&rng_, t1, /*pad_to=*/6);
  SharedRows s2 = EncodeTable(&rng_, t2, /*pad_to=*/6);
  JoinSpec spec{0, 10, true, 1, true, true};
  uint64_t seq = 0;
  JoinResult r = TruncatedSortMergeJoin(&proto_, s1, s2, spec, &seq);
  EXPECT_EQ(r.real_count, 1u);
  EXPECT_EQ(r.rows.size(), 12u);
}

TEST_F(ObliviousTest, SmjViewRowsCarryJoinAttributes) {
  const std::vector<LogicalRecord> t1 = {Rec(1, 100, 5)};
  const std::vector<LogicalRecord> t2 = {Rec(2, 100, 7)};
  SharedRows s1 = EncodeTable(&rng_, t1);
  SharedRows s2 = EncodeTable(&rng_, t2);
  JoinSpec spec{0, 10, true, 1, true, true};
  uint64_t seq = 0;
  JoinResult r = TruncatedSortMergeJoin(&proto_, s1, s2, spec, &seq);
  bool found = false;
  for (const auto& row : RecoverAll(r.rows)) {
    if (row[kViewIsViewCol] == 1) {
      found = true;
      EXPECT_EQ(row[kViewKeyCol], 100u);
      EXPECT_EQ(row[kViewDate1Col], 5u);
      EXPECT_EQ(row[kViewDate2Col], 7u);
      EXPECT_EQ(row[kViewRid1Col], 1u);
      EXPECT_EQ(row[kViewRid2Col], 2u);
    }
  }
  EXPECT_TRUE(found);
}

class SmjRandomTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SmjRandomTest, MatchesReferenceSemantics) {
  const uint32_t omega = GetParam();
  for (uint64_t trial = 0; trial < 20; ++trial) {
    Party s0(0, trial * 7 + 1), s1(1, trial * 7 + 2);
    Protocol2PC proto(&s0, &s1, CostModel::Free());
    Rng rng(trial * 7 + omega);
    std::vector<LogicalRecord> t1, t2;
    Word rid = 1;
    for (int i = 0; i < 20; ++i) {
      t1.push_back(Rec(rid++, 1 + rng.Next32() % 8, rng.Next32() % 30));
    }
    for (int i = 0; i < 25; ++i) {
      t2.push_back(Rec(rid++, 1 + rng.Next32() % 8, rng.Next32() % 30));
    }
    SharedRows sh1 = EncodeTable(&rng, t1);
    SharedRows sh2 = EncodeTable(&rng, t2);
    JoinSpec spec{0, 5, true, omega, true, true};
    uint64_t seq = 0;
    JoinResult r = TruncatedSortMergeJoin(&proto, sh1, sh2, spec, &seq);

    std::vector<std::vector<Word>> p1, p2;
    for (const auto& rec : t1) p1.push_back(EncodeSourceRow(rec));
    for (const auto& rec : t2) p2.push_back(EncodeSourceRow(rec));
    uint32_t full = 0;
    const uint32_t expect = ReferenceTruncatedJoinCount(p1, p2, spec, &full);
    EXPECT_EQ(r.real_count, expect) << "trial " << trial;
    EXPECT_LE(r.real_count, full);
    // Count real rows in the output to cross-check the flag bits.
    uint32_t real_rows = 0;
    for (const auto& row : RecoverAll(r.rows)) {
      real_rows += row[kViewIsViewCol] & 1;
    }
    EXPECT_EQ(real_rows, r.real_count);
  }
}

INSTANTIATE_TEST_SUITE_P(Omegas, SmjRandomTest,
                         ::testing::Values(1, 2, 3, 8, 100));

TEST(SmjObliviousnessTest, TraceAndOutputSizeDataIndependent) {
  CircuitStats traces[2];
  size_t out_sizes[2];
  for (int variant = 0; variant < 2; ++variant) {
    Party s0(0, 1), s1(1, 2);
    Protocol2PC proto(&s0, &s1, CostModel::EmpLikeLan());
    Rng rng(variant + 77);
    std::vector<LogicalRecord> t1, t2;
    for (Word i = 0; i < 15; ++i) {
      // Variant 0: everything joins; variant 1: nothing joins.
      t1.push_back(Rec(i + 1, variant == 0 ? 5 : i + 100, 10));
      t2.push_back(Rec(i + 50, variant == 0 ? 5 : i + 900, 12));
    }
    SharedRows sh1 = EncodeTable(&rng, t1);
    SharedRows sh2 = EncodeTable(&rng, t2);
    JoinSpec spec{0, 10, true, 2, true, true};
    uint64_t seq = 0;
    const CircuitStats before = proto.Snapshot();
    JoinResult r = TruncatedSortMergeJoin(&proto, sh1, sh2, spec, &seq);
    traces[variant] = proto.StatsSince(before);
    out_sizes[variant] = r.rows.size();
  }
  EXPECT_EQ(out_sizes[0], out_sizes[1]);
  EXPECT_EQ(traces[0].and_gates, traces[1].and_gates);
  EXPECT_EQ(traces[0].bytes, traces[1].bytes);
}

// ---------------------------------------------------------------------------
// Truncated nested-loop join (Algorithm 4)
// ---------------------------------------------------------------------------

SharedRows EncodeWithBudget(Rng* rng, const std::vector<LogicalRecord>& recs,
                            Word budget) {
  SharedRows rows(kSrcWidth + 1);
  for (const auto& r : recs) {
    std::vector<Word> row = EncodeSourceRow(r);
    row.push_back(budget);
    rows.AppendSecretRow(row, rng);
  }
  return rows;
}

TEST_F(ObliviousTest, NljBasicJoinAndOutputSize) {
  const std::vector<LogicalRecord> t1 = {Rec(1, 100, 5), Rec(2, 200, 6)};
  const std::vector<LogicalRecord> t2 = {Rec(3, 100, 7), Rec(4, 300, 8)};
  SharedRows s1 = EncodeWithBudget(&rng_, t1, 5);
  SharedRows s2 = EncodeWithBudget(&rng_, t2, 5);
  JoinSpec spec{0, 10, true, 2, true, true};
  uint64_t seq = 0;
  JoinResult r = TruncatedNestedLoopJoin(&proto_, &s1, &s2, kSrcWidth,
                                         kSrcWidth, spec, &seq);
  EXPECT_EQ(r.real_count, 1u);
  EXPECT_EQ(r.rows.size(), spec.omega * t1.size());
}

TEST_F(ObliviousTest, NljConsumesBudgetsInPlace) {
  const std::vector<LogicalRecord> t1 = {Rec(1, 7, 5)};
  std::vector<LogicalRecord> t2;
  for (Word i = 0; i < 4; ++i) t2.push_back(Rec(10 + i, 7, 6));
  SharedRows s1 = EncodeWithBudget(&rng_, t1, 3);  // budget 3 < 4 matches
  SharedRows s2 = EncodeWithBudget(&rng_, t2, 9);
  JoinSpec spec{0, 10, true, 10, true, true};
  uint64_t seq = 0;
  JoinResult r = TruncatedNestedLoopJoin(&proto_, &s1, &s2, kSrcWidth,
                                         kSrcWidth, spec, &seq);
  EXPECT_EQ(r.real_count, 3u);  // limited by T1 budget
  EXPECT_EQ(s1.RecoverAt(0, kSrcWidth), 0u);  // budget fully consumed
  // Exactly 3 of the 4 inner budgets decremented.
  uint32_t consumed = 0;
  for (size_t i = 0; i < 4; ++i)
    consumed += 9 - s2.RecoverAt(i, kSrcWidth);
  EXPECT_EQ(consumed, 3u);
}

TEST_F(ObliviousTest, NljOmegaTruncatesPerOuterBlock) {
  const std::vector<LogicalRecord> t1 = {Rec(1, 7, 5)};
  std::vector<LogicalRecord> t2;
  for (Word i = 0; i < 6; ++i) t2.push_back(Rec(10 + i, 7, 6));
  SharedRows s1 = EncodeWithBudget(&rng_, t1, 100);
  SharedRows s2 = EncodeWithBudget(&rng_, t2, 100);
  JoinSpec spec{0, 10, true, 2, true, true};
  uint64_t seq = 0;
  JoinResult r = TruncatedNestedLoopJoin(&proto_, &s1, &s2, kSrcWidth,
                                         kSrcWidth, spec, &seq);
  // Block sorted and truncated to omega = 2 entries.
  EXPECT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.real_count, 2u);
}

// ---------------------------------------------------------------------------
// Full oblivious join count (NM baseline)
// ---------------------------------------------------------------------------

TEST_F(ObliviousTest, FullJoinCountMatchesPlaintext) {
  Rng data_rng(91);
  std::vector<LogicalRecord> t1, t2;
  Word rid = 1;
  for (int i = 0; i < 30; ++i)
    t1.push_back(Rec(rid++, 1 + data_rng.Next32() % 6,
                     data_rng.Next32() % 40));
  for (int i = 0; i < 30; ++i)
    t2.push_back(Rec(rid++, 1 + data_rng.Next32() % 6,
                     data_rng.Next32() % 40));
  SharedRows s1 = EncodeTable(&rng_, t1, 40);  // with dummy padding
  SharedRows s2 = EncodeTable(&rng_, t2, 40);
  JoinSpec spec{0, 10, true, 1, true, true};
  const uint32_t count = ObliviousJoinCountFull(&proto_, s1, s2, spec);

  WindowJoinQuery q{0, 10, true};
  EXPECT_EQ(count, CountFull(q, t1, t2));
}

// ---------------------------------------------------------------------------
// Cache operations (Fig. 3)
// ---------------------------------------------------------------------------

SharedRows MakeCacheRows(Rng* rng, const std::vector<bool>& real_flags) {
  SharedRows rows(kViewWidth);
  uint64_t seq = 0;
  for (bool real : real_flags) {
    std::vector<Word> row(kViewWidth);
    row[kViewIsViewCol] = real ? 1 : 0;
    row[kViewSortKeyCol] = MakeCacheSortKey(real, seq);
    row[kViewKeyCol] = 1000 + seq;  // payload marks insertion order
    ++seq;
    rows.AppendSecretRow(row, rng);
  }
  return rows;
}

TEST_F(ObliviousTest, CacheReadFetchesRealFirstFifo) {
  // Mixed cache: dummy, real(0), dummy, real(3), real(4), dummy.
  SharedRows cache =
      MakeCacheRows(&rng_, {false, true, false, true, true, false});
  SharedRows fetched = ObliviousCacheRead(&proto_, &cache, 2);
  EXPECT_EQ(fetched.size(), 2u);
  EXPECT_EQ(cache.size(), 4u);
  // The two oldest real entries (seq 1 and 3) come out, in FIFO order.
  EXPECT_EQ(fetched.RecoverAt(0, kViewIsViewCol), 1u);
  EXPECT_EQ(fetched.RecoverAt(1, kViewIsViewCol), 1u);
  EXPECT_EQ(fetched.RecoverAt(0, kViewKeyCol), 1001u);
  EXPECT_EQ(fetched.RecoverAt(1, kViewKeyCol), 1003u);
  // One real entry (seq 4) is deferred in the cache.
  EXPECT_EQ(CountRealInside(&proto_, cache), 1u);
}

TEST_F(ObliviousTest, CacheReadWithExcessSizeTakesDummies) {
  SharedRows cache = MakeCacheRows(&rng_, {true, false, false});
  SharedRows fetched = ObliviousCacheRead(&proto_, &cache, 2);
  EXPECT_EQ(fetched.size(), 2u);
  EXPECT_EQ(fetched.RecoverAt(0, kViewIsViewCol), 1u);
  EXPECT_EQ(fetched.RecoverAt(1, kViewIsViewCol), 0u);  // dummy padding
}

TEST_F(ObliviousTest, CacheReadClampsToCacheSize) {
  SharedRows cache = MakeCacheRows(&rng_, {true, false});
  SharedRows fetched = ObliviousCacheRead(&proto_, &cache, 100);
  EXPECT_EQ(fetched.size(), 2u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(ObliviousTest, CacheFlushRecyclesEverything) {
  SharedRows cache =
      MakeCacheRows(&rng_, {false, true, false, true, false, false});
  SharedRows fetched = CacheFlush(&proto_, &cache, 3);
  EXPECT_EQ(fetched.size(), 3u);
  EXPECT_EQ(cache.size(), 0u);  // remainder recycled
  // Both real tuples are inside the flushed prefix.
  EXPECT_EQ(CountRealInside(&proto_, fetched), 2u);
}

TEST_F(ObliviousTest, CacheFlushCanLoseRealData) {
  // Flush size smaller than the number of real tuples: deferred data is
  // recycled (the beta-probability loss the paper accepts).
  SharedRows cache = MakeCacheRows(&rng_, {true, true, true});
  SharedRows fetched = CacheFlush(&proto_, &cache, 1);
  EXPECT_EQ(CountRealInside(&proto_, fetched), 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(ObliviousTest, CountRealInside) {
  SharedRows cache = MakeCacheRows(&rng_, {true, false, true, true});
  EXPECT_EQ(CountRealInside(&proto_, cache), 3u);
}

}  // namespace
}  // namespace incshrink
