#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/core/engine.h"
#include "src/core/owner_client.h"
#include "src/dp/accountant.h"
#include "src/dp/composition.h"
#include "src/dp/laplace.h"
#include "src/dp/svt.h"
#include "src/core/transform.h"
#include "src/mpc/party.h"
#include "src/oblivious/cache_ops.h"
#include "src/oblivious/filter.h"
#include "src/oblivious/formats.h"
#include "src/oblivious/join.h"
#include "src/oblivious/sort.h"
#include "src/relational/encode.h"
#include "src/workload/generators.h"

namespace incshrink {
namespace {

// ---------------------------------------------------------------------------
// Oblivious sort properties
// ---------------------------------------------------------------------------

class SortPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(SortPropertyTest, PreservesMultisetAndOrders) {
  const auto [n, width] = GetParam();
  Party s0(0, n * 31 + width), s1(1, n * 37 + width);
  Protocol2PC proto(&s0, &s1, CostModel::Free());
  Rng rng(n + width * 1000);

  SharedRows rows(width);
  std::multiset<Word> keys;
  std::map<Word, std::multiset<Word>> row_payloads;
  for (size_t i = 0; i < n; ++i) {
    std::vector<Word> row(width);
    row[0] = rng.Next32() % 50;  // many duplicates
    for (size_t c = 1; c < width; ++c) row[c] = rng.Next32();
    keys.insert(row[0]);
    if (width > 1) row_payloads[row[0]].insert(row[1]);
    rows.AppendSecretRow(row, &rng);
  }
  ObliviousSort(&proto, &rows, 0, true);

  // Sorted order + exact key multiset preserved.
  std::multiset<Word> after;
  Word prev = 0;
  for (size_t i = 0; i < n; ++i) {
    const Word k = rows.RecoverAt(i, 0);
    if (i > 0) {
      EXPECT_GE(k, prev);
    }
    prev = k;
    after.insert(k);
  }
  EXPECT_EQ(after, keys);

  // Rows moved as units: payloads still travel with their keys.
  if (width > 1) {
    std::map<Word, std::multiset<Word>> after_payloads;
    for (size_t i = 0; i < n; ++i) {
      after_payloads[rows.RecoverAt(i, 0)].insert(rows.RecoverAt(i, 1));
    }
    EXPECT_EQ(after_payloads, row_payloads);
  }
}

TEST_P(SortPropertyTest, Idempotent) {
  const auto [n, width] = GetParam();
  Party s0(0, 1), s1(1, 2);
  Protocol2PC proto(&s0, &s1, CostModel::Free());
  Rng rng(n * 7 + width);
  SharedRows rows(width);
  for (size_t i = 0; i < n; ++i) {
    std::vector<Word> row(width);
    for (size_t c = 0; c < width; ++c) row[c] = rng.Next32() % 100;
    rows.AppendSecretRow(row, &rng);
  }
  ObliviousSort(&proto, &rows, 0, true);
  std::vector<Word> once;
  for (size_t i = 0; i < n; ++i) once.push_back(rows.RecoverAt(i, 0));
  ObliviousSort(&proto, &rows, 0, true);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(rows.RecoverAt(i, 0), once[i]);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SortPropertyTest,
    ::testing::Combine(::testing::Values(0, 1, 13, 64, 200),
                       ::testing::Values(1, 2, 7)));

// ---------------------------------------------------------------------------
// Cache read/flush conservation
// ---------------------------------------------------------------------------

class CacheConservationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheConservationTest, ReadsConserveRealRows) {
  const uint64_t seed = GetParam();
  Party s0(0, seed), s1(1, seed + 1);
  Protocol2PC proto(&s0, &s1, CostModel::Free());
  Rng rng(seed + 2);

  SharedRows cache(kViewWidth);
  uint64_t seq = 0;
  uint32_t total_real = 0;
  for (int i = 0; i < 120; ++i) {
    const bool real = rng.Bernoulli(0.35);
    std::vector<Word> row(kViewWidth, 0);
    row[kViewIsViewCol] = real;
    row[kViewSortKeyCol] = MakeCacheSortKey(real, seq++);
    cache.AppendSecretRow(row, &rng);
    total_real += real;
  }

  // Repeated random-size reads never create or destroy real rows.
  uint32_t fetched_real = 0;
  while (!cache.empty()) {
    const size_t read = 1 + rng.Uniform(30);
    SharedRows out = ObliviousCacheRead(&proto, &cache, read);
    fetched_real += CountRealInside(&proto, out);
    // FIFO: within this batch all real rows precede all dummies.
    bool seen_dummy = false;
    for (size_t r = 0; r < out.size(); ++r) {
      const bool real = out.RecoverAt(r, kViewIsViewCol) & 1;
      if (!real) seen_dummy = true;
      EXPECT_FALSE(real && seen_dummy) << "real row after dummy";
    }
  }
  EXPECT_EQ(fetched_real, total_real);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheConservationTest,
                         ::testing::Values(3, 5, 8, 13, 21));

// ---------------------------------------------------------------------------
// Truncated join properties
// ---------------------------------------------------------------------------

class JoinPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint32_t>> {
};

TEST_P(JoinPropertyTest, OutputSizeAndCountBounds) {
  const auto [n1, n2, omega] = GetParam();
  Party s0(0, n1 + 1), s1(1, n2 + 2);
  Protocol2PC proto(&s0, &s1, CostModel::Free());
  Rng rng(n1 * 100 + n2 * 10 + omega);

  SharedRows t1(kSrcWidth), t2(kSrcWidth);
  Word rid = 1;
  for (size_t i = 0; i < n1; ++i) {
    LogicalRecord r{1, rid++, 1 + static_cast<Word>(rng.Uniform(5)),
                    static_cast<Word>(rng.Uniform(20)), 0};
    t1.AppendSecretRow(EncodeSourceRow(r), &rng);
  }
  for (size_t i = 0; i < n2; ++i) {
    LogicalRecord r{1, rid++, 1 + static_cast<Word>(rng.Uniform(5)),
                    static_cast<Word>(rng.Uniform(20)), 0};
    t2.AppendSecretRow(EncodeSourceRow(r), &rng);
  }

  JoinSpec spec{0, 10, true, omega, true, true};
  uint64_t seq = 0;
  const JoinResult r = TruncatedSortMergeJoin(&proto, t1, t2, spec, &seq);

  // Output size is the public formula, always.
  EXPECT_EQ(r.rows.size(), omega * (n1 + n2));
  // Eq. 3: per-record contributions capped by omega -> total real rows are
  // bounded by omega * min side.
  EXPECT_LE(r.real_count, omega * std::min(n1, n2));
  // isView bits agree with the reported count.
  uint32_t real = 0;
  for (size_t i = 0; i < r.rows.size(); ++i) {
    real += r.rows.RecoverAt(i, kViewIsViewCol) & 1;
  }
  EXPECT_EQ(real, r.real_count);
  // The sequence counter advanced exactly once per emitted row.
  EXPECT_EQ(seq, r.rows.size());
}

TEST_P(JoinPropertyTest, CountMonotoneInOmega) {
  const auto [n1, n2, omega] = GetParam();
  if (omega > 8) return;  // the pair (omega, omega+1) is what we test
  Rng data_rng(n1 * 7 + n2 * 3);
  std::vector<LogicalRecord> recs1, recs2;
  Word rid = 1;
  for (size_t i = 0; i < n1; ++i)
    recs1.push_back({1, rid++, 1 + static_cast<Word>(data_rng.Uniform(4)),
                     static_cast<Word>(data_rng.Uniform(15)), 0});
  for (size_t i = 0; i < n2; ++i)
    recs2.push_back({1, rid++, 1 + static_cast<Word>(data_rng.Uniform(4)),
                     static_cast<Word>(data_rng.Uniform(15)), 0});

  auto run = [&](uint32_t w) {
    Party s0(0, 1), s1(1, 2);
    Protocol2PC proto(&s0, &s1, CostModel::Free());
    Rng rng(99);
    SharedRows t1(kSrcWidth), t2(kSrcWidth);
    for (const auto& r : recs1)
      t1.AppendSecretRow(EncodeSourceRow(r), &rng);
    for (const auto& r : recs2)
      t2.AppendSecretRow(EncodeSourceRow(r), &rng);
    JoinSpec spec{0, 10, true, w, true, true};
    uint64_t seq = 0;
    return TruncatedSortMergeJoin(&proto, t1, t2, spec, &seq).real_count;
  };
  EXPECT_LE(run(omega), run(omega + 1));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JoinPropertyTest,
    ::testing::Combine(::testing::Values(0, 1, 5, 20),
                       ::testing::Values(0, 1, 5, 25),
                       ::testing::Values(1, 2, 4)));

// ---------------------------------------------------------------------------
// Transform conservation: counter == real rows in cache
// ---------------------------------------------------------------------------

TEST(TransformConservationTest, CounterMatchesCacheContents) {
  IncShrinkConfig cfg = DefaultTpcDsConfig();
  cfg.strategy = Strategy::kDpTimer;
  Party s0(0, 4), s1(1, 5);
  Protocol2PC proto(&s0, &s1, CostModel::Free());
  PrivacyAccountant acc(cfg.eps, cfg.budget_b, cfg.omega);
  TransformProtocol transform(&proto, cfg, &acc);
  OutsourcedTable store1(kSrcWidth), store2(kSrcWidth);
  SecureCache cache(&proto);

  TpcDsParams p;
  p.steps = 25;
  const GeneratedWorkload w = GenerateTpcDs(p);
  Rng rng(6);
  for (uint64_t t = 1; t <= p.steps; ++t) {
    SharedRows b1(kSrcWidth), b2(kSrcWidth);
    for (const auto& r : w.t1[t - 1])
      b1.AppendSecretRow(EncodeSourceRow(r), &rng);
    while (b1.size() < cfg.upload_rows_t1)
      b1.AppendSecretRow(MakeDummySourceRow(&rng), &rng);
    for (const auto& r : w.t2[t - 1])
      b2.AppendSecretRow(EncodeSourceRow(r), &rng);
    while (b2.size() < cfg.upload_rows_t2)
      b2.AppendSecretRow(MakeDummySourceRow(&rng), &rng);
    store1.AppendBatch(std::move(b1));
    store2.AppendBatch(std::move(b2));
    ASSERT_TRUE(transform.Step(t, store1, store2, &cache).ok());
    // Invariant (Alg. 1): c counts exactly the real entries in the cache
    // (no Shrink ran, so nothing has been removed).
    EXPECT_EQ(cache.RecoverCounterInside(&proto),
              CountRealInside(&proto, *cache.rows()))
        << "step " << t;
  }
}

TEST(TransformConservationTest, ExhaustedLedgerSurfacesError) {
  IncShrinkConfig cfg = DefaultTpcDsConfig();
  Party s0(0, 7), s1(1, 8);
  Protocol2PC proto(&s0, &s1, CostModel::Free());
  PrivacyAccountant acc(cfg.eps, cfg.budget_b, cfg.omega);
  // Pre-exhaust record 1's budget (simulating a policy violation).
  for (uint32_t i = 0; i < cfg.budget_b; ++i) {
    ASSERT_TRUE(acc.ChargeParticipation(1).ok());
  }
  TransformProtocol transform(&proto, cfg, &acc);
  OutsourcedTable store1(kSrcWidth), store2(kSrcWidth);
  SecureCache cache(&proto);
  Rng rng(9);
  SharedRows b1(kSrcWidth), b2(kSrcWidth);
  b1.AppendSecretRow(EncodeSourceRow({1, 1, 5, 1, 0}), &rng);
  b2.AppendSecretRow(MakeDummySourceRow(&rng), &rng);
  store1.AppendBatch(std::move(b1));
  store2.AppendBatch(std::move(b2));
  const auto result = transform.Step(1, store1, store2, &cache);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kPrivacyBudgetExhausted);
}

// ---------------------------------------------------------------------------
// End-to-end conservation: generated = in view + deferred (no flush)
// ---------------------------------------------------------------------------

class EngineConservationTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(EngineConservationTest, RealRowsNeitherCreatedNorDestroyed) {
  IncShrinkConfig cfg = DefaultTpcDsConfig();
  cfg.strategy = GetParam();
  cfg.flush_interval = 0;  // flushing is the only lossy operation
  TpcDsParams p;
  p.steps = 80;
  const GeneratedWorkload w = GenerateTpcDs(p);
  SynchronousDeployment deployment(cfg);
  ASSERT_TRUE(deployment.Run(w.t1, w.t2).ok());
  const Engine& engine = deployment.engine();

  Party probe0(0, 1), probe1(1, 2);
  Protocol2PC probe(&probe0, &probe1, CostModel::Free());
  const uint32_t in_view = CountRealInside(&probe, engine.view().rows());
  const uint32_t in_cache =
      CountRealInside(&probe, engine.shard_cache(0).rows());
  EXPECT_EQ(in_view + in_cache,
            engine.Summary().total_real_entries_cached);
}

INSTANTIATE_TEST_SUITE_P(Strategies, EngineConservationTest,
                         ::testing::Values(Strategy::kDpTimer,
                                           Strategy::kDpAnt, Strategy::kEp));

// ---------------------------------------------------------------------------
// DP answers never exceed the truth (deferral-only error, no flush)
// ---------------------------------------------------------------------------

TEST(EngineMonotonicityTest, ViewAnswerNeverExceedsTruth) {
  IncShrinkConfig cfg = DefaultTpcDsConfig();
  cfg.strategy = Strategy::kDpTimer;
  cfg.flush_interval = 0;
  TpcDsParams p;
  p.steps = 100;
  const GeneratedWorkload w = GenerateTpcDs(p);
  SynchronousDeployment engine(cfg);
  ASSERT_TRUE(engine.Run(w.t1, w.t2).ok());
  for (const StepMetrics& m : engine.step_metrics()) {
    // The view holds a subset of the true join (dummies don't count).
    EXPECT_LE(m.view_answer, m.true_count) << "step " << m.t;
  }
}

// ---------------------------------------------------------------------------
// Released sizes follow the leakage mechanism's distribution
// ---------------------------------------------------------------------------

TEST(ReleaseDistributionTest, TimerReleasesMatchMechanismModel) {
  // Run the engine and M_timer on identical per-step real-entry streams
  // with matched noise scale; their release sequences must agree in mean.
  IncShrinkConfig cfg = DefaultTpcDsConfig();
  cfg.strategy = Strategy::kDpTimer;
  cfg.flush_interval = 0;
  TpcDsParams p;
  p.steps = 200;
  const GeneratedWorkload w = GenerateTpcDs(p);
  SynchronousDeployment deployment(cfg);
  ASSERT_TRUE(deployment.Run(w.t1, w.t2).ok());
  const Engine& engine = deployment.engine();

  Rng mech_rng(9999);
  TimerLeakageMechanism mech(cfg.eps, cfg.budget_b, cfg.timer_T, &mech_rng);
  RunningStat real_releases, mech_releases;
  const auto& entries = engine.per_step_real_entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    const LeakageRelease model = mech.Step(entries[i]);
    const LeakageRelease& actual = engine.releases()[i];
    ASSERT_EQ(model.fired, actual.fired) << i;
    if (model.fired) {
      mech_releases.Add(model.size);
      real_releases.Add(actual.size);
    }
  }
  ASSERT_GT(real_releases.count(), 10u);
  // Same underlying counts, independent Laplace draws at the same scale.
  EXPECT_NEAR(real_releases.mean(), mech_releases.mean(),
              3.0 * cfg.budget_b / cfg.eps);
}

// ---------------------------------------------------------------------------
// DP mechanism properties (build-system bring-up satellite)
// ---------------------------------------------------------------------------

class LaplaceMomentsTest : public ::testing::TestWithParam<double> {};

TEST_P(LaplaceMomentsTest, MeanAndVarianceWithinTolerance) {
  const double scale = GetParam();
  Rng rng(static_cast<uint64_t>(scale * 1000) + 17);
  RunningStat stat;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) stat.Add(SampleLaplace(&rng, scale));
  // Lap(0, s): mean 0, variance 2 s^2. Tolerances are ~5 empirical standard
  // errors, so the test is deterministic-seed stable yet tight enough to
  // catch a mis-scaled sampler (e.g. s vs. 2s, or exponential-only).
  const double se_mean = std::sqrt(2.0 * scale * scale / kSamples);
  EXPECT_NEAR(stat.mean(), 0.0, 5.0 * se_mean);
  EXPECT_NEAR(stat.variance(), 2.0 * scale * scale,
              0.05 * 2.0 * scale * scale);
  // Symmetry: median of Lap(0, s) is 0, so signs split evenly.
  Rng rng2(static_cast<uint64_t>(scale * 1000) + 18);
  int positive = 0;
  for (int i = 0; i < kSamples; ++i)
    positive += (SampleLaplace(&rng2, scale) > 0);
  EXPECT_NEAR(static_cast<double>(positive) / kSamples, 0.5, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Scales, LaplaceMomentsTest,
                         ::testing::Values(0.5, 1.0, 10.0 / 1.5, 20.0));

TEST(SvtBudgetPropertyTest, ReleaseCounterMatchesFiresExactly) {
  // Each SVT fire+release cycle consumes eps1 + eps2 = eps, so the composed
  // privacy loss of a run is releases() * eps (sequential composition). That
  // makes releases() the budget ledger — it must track the observable fires
  // exactly: +1 on every true Observe, unchanged otherwise, never skipping
  // or double-counting. (A drifting counter would silently under-report the
  // consumed budget.)
  Rng stream_rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const double eps = 0.5 + stream_rng.NextDouble() * 2.0;
    Rng svt_rng(1000 + trial);
    NumericAboveNoisyThreshold svt(eps, 1.0, 30.0, &svt_rng);
    uint64_t observed_fires = 0;
    double count = 0;
    for (int t = 0; t < 2000; ++t) {
      count += stream_rng.Poisson(3.0);
      const uint64_t before = svt.releases();
      double release = 0;
      if (svt.Observe(count, &release)) {
        ++observed_fires;
        EXPECT_EQ(svt.releases(), before + 1);
        count = 0;
      } else {
        EXPECT_EQ(svt.releases(), before);
      }
    }
    EXPECT_GT(observed_fires, 0u) << "stream never crossed the threshold";
    EXPECT_EQ(svt.releases(), observed_fires);
    // The sequentially composed loss of the run, as the accountant sums it.
    const std::vector<double> per_release(svt.releases(), eps);
    const double composed = SequentialComposition(per_release);
    const double expected = static_cast<double>(observed_fires) * eps;
    EXPECT_NEAR(composed, expected, 1e-9 * expected);  // summation rounding
  }
}

TEST(SvtBudgetPropertyTest, ContributionLedgerEnforcesLifetimeBudget) {
  // The accountant is the runtime guard behind the b-stability premise:
  // whatever interleaving of charges and contributions, no record may ever
  // exceed its lifetime budget b, and contributions never exceed charges.
  Rng rng(77);
  const uint32_t b = 10, omega = 2;
  PrivacyAccountant acc(1.5, b, omega);
  std::unordered_map<uint32_t, uint32_t> charged, contributed;
  for (int i = 0; i < 5000; ++i) {
    const uint32_t rid = static_cast<uint32_t>(rng.Uniform(40));
    if (rng.Bernoulli(0.6)) {
      const Status s = acc.ChargeParticipation(rid);
      if (charged[rid] + omega <= b) {
        EXPECT_TRUE(s.ok());
        charged[rid] += omega;
      } else {
        EXPECT_EQ(s.code(), StatusCode::kPrivacyBudgetExhausted);
      }
    } else {
      const uint32_t rows = static_cast<uint32_t>(rng.Uniform(3));
      const Status s = acc.RecordContribution(rid, rows);
      if (contributed[rid] + rows <= charged[rid]) {
        EXPECT_TRUE(s.ok());
        contributed[rid] += rows;
      } else {
        EXPECT_FALSE(s.ok());
      }
    }
    EXPECT_EQ(acc.RemainingBudget(rid), b - charged[rid]);
    EXPECT_EQ(acc.CanParticipate(rid), charged[rid] + omega <= b);
  }
}

TEST(CompositionPropertyTest, SequentialCompositionMonotoneInEpsilon) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> epsilons(1 + rng.Uniform(8));
    for (double& e : epsilons) e = rng.NextDouble() * 3.0;
    const double base = SequentialComposition(epsilons);
    // Raising any single epsilon raises the composed bound; adding a
    // mechanism never lowers it.
    std::vector<double> bumped = epsilons;
    const size_t i = rng.Uniform(bumped.size());
    bumped[i] += 0.25;
    EXPECT_GT(SequentialComposition(bumped), base);
    std::vector<double> extended = epsilons;
    extended.push_back(rng.NextDouble());
    EXPECT_GE(SequentialComposition(extended), base);
    // Parallel composition is bounded by sequential composition.
    EXPECT_LE(ParallelComposition(epsilons), base + 1e-12);
  }
}

TEST(CompositionPropertyTest, DerivedEpsilonsMonotone) {
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    const double eps = 0.1 + rng.NextDouble() * 3.0;
    const uint32_t l = 1 + static_cast<uint32_t>(rng.Uniform(20));
    // Group privacy: more updates per user -> weaker (larger) epsilon.
    EXPECT_GE(UserLevelEpsilon(eps, l + 1), UserLevelEpsilon(eps, l));
    EXPECT_GE(UserLevelEpsilon(eps + 0.1, l), UserLevelEpsilon(eps, l));
    // Lemma 2: record-level loss grows with stability and with budget.
    const double q = 1.0 + rng.NextDouble() * 9.0;
    EXPECT_GE(StableTransformationEpsilon(eps, q + 1.0),
              StableTransformationEpsilon(eps, q));
    EXPECT_GE(StableTransformationEpsilon(eps + 0.1, q),
              StableTransformationEpsilon(eps, q));
    // Theorem 3: componentwise-larger inputs give a larger record-level sum.
    std::vector<double> stabilities(3), eps_v(3);
    for (int k = 0; k < 3; ++k) {
      stabilities[k] = 1.0 + rng.NextDouble() * 4.0;
      eps_v[k] = rng.NextDouble();
    }
    std::vector<double> stabilities_hi = stabilities;
    stabilities_hi[rng.Uniform(3)] += 1.0;
    EXPECT_GE(RecordLevelEpsilon(stabilities_hi, eps_v),
              RecordLevelEpsilon(stabilities, eps_v));
  }
}

TEST(CompositionPropertyTest, DeploymentBudgetComposes) {
  DeploymentBudget budget;
  budget.view_update_eps = 1.5;
  budget.owner_policy_eps = 0.5;
  budget.max_updates_per_user = 4;
  EXPECT_DOUBLE_EQ(budget.EventLevel(), 2.0);
  EXPECT_DOUBLE_EQ(budget.UserLevel(), 8.0);
  // Monotone in every field.
  DeploymentBudget more = budget;
  more.owner_policy_eps = 1.0;
  EXPECT_GT(more.EventLevel(), budget.EventLevel());
  more.max_updates_per_user = 5;
  EXPECT_GT(more.UserLevel(), budget.UserLevel());
}

// ---------------------------------------------------------------------------
// Typed predicates against a brute-force reference
// ---------------------------------------------------------------------------

/// One predicate under test, its brute-force plaintext meaning and the AND
/// gates the constructor must charge per row.
struct PredicateCase {
  std::string name;
  ObliviousPredicate pred;
  std::function<bool(const std::vector<Word>&)> ref;
  uint64_t gates;
};

constexpr size_t kPredWidth = 4;  // flag word + three data columns
constexpr size_t kPredFlagCol = 0;

/// Boundary constants: both ends of the ring, both sides of the sign bit
/// and their neighbours.
const std::vector<Word> kEdgeWords = {0,           1,          2,
                                      0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFEu,
                                      0xFFFFFFFFu};

/// Every constructor over every column and edge constant, empty ranges,
/// AndThen chains up to the term capacity, and True() on either side of a
/// conjunction.
std::vector<PredicateCase> AdversarialPredicates() {
  using P = ObliviousPredicate;
  std::vector<PredicateCase> cases;
  cases.push_back({"True", P::True(),
                   [](const std::vector<Word>&) { return true; }, 0});
  for (size_t col = 1; col < kPredWidth; ++col) {
    const std::string c = std::to_string(col);
    for (const Word v : kEdgeWords) {
      const std::string sv = std::to_string(v);
      cases.push_back({"Less(" + c + "," + sv + ")", P::ColumnLess(col, v),
                       [col, v](const std::vector<Word>& r) {
                         return r[col] < v;
                       },
                       kWordBits});
      cases.push_back({"GreaterEq(" + c + "," + sv + ")",
                       P::ColumnGreaterEq(col, v),
                       [col, v](const std::vector<Word>& r) {
                         return r[col] >= v;
                       },
                       kWordBits});
      cases.push_back({"Equals(" + c + "," + sv + ")", P::ColumnEquals(col, v),
                       [col, v](const std::vector<Word>& r) {
                         return r[col] == v;
                       },
                       kWordBits});
      for (const Word hi : kEdgeWords) {
        // Includes every lo > hi pair: an empty range matches nothing.
        cases.push_back({"Between(" + c + "," + sv + "," +
                             std::to_string(hi) + ")",
                         P::ColumnBetween(col, v, hi),
                         [col, v, hi](const std::vector<Word>& r) {
                           return r[col] >= v && r[col] <= hi;
                         },
                         2 * kWordBits + 1});
      }
    }
  }
  // Conjunctions: pairwise chains of the single-term cases above, grown
  // left to right up to ObliviousPredicate::kMaxTerms terms.
  const size_t singles = cases.size();
  Rng pick(4242);
  for (size_t terms = 2; terms <= ObliviousPredicate::kMaxTerms; ++terms) {
    for (int rep = 0; rep < 24; ++rep) {
      PredicateCase acc = cases[1 + pick.Uniform(singles - 1)];
      for (size_t t = 1; t < terms; ++t) {
        const PredicateCase& next = cases[1 + pick.Uniform(singles - 1)];
        const auto left = acc.ref;
        const auto right = next.ref;
        acc = {acc.name + "&" + next.name, P::AndThen(acc.pred, next.pred),
               [left, right](const std::vector<Word>& r) {
                 return left(r) && right(r);
               },
               acc.gates + next.gates + 1};
      }
      cases.push_back(acc);
    }
  }
  const PredicateCase& any = cases[singles - 1];
  cases.push_back({"True&" + any.name, P::AndThen(P::True(), any.pred),
                   any.ref, any.gates + 1});
  cases.push_back({any.name + "&True", P::AndThen(any.pred, P::True()),
                   any.ref, any.gates + 1});
  return cases;
}

/// Rows whose flag words carry random high bits (only bit 0 is the flag)
/// and whose data words sit on and around the edge constants.
SharedRows AdversarialRows(Rng* rng, size_t n) {
  SharedRows rows(kPredWidth);
  std::vector<Word> row(kPredWidth);
  for (size_t i = 0; i < n; ++i) {
    row[kPredFlagCol] = (rng->Next32() & ~1u) | rng->Uniform(2);
    for (size_t c = 1; c < kPredWidth; ++c) {
      row[c] = rng->Uniform(4) == 0
                   ? rng->Next32()
                   : kEdgeWords[rng->Uniform(kEdgeWords.size())];
    }
    rows.AppendSecretRow(row, rng);
  }
  return rows;
}

uint64_t BruteForceCount(const SharedRows& rows, const PredicateCase& pc) {
  uint64_t count = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    const std::vector<Word> row = rows.RecoverRow(r);
    if ((row[kPredFlagCol] & 1) && pc.ref(row)) ++count;
  }
  return count;
}

TEST(TypedPredicatePropertyTest, EveryConstructorMatchesBruteForce) {
  Rng data(77);
  const SharedRows rows = AdversarialRows(&data, 96);
  for (const PredicateCase& pc : AdversarialPredicates()) {
    SCOPED_TRACE(pc.name);
    EXPECT_EQ(pc.pred.and_gates_per_row, pc.gates);
    for (size_t r = 0; r < rows.size(); ++r) {
      const std::vector<Word> row = rows.RecoverRow(r);
      ASSERT_EQ(pc.pred.Matches(row), pc.ref(row)) << "row " << r;
    }
    Party s0(0, 5), s1(1, 6);
    Protocol2PC proto(&s0, &s1, CostModel::EmpLikeLan());
    const CircuitStats before = proto.Snapshot();
    const WordShares count =
        ObliviousCountWhere(&proto, rows, kPredFlagCol, pc.pred);
    EXPECT_EQ(proto.RecoverInside(count), BruteForceCount(rows, pc));
    EXPECT_EQ(proto.StatsSince(before).and_gates,
              rows.size() * (pc.gates + 1 + kWordBits));

    SharedRows selected = rows;
    ObliviousSelect(&proto, &selected, kPredFlagCol, pc.pred);
    for (size_t r = 0; r < rows.size(); ++r) {
      const std::vector<Word> row = rows.RecoverRow(r);
      const Word want = (row[kPredFlagCol] & 1) && pc.ref(row) ? 1 : 0;
      ASSERT_EQ(selected.RecoverAt(r, kPredFlagCol), want) << "row " << r;
      for (size_t c = 1; c < kPredWidth; ++c) {
        ASSERT_EQ(selected.RecoverAt(r, c), row[c]) << "row " << r;
      }
    }
  }
}

TEST(TypedPredicatePropertyTest, MixedBatchMatchesPerTaskCountsAtAnyThreads) {
  Rng data(78);
  std::vector<SharedRows> tables;
  for (const size_t n : {0u, 1u, 31u, 96u, 200u}) {
    tables.push_back(AdversarialRows(&data, n));
  }
  const std::vector<PredicateCase> cases = AdversarialPredicates();
  // Every predicate once, each over the next table in turn: one batch mixes
  // all constructors, term counts and table sizes.
  std::vector<CountWhereTask> tasks;
  for (size_t k = 0; k < cases.size(); ++k) {
    tasks.push_back(
        {&tables[k % tables.size()], kPredFlagCol, &cases[k].pred});
  }
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Party a0(0, 31), a1(1, 32);
    Protocol2PC scalar(&a0, &a1, CostModel::EmpLikeLan());
    std::vector<WordShares> want;
    for (const CountWhereTask& t : tasks) {
      want.push_back(ObliviousCountWhere(&scalar, *t.rows, t.flag_col,
                                         *t.pred));
    }
    Party b0(0, 31), b1(1, 32);
    Protocol2PC batched(&b0, &b1, CostModel::EmpLikeLan());
    ThreadPool pool(threads);
    std::vector<WordShares> got(tasks.size());
    batched.CountWhereBatch(tasks.data(), tasks.size(), got.data(),
                            BatchExec{&pool, 1});
    for (size_t k = 0; k < tasks.size(); ++k) {
      ASSERT_EQ(got[k], want[k]) << cases[k].name;
      EXPECT_EQ(batched.RecoverInside(got[k]),
                BruteForceCount(*tasks[k].rows, cases[k]))
          << cases[k].name;
    }
    const CircuitStats sa = scalar.stats();
    const CircuitStats sb = batched.stats();
    EXPECT_EQ(sa.and_gates, sb.and_gates);
    EXPECT_EQ(sa.xor_gates, sb.xor_gates);
    EXPECT_EQ(sa.bytes, sb.bytes);
    EXPECT_EQ(sa.rounds, sb.rounds);
    const RngState ra = scalar.internal_rng()->ExportState();
    const RngState rb = batched.internal_rng()->ExportState();
    for (int i = 0; i < 4; ++i) EXPECT_EQ(ra.s[i], rb.s[i]) << "word " << i;
  }
}

TEST(TypedPredicatePropertyTest, AndThenPastCapacityAborts) {
  using P = ObliviousPredicate;
  P full = P::ColumnEquals(1, 7);
  for (size_t t = 1; t < P::kMaxTerms; ++t) {
    full = P::AndThen(full, P::ColumnLess(2, 9));
  }
  EXPECT_EQ(full.num_terms, P::kMaxTerms);
  // True() adds no term, so it still fits; one more term does not.
  EXPECT_EQ(P::AndThen(full, P::True()).num_terms, P::kMaxTerms);
  EXPECT_DEATH((void)P::AndThen(full, P::ColumnGreaterEq(3, 1)),
               "CHECK failed");
}

}  // namespace
}  // namespace incshrink
