#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "src/relational/query.h"
#include "src/workload/generators.h"
#include "tests/truth_oracle.h"

namespace incshrink {
namespace {

TEST(TpcDsGeneratorTest, MatchesPaperViewEntryRate) {
  TpcDsParams p;
  p.steps = 2000;
  const GeneratedWorkload w = GenerateTpcDs(p);
  // Paper: ~2.7 new view entries per step.
  EXPECT_NEAR(w.avg_view_entries_per_step(), 2.7, 0.35);
  EXPECT_GT(w.total_t1, w.total_t2);  // not every sale is returned
}

TEST(TpcDsGeneratorTest, MultiplicityOneAndWindowed) {
  TpcDsParams p;
  p.steps = 200;
  const GeneratedWorkload w = GenerateTpcDs(p);
  std::vector<LogicalRecord> all1, all2;
  for (const auto& v : w.t1) all1.insert(all1.end(), v.begin(), v.end());
  for (const auto& v : w.t2) all2.insert(all2.end(), v.begin(), v.end());
  // Every return matches exactly one sale, within [0, 9] days.
  WindowJoinQuery q{0, 10, true};
  EXPECT_EQ(CountFull(q, all1, all2),
            w.total_view_entries);
  EXPECT_EQ(w.total_view_entries, w.total_t2);
}

TEST(TpcDsGeneratorTest, DeterministicBySeed) {
  TpcDsParams p;
  p.steps = 50;
  const GeneratedWorkload a = GenerateTpcDs(p);
  const GeneratedWorkload b = GenerateTpcDs(p);
  EXPECT_EQ(a.total_t1, b.total_t1);
  EXPECT_EQ(a.total_view_entries, b.total_view_entries);
  p.seed = 1234;
  const GeneratedWorkload c = GenerateTpcDs(p);
  EXPECT_NE(a.total_t1, c.total_t1);
}

TEST(TpcDsGeneratorTest, SparseAndBurstScaleViewEntries) {
  TpcDsParams p;
  p.steps = 1500;
  const double base = GenerateTpcDs(p).avg_view_entries_per_step();
  p.view_rate_scale = 0.1;
  const double sparse = GenerateTpcDs(p).avg_view_entries_per_step();
  p.view_rate_scale = 2.0;
  const double burst = GenerateTpcDs(p).avg_view_entries_per_step();
  EXPECT_NEAR(sparse / base, 0.1, 0.05);
  EXPECT_NEAR(burst / base, 2.0, 0.25);
}

TEST(TpcDsGeneratorTest, ScaleGrowsStream) {
  TpcDsParams p;
  p.steps = 500;
  const uint64_t base = GenerateTpcDs(p).total_t1;
  p.scale = 4.0;
  const uint64_t big = GenerateTpcDs(p).total_t1;
  EXPECT_NEAR(static_cast<double>(big) / base, 4.0, 0.5);
}

TEST(CpdbGeneratorTest, MatchesPaperViewEntryRate) {
  CpdbParams p;
  p.steps = 1500;
  const GeneratedWorkload w = GenerateCpdb(p);
  // Paper: ~9.8 new view entries per step.
  EXPECT_NEAR(w.avg_view_entries_per_step(), 9.8, 1.2);
}

TEST(CpdbGeneratorTest, AwardsStayInWindowAndEligibility) {
  CpdbParams p;
  p.steps = 300;
  const GeneratedWorkload w = GenerateCpdb(p);
  // Index allegations by key.
  std::vector<LogicalRecord> all1;
  for (const auto& v : w.t1) all1.insert(all1.end(), v.begin(), v.end());
  std::vector<LogicalRecord> all2;
  for (const auto& v : w.t2) all2.insert(all2.end(), v.begin(), v.end());
  std::unordered_map<Word, std::vector<size_t>> idx;
  for (size_t i = 0; i < all1.size(); ++i) idx[all1[i].key].push_back(i);
  uint32_t checked = 0;
  for (const auto& award : all2) {
    const auto hits = idx.find(award.key);
    ASSERT_NE(hits, idx.end());
    ASSERT_EQ(hits->second.size(), 1u);  // unique officer per allegation
    const LogicalRecord& alleg = all1[hits->second[0]];
    EXPECT_GE(award.date, alleg.date);
    EXPECT_LE(award.date - alleg.date, 10u);          // window
    EXPECT_LE(award.step, alleg.step + 1);            // eligibility
    ++checked;
  }
  EXPECT_GT(checked, 100u);
}

TEST(CpdbGeneratorTest, MultiplicityBoundedByMaxAwards) {
  CpdbParams p;
  p.steps = 300;
  const GeneratedWorkload w = GenerateCpdb(p);
  std::unordered_map<Word, uint32_t> per_officer;
  for (const auto& v : w.t2)
    for (const auto& award : v) ++per_officer[award.key];
  for (const auto& [key, count] : per_officer) {
    EXPECT_LE(count, p.max_awards) << key;
  }
}

TEST(CpdbGeneratorTest, SparseScalesRate) {
  CpdbParams p;
  p.steps = 1000;
  const double base = GenerateCpdb(p).avg_view_entries_per_step();
  p.view_rate_scale = 0.1;
  const double sparse = GenerateCpdb(p).avg_view_entries_per_step();
  EXPECT_NEAR(sparse / base, 0.1, 0.06);
}

TEST(DefaultConfigTest, TpcDsMatchesPaperParameters) {
  const IncShrinkConfig cfg = DefaultTpcDsConfig();
  EXPECT_TRUE(cfg.Validate().ok());
  EXPECT_DOUBLE_EQ(cfg.eps, 1.5);
  EXPECT_EQ(cfg.omega, 1u);
  EXPECT_EQ(cfg.budget_b, 10u);
  EXPECT_EQ(cfg.timer_T, 10u);
  EXPECT_DOUBLE_EQ(cfg.ant_theta, 30);
  EXPECT_FALSE(cfg.t2_is_public);
}

TEST(DefaultConfigTest, CpdbMatchesPaperParameters) {
  const IncShrinkConfig cfg = DefaultCpdbConfig();
  EXPECT_TRUE(cfg.Validate().ok());
  EXPECT_EQ(cfg.omega, 10u);
  EXPECT_EQ(cfg.budget_b, 20u);
  EXPECT_EQ(cfg.timer_T, 3u);
  EXPECT_TRUE(cfg.t2_is_public);
  EXPECT_FALSE(cfg.join.cap_t2);
}

TEST(ZipfTest, WeightsNormalizedAndMonotone) {
  for (const double s : {0.0, 0.8, 1.0, 1.6}) {
    SCOPED_TRACE(s);
    const std::vector<double> w = ZipfWeights(12, s);
    ASSERT_EQ(w.size(), 12u);
    double sum = 0.0;
    for (size_t r = 0; r < w.size(); ++r) {
      EXPECT_GT(w[r], 0.0);
      if (r > 0) {
        EXPECT_LE(w[r], w[r - 1]);  // rank-ordered skew
      }
      sum += w[r];
    }
    EXPECT_NEAR(sum, 12.0, 1e-9);  // mean-1 normalization
  }
  // s = 0 is the uniform fleet.
  for (const double v : ZipfWeights(5, 0.0)) EXPECT_DOUBLE_EQ(v, 1.0);
  // Classic s = 1 head/tail ratio: w[0]/w[k-1] = k.
  const std::vector<double> harmonic = ZipfWeights(8, 1.0);
  EXPECT_NEAR(harmonic[0] / harmonic[7], 8.0, 1e-9);
}

TEST(ZipfTest, SamplerHistogramPinnedForFixedSeed) {
  // CDF inversion over the seeded Rng is the sampler's only entropy source,
  // so this histogram is a bitwise-stable function of (n, s, seed, draws) —
  // any change to the sampler or the Rng shows up here.
  ZipfSampler sampler(4, 1.0);
  ASSERT_EQ(sampler.n(), 4u);
  // pmf is the mean-1 weight vector scaled by 1/n: proportional to 1/r.
  EXPECT_NEAR(sampler.pmf()[0], 2.0 * sampler.pmf()[1], 1e-9);
  EXPECT_NEAR(sampler.pmf()[0], 4.0 * sampler.pmf()[3], 1e-9);
  Rng rng(99);
  std::vector<uint64_t> hist(4, 0);
  for (int i = 0; i < 1000; ++i) ++hist[sampler.Sample(&rng)];
  const std::vector<uint64_t> expected = {480, 249, 168, 103};
  EXPECT_EQ(hist, expected);
  // Head-heavy ordering holds even at this sample size.
  EXPECT_GT(hist[0], hist[1]);
  EXPECT_GT(hist[1], hist[3]);
}

TEST(ZipfTest, FleetWorkloadsSkewedAndDeterministic) {
  ZipfFleetParams p;
  p.num_tenants = 4;
  p.s = 1.2;
  p.steps = 60;
  p.seed = 5;
  const std::vector<GeneratedWorkload> fleet = GenerateZipfFleetWorkloads(p);
  ASSERT_EQ(fleet.size(), p.num_tenants);
  // Per-tenant totals, pinned for this exact (seed, s, steps): regenerating
  // must be bit-stable, and the hot head must dominate the tail.
  const std::vector<uint64_t> expected_t1 = {785, 318, 215, 151};
  for (size_t i = 0; i < fleet.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(fleet[i].steps(), p.steps);
    EXPECT_EQ(fleet[i].total_t1, expected_t1[i]);
  }
  EXPECT_GT(fleet[0].total_t1, 3 * fleet[3].total_t1);
  const std::vector<GeneratedWorkload> again = GenerateZipfFleetWorkloads(p);
  for (size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_EQ(again[i].total_t1, fleet[i].total_t1);
    EXPECT_EQ(again[i].total_view_entries, fleet[i].total_view_entries);
  }
  // Tenant streams are independent: different seeds, different realizations.
  EXPECT_NE(fleet[1].total_t1 * 1000 + fleet[1].total_t2,
            fleet[2].total_t1 * 1000 + fleet[2].total_t2);
}

TEST(DefaultConfigTest, ScaleConfigBatches) {
  IncShrinkConfig cfg = DefaultTpcDsConfig();
  const uint32_t base1 = cfg.upload_rows_t1;
  ScaleConfigBatches(&cfg, 2.0);
  EXPECT_EQ(cfg.upload_rows_t1, base1 * 2);
  ScaleConfigBatches(&cfg, 0.1);
  EXPECT_GE(cfg.upload_rows_t1, 1u);  // never zero
}

}  // namespace
}  // namespace incshrink
