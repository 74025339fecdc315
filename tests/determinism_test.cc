// Deterministic-seed audit (build-system bring-up satellite).
//
// Every randomized component of the repository must draw exclusively from
// the seedable `Rng` (src/common/rng.h): re-running any pipeline with the
// same seed must reproduce the *identical* transcript, bit for bit. A single
// hidden OS-entropy draw or time-based seed anywhere in the stack would make
// these comparisons flake, so this suite doubles as a regression tripwire
// against nondeterminism sneaking into future PRs (the static half of the
// audit is the pattern rules in tools/lint/secret_api.toml).

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/core/config.h"
#include "src/core/engine.h"
#include "src/core/owner_client.h"
#include "src/dp/laplace.h"
#include "src/dp/mechanisms.h"
#include "src/dp/svt.h"
#include "src/dp/transcript.h"
#include "src/mpc/party.h"
#include "src/mpc/protocol.h"
#include "src/oblivious/sort.h"
#include "src/workload/generators.h"

namespace incshrink {
namespace {

// ---------------------------------------------------------------------------
// Rng core: identical streams across every sampler
// ---------------------------------------------------------------------------

TEST(DeterminismTest, RngStreamsIdenticalForSameSeed) {
  for (uint64_t seed : {0ull, 1ull, 42ull, 0xDEADBEEFull}) {
    Rng a(seed), b(seed);
    for (int i = 0; i < 2000; ++i) {
      EXPECT_EQ(a.Next64(), b.Next64());
    }
    // Exercise every sampler; any drift desynchronizes the streams and the
    // trailing raw-word comparison catches it.
    for (int i = 0; i < 500; ++i) {
      EXPECT_EQ(a.Uniform(97), b.Uniform(97));
      EXPECT_DOUBLE_EQ(a.NextDouble(), b.NextDouble());
      EXPECT_DOUBLE_EQ(a.NextDoubleOpen(), b.NextDoubleOpen());
      EXPECT_DOUBLE_EQ(a.Exponential(3.0), b.Exponential(3.0));
      EXPECT_DOUBLE_EQ(a.Laplace(2.0), b.Laplace(2.0));
      EXPECT_EQ(a.Poisson(6.5), b.Poisson(6.5));
      EXPECT_DOUBLE_EQ(a.Normal(0.0, 1.0), b.Normal(0.0, 1.0));
      EXPECT_EQ(a.Bernoulli(0.3), b.Bernoulli(0.3));
    }
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(DeterminismTest, RngStreamsDivergeForDifferentSeeds) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.Next64() == b.Next64());
  EXPECT_LT(equal, 4);  // distinct seeds must yield unrelated streams
}

// ---------------------------------------------------------------------------
// Workload generators
// ---------------------------------------------------------------------------

void ExpectSameWorkload(const GeneratedWorkload& x, const GeneratedWorkload& y) {
  ASSERT_EQ(x.steps(), y.steps());
  EXPECT_EQ(x.total_t1, y.total_t1);
  EXPECT_EQ(x.total_t2, y.total_t2);
  EXPECT_EQ(x.total_view_entries, y.total_view_entries);
  for (size_t t = 0; t < x.steps(); ++t) {
    ASSERT_EQ(x.t1[t].size(), y.t1[t].size()) << "step " << t;
    ASSERT_EQ(x.t2[t].size(), y.t2[t].size()) << "step " << t;
    for (size_t i = 0; i < x.t1[t].size(); ++i) {
      EXPECT_EQ(x.t1[t][i].rid, y.t1[t][i].rid);
      EXPECT_EQ(x.t1[t][i].key, y.t1[t][i].key);
      EXPECT_EQ(x.t1[t][i].date, y.t1[t][i].date);
      EXPECT_EQ(x.t1[t][i].payload, y.t1[t][i].payload);
    }
    for (size_t i = 0; i < x.t2[t].size(); ++i) {
      EXPECT_EQ(x.t2[t][i].rid, y.t2[t][i].rid);
      EXPECT_EQ(x.t2[t][i].key, y.t2[t][i].key);
      EXPECT_EQ(x.t2[t][i].date, y.t2[t][i].date);
      EXPECT_EQ(x.t2[t][i].payload, y.t2[t][i].payload);
    }
  }
}

TEST(DeterminismTest, TpcDsGeneratorReproducible) {
  TpcDsParams params;
  params.steps = 80;
  params.seed = 123;
  ExpectSameWorkload(GenerateTpcDs(params), GenerateTpcDs(params));

  TpcDsParams bursty = params;
  bursty.bursty = true;
  ExpectSameWorkload(GenerateTpcDs(bursty), GenerateTpcDs(bursty));
}

TEST(DeterminismTest, CpdbGeneratorReproducible) {
  CpdbParams params;
  params.steps = 60;
  params.seed = 321;
  ExpectSameWorkload(GenerateCpdb(params), GenerateCpdb(params));
}

// ---------------------------------------------------------------------------
// DP mechanisms
// ---------------------------------------------------------------------------

TEST(DeterminismTest, LaplaceSamplerReproducible) {
  Rng a(99), b(99);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_DOUBLE_EQ(SampleLaplace(&a, 4.0), SampleLaplace(&b, 4.0));
  }
}

TEST(DeterminismTest, SvtTranscriptReproducible) {
  Rng ra(7), rb(7), stream_rng(11);
  NumericAboveNoisyThreshold sa(1.5, 1.0, 30.0, &ra);
  NumericAboveNoisyThreshold sb(1.5, 1.0, 30.0, &rb);
  double count = 0;
  for (int t = 0; t < 3000; ++t) {
    count += stream_rng.Poisson(2.0);
    double rel_a = 0, rel_b = 0;
    const bool fired_a = sa.Observe(count, &rel_a);
    const bool fired_b = sb.Observe(count, &rel_b);
    ASSERT_EQ(fired_a, fired_b) << "step " << t;
    if (fired_a) {
      EXPECT_DOUBLE_EQ(rel_a, rel_b);
      count = 0;
    }
    EXPECT_DOUBLE_EQ(sa.noisy_threshold(), sb.noisy_threshold());
  }
  EXPECT_EQ(sa.releases(), sb.releases());
}

template <typename Mechanism, typename... Args>
std::vector<LeakageRelease> RunMechTwiceHelper(uint64_t seed,
                                               const std::vector<uint32_t>& counts,
                                               Args... args) {
  Rng rng(seed);
  Mechanism mech(args..., &rng);
  return RunLeakageMechanism(&mech, counts);
}

TEST(DeterminismTest, LeakageMechanismsReproducible) {
  Rng stream_rng(5);
  std::vector<uint32_t> counts(2000);
  for (auto& c : counts) c = static_cast<uint32_t>(stream_rng.Poisson(2.7));

  const auto timer_a = RunMechTwiceHelper<TimerLeakageMechanism>(
      17, counts, 1.5, 10.0, uint64_t{10});
  const auto timer_b = RunMechTwiceHelper<TimerLeakageMechanism>(
      17, counts, 1.5, 10.0, uint64_t{10});
  ASSERT_EQ(timer_a.size(), timer_b.size());
  for (size_t i = 0; i < timer_a.size(); ++i) {
    EXPECT_EQ(timer_a[i].t, timer_b[i].t);
    EXPECT_EQ(timer_a[i].size, timer_b[i].size);
    EXPECT_EQ(timer_a[i].fired, timer_b[i].fired);
  }

  const auto ant_a =
      RunMechTwiceHelper<AntLeakageMechanism>(19, counts, 1.5, 10.0, 30.0);
  const auto ant_b =
      RunMechTwiceHelper<AntLeakageMechanism>(19, counts, 1.5, 10.0, 30.0);
  ASSERT_EQ(ant_a.size(), ant_b.size());
  for (size_t i = 0; i < ant_a.size(); ++i) {
    EXPECT_EQ(ant_a[i].t, ant_b[i].t);
    EXPECT_EQ(ant_a[i].size, ant_b[i].size);
    EXPECT_EQ(ant_a[i].fired, ant_b[i].fired);
  }
}

// ---------------------------------------------------------------------------
// Oblivious layer: identical share streams and cost traces
// ---------------------------------------------------------------------------

TEST(DeterminismTest, ObliviousSortSharesReproducible) {
  auto run = [] {
    Party s0(0, 100), s1(1, 200);
    Protocol2PC proto(&s0, &s1, CostModel::Free());
    Rng rng(300);
    SharedRows rows(3);
    for (int i = 0; i < 64; ++i) {
      rows.AppendSecretRow({rng.Next32() % 40, rng.Next32(), rng.Next32()},
                           &rng);
    }
    ObliviousSort(&proto, &rows, 0, true);
    std::vector<Word> raw;
    for (size_t i = 0; i < rows.size(); ++i) {
      raw.push_back(rows.RecoverAt(i, 0));
      raw.push_back(rows.RecoverAt(i, 1));
    }
    raw.push_back(static_cast<Word>(proto.stats().and_gates));
    raw.push_back(static_cast<Word>(proto.stats().bytes));
    return raw;
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// Full engine: the observable transcript is a pure function of the seed
// ---------------------------------------------------------------------------

class EngineDeterminismTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(EngineDeterminismTest, TranscriptAndMetricsReproducible) {
  TpcDsParams wparams;
  wparams.steps = 50;
  wparams.seed = 77;
  const GeneratedWorkload workload = GenerateTpcDs(wparams);

  IncShrinkConfig config = DefaultTpcDsConfig();
  config.strategy = GetParam();
  config.seed = 4242;
  config.flush_interval = 20;  // exercise flushes inside the short stream

  SynchronousDeployment d1(config);
  ASSERT_TRUE(d1.Run(workload.t1, workload.t2).ok());
  SynchronousDeployment d2(config);
  ASSERT_TRUE(d2.Run(workload.t1, workload.t2).ok());
  const Engine& e1 = d1.engine();
  const Engine& e2 = d2.engine();

  // Transcript: exactly equal, event by event.
  ASSERT_EQ(e1.transcript().size(), e2.transcript().size());
  for (size_t i = 0; i < e1.transcript().size(); ++i) {
    EXPECT_EQ(e1.transcript()[i], e2.transcript()[i])
        << "event " << i << " kind "
        << TranscriptKindName(e1.transcript()[i].kind);
  }

  // DP releases: exactly equal.
  ASSERT_EQ(e1.releases().size(), e2.releases().size());
  for (size_t i = 0; i < e1.releases().size(); ++i) {
    EXPECT_EQ(e1.releases()[i].t, e2.releases()[i].t);
    EXPECT_EQ(e1.releases()[i].size, e2.releases()[i].size);
    EXPECT_EQ(e1.releases()[i].fired, e2.releases()[i].fired);
  }

  // Step metrics: answers, truth and sizes all identical.
  ASSERT_EQ(e1.step_metrics().size(), e2.step_metrics().size());
  for (size_t i = 0; i < e1.step_metrics().size(); ++i) {
    const StepMetrics& m1 = e1.step_metrics()[i];
    const StepMetrics& m2 = e2.step_metrics()[i];
    EXPECT_EQ(m1.true_count, m2.true_count) << "step " << i;
    EXPECT_EQ(m1.view_answer, m2.view_answer) << "step " << i;
    EXPECT_EQ(m1.view_rows, m2.view_rows) << "step " << i;
    EXPECT_EQ(m1.cache_rows, m2.cache_rows) << "step " << i;
    EXPECT_EQ(m1.synced, m2.synced) << "step " << i;
    EXPECT_EQ(m1.sync_rows, m2.sync_rows) << "step " << i;
    EXPECT_EQ(m1.flushed, m2.flushed) << "step " << i;
  }

  // Simulated MPC cost is a deterministic function of the trace.
  EXPECT_DOUBLE_EQ(e1.Summary().total_mpc_seconds,
                   e2.Summary().total_mpc_seconds);
}

INSTANTIATE_TEST_SUITE_P(Strategies, EngineDeterminismTest,
                         ::testing::Values(Strategy::kDpTimer, Strategy::kDpAnt,
                                           Strategy::kEp));

}  // namespace
}  // namespace incshrink
