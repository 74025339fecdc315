// Oblivious-ops leakage invariants (build-system bring-up satellite).
//
// The paper's leakage model allows an admissible adversary to observe only
// the *sizes* of the secure arrays each operator touches — never anything
// data-dependent. This suite pins that down operationally: for any two
// inputs of the same public cardinality, every oblivious operator must
// produce (a) the same output length and (b) the same protocol trace
// (AND gates, XOR gates, bytes, rounds). A data-dependent branch anywhere
// in sort/filter/join would show up as diverging gate counts.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/core/fleet.h"
#include "src/core/owner_client.h"
#include "src/mpc/cost_model.h"
#include "src/mpc/party.h"
#include "src/mpc/protocol.h"
#include "src/oblivious/cache_ops.h"
#include "src/oblivious/filter.h"
#include "src/oblivious/formats.h"
#include "src/oblivious/join.h"
#include "src/oblivious/sort.h"
#include "src/relational/encode.h"

namespace incshrink {
namespace {

struct TraceResult {
  size_t out_rows = 0;
  CircuitStats stats;
};

void ExpectSameTrace(const TraceResult& a, const TraceResult& b,
                     const char* what) {
  EXPECT_EQ(a.out_rows, b.out_rows) << what << ": output length leaked";
  EXPECT_EQ(a.stats.and_gates, b.stats.and_gates) << what << ": AND gates";
  EXPECT_EQ(a.stats.xor_gates, b.stats.xor_gates) << what << ": XOR gates";
  EXPECT_EQ(a.stats.bytes, b.stats.bytes) << what << ": bytes";
  EXPECT_EQ(a.stats.rounds, b.stats.rounds) << what << ": rounds";
}

// Builds `n` random source-format rows; `density` controls how many are real
// (the data-dependent quantity that must NOT influence any trace).
SharedRows MakeSourceRows(size_t n, double density, Rng* rng) {
  SharedRows rows(kSrcWidth);
  uint32_t rid = 1;
  for (size_t i = 0; i < n; ++i) {
    if (rng->Bernoulli(density)) {
      LogicalRecord rec;
      rec.rid = rid++;
      rec.key = rng->Next32() % 64;  // few keys -> many joins at density 1
      rec.date = rng->Next32() % 30;
      rec.payload = rng->Next32();
      rows.AppendSecretRow(EncodeSourceRow(rec), rng);
    } else {
      rows.AppendSecretRow(MakeDummySourceRow(rng), rng);
    }
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

TEST(ObliviousInvariantsTest, SortTraceIndependentOfData) {
  constexpr size_t kN = 96;
  auto run = [&](uint64_t seed, double density) {
    Party s0(0, seed), s1(1, seed + 1);
    Protocol2PC proto(&s0, &s1, CostModel::Free());
    Rng rng(seed + 2);
    SharedRows rows = MakeSourceRows(kN, density, &rng);
    ObliviousSort(&proto, &rows, kSrcKeyCol, true);
    return TraceResult{rows.size(), proto.stats()};
  };
  const TraceResult base = run(1, 0.5);
  ExpectSameTrace(base, run(999, 0.5), "sort(other data)");
  ExpectSameTrace(base, run(1, 0.0), "sort(all dummies)");
  ExpectSameTrace(base, run(5, 1.0), "sort(all real)");
  EXPECT_EQ(base.stats.and_gates % SortNetworkCompareExchanges(kN), 0u)
      << "sort cost should be a per-exchange multiple of the network size";
}

// ---------------------------------------------------------------------------
// Selection / count
// ---------------------------------------------------------------------------

/// Every predicate constructor, two empty ranges and a two-term
/// conjunction: none of them may make the trace depend on the data.
std::vector<std::pair<std::string, ObliviousPredicate>> PredicateShapes() {
  using P = ObliviousPredicate;
  return {{"True", P::True()},
          {"Less", P::ColumnLess(kSrcDateCol, 10)},
          {"GreaterEq", P::ColumnGreaterEq(kSrcDateCol, 10)},
          {"Equals", P::ColumnEquals(kSrcKeyCol, 7)},
          {"Between", P::ColumnBetween(kSrcDateCol, 5, 15)},
          {"Between(empty)", P::ColumnBetween(kSrcDateCol, 15, 5)},
          {"Less(empty)", P::ColumnLess(kSrcDateCol, 0)},
          {"AndThen", P::AndThen(P::ColumnGreaterEq(kSrcDateCol, 3),
                                 P::ColumnLess(kSrcKeyCol, 32))}};
}

/// A trace plus where the operator left the resharing stream.
struct StreamTrace {
  TraceResult trace;
  RngState stream;
};

/// Same stats and same stream position: the operator drew exactly as many
/// resharing words for one secret input as for the other.
void ExpectSameStreamTrace(const StreamTrace& a, const StreamTrace& b,
                           const char* what) {
  ExpectSameTrace(a.trace, b.trace, what);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a.stream.s[i], b.stream.s[i]) << what << ": stream word " << i;
  }
}

/// Runs `op` over `n` fresh source rows drawn from `data_seed` at
/// `density`, on a protocol whose stream is seeded by `proto_seed`.
template <typename Op>
StreamTrace RunOnRows(size_t n, uint64_t proto_seed, uint64_t data_seed,
                      double density, Op&& op) {
  Party s0(0, proto_seed), s1(1, proto_seed + 1);
  Protocol2PC proto(&s0, &s1, CostModel::Free());
  Rng rng(data_seed);
  SharedRows rows = MakeSourceRows(n, density, &rng);
  op(&proto, &rows);
  return StreamTrace{TraceResult{rows.size(), proto.stats()},
                     proto.internal_rng()->ExportState()};
}

TEST(ObliviousInvariantsTest, SelectTraceIndependentOfData) {
  constexpr size_t kN = 80;
  for (const auto& [name, pred] : PredicateShapes()) {
    SCOPED_TRACE(name);
    const auto select = [&pred](Protocol2PC* proto, SharedRows* rows) {
      ObliviousSelect(proto, rows, kSrcValidCol, pred);
    };
    const StreamTrace base = RunOnRows(kN, 3, 5, 0.5, select);
    ExpectSameStreamTrace(base, RunOnRows(kN, 3, 1234, 0.5, select),
                          "select(other data)");
    ExpectSameStreamTrace(base, RunOnRows(kN, 3, 5, 0.0, select),
                          "select(none match)");
    ExpectSameStreamTrace(base, RunOnRows(kN, 3, 5, 1.0, select),
                          "select(all real)");
    ExpectSameTrace(base.trace, RunOnRows(kN, 1234, 5, 0.5, select).trace,
                    "select(other protocol seed)");
    EXPECT_EQ(base.trace.out_rows, kN)
        << "selection must not shrink its input";
  }
}

TEST(ObliviousInvariantsTest, CountWhereTraceIndependentOfData) {
  constexpr size_t kN = 80;
  for (const auto& [name, pred] : PredicateShapes()) {
    SCOPED_TRACE(name);
    const auto count = [&pred](Protocol2PC* proto, SharedRows* rows) {
      (void)ObliviousCountWhere(proto, *rows, kSrcValidCol, pred);
    };
    const StreamTrace base = RunOnRows(kN, 7, 9, 0.3, count);
    ExpectSameStreamTrace(base, RunOnRows(kN, 7, 1009, 0.9, count),
                          "count-where(other data)");
    ExpectSameStreamTrace(base, RunOnRows(kN, 7, 9, 0.0, count),
                          "count-where(none real)");
    ExpectSameStreamTrace(base, RunOnRows(kN, 7, 9, 1.0, count),
                          "count-where(all real)");
    ExpectSameTrace(base.trace, RunOnRows(kN, 1007, 9, 0.3, count).trace,
                    "count-where(other protocol seed)");
  }
}

// ---------------------------------------------------------------------------
// Joins: output size must be a function of public cardinalities only
// ---------------------------------------------------------------------------

class JoinInvariantsTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(JoinInvariantsTest, SortMergeJoinTraceIndependentOfData) {
  const uint32_t omega = GetParam();
  constexpr size_t kN1 = 40, kN2 = 24;
  JoinSpec spec;
  spec.omega = omega;
  auto run = [&](uint64_t seed, double density) {
    Party s0(0, seed), s1(1, seed + 1);
    Protocol2PC proto(&s0, &s1, CostModel::Free());
    Rng rng(seed + 2);
    SharedRows t1 = MakeSourceRows(kN1, density, &rng);
    SharedRows t2 = MakeSourceRows(kN2, density, &rng);
    uint64_t seq = 0;
    JoinResult res = TruncatedSortMergeJoin(&proto, t1, t2, spec, &seq);
    return TraceResult{res.rows.size(), proto.stats()};
  };
  const TraceResult base = run(11, 0.5);
  // Paper invariant: |output| = omega * (|t1| + |t2|), content-independent.
  EXPECT_EQ(base.out_rows, omega * (kN1 + kN2));
  ExpectSameTrace(base, run(2048, 0.5), "smj(other data)");
  ExpectSameTrace(base, run(11, 0.0), "smj(no real rows)");
  ExpectSameTrace(base, run(11, 1.0), "smj(every row real)");
}

TEST_P(JoinInvariantsTest, NestedLoopJoinTraceIndependentOfData) {
  const uint32_t omega = GetParam();
  constexpr size_t kN1 = 12, kN2 = 10;
  JoinSpec spec;
  spec.omega = omega;
  auto run = [&](uint64_t seed, double density) {
    Party s0(0, seed), s1(1, seed + 1);
    Protocol2PC proto(&s0, &s1, CostModel::Free());
    Rng rng(seed + 2);
    // Nested-loop inputs carry a per-row budget column appended to the
    // source format.
    SharedRows t1(kSrcWidth + 1), t2(kSrcWidth + 1);
    auto fill = [&](SharedRows* t, size_t n) {
      for (size_t i = 0; i < n; ++i) {
        std::vector<Word> row =
            rng.Bernoulli(density)
                ? EncodeSourceRow({0, static_cast<Word>(i + 1),
                                   rng.Next32() % 16, rng.Next32() % 30,
                                   rng.Next32()})
                : MakeDummySourceRow(&rng);
        row.push_back(omega);  // remaining contribution budget
        t->AppendSecretRow(row, &rng);
      }
    };
    fill(&t1, kN1);
    fill(&t2, kN2);
    uint64_t seq = 0;
    JoinResult res = TruncatedNestedLoopJoin(&proto, &t1, &t2, kSrcWidth,
                                             kSrcWidth, spec, &seq);
    return TraceResult{res.rows.size(), proto.stats()};
  };
  const TraceResult base = run(21, 0.5);
  // Paper Algorithm 4: |output| = omega * |t1| regardless of content.
  EXPECT_EQ(base.out_rows, omega * kN1);
  ExpectSameTrace(base, run(4096, 0.5), "nlj(other data)");
  ExpectSameTrace(base, run(21, 0.0), "nlj(no real rows)");
  ExpectSameTrace(base, run(21, 1.0), "nlj(every row real)");
}

INSTANTIATE_TEST_SUITE_P(Omegas, JoinInvariantsTest,
                         ::testing::Values(1u, 3u));

// ---------------------------------------------------------------------------
// Cache read / flush: prefix length is public, trace is data-independent
// ---------------------------------------------------------------------------

TEST(ObliviousInvariantsTest, CacheReadTraceIndependentOfData) {
  constexpr size_t kCache = 64, kRead = 20;
  auto run = [&](uint64_t seed, double density) {
    Party s0(0, seed), s1(1, seed + 1);
    Protocol2PC proto(&s0, &s1, CostModel::Free());
    Rng rng(seed + 2);
    SharedRows cache(kViewWidth);
    uint64_t seq = 0;
    for (size_t i = 0; i < kCache; ++i) {
      const bool real = rng.Bernoulli(density);
      std::vector<Word> row(kViewWidth, 0);
      row[kViewIsViewCol] = real;
      row[kViewSortKeyCol] = MakeCacheSortKey(real, seq++);
      for (size_t c = kViewKeyCol; c < kViewWidth; ++c) row[c] = rng.Next32();
      cache.AppendSecretRow(row, &rng);
    }
    SharedRows got = ObliviousCacheRead(&proto, &cache, kRead);
    EXPECT_EQ(got.size(), kRead);
    EXPECT_EQ(cache.size(), kCache - kRead);
    return TraceResult{got.size(), proto.stats()};
  };
  const TraceResult base = run(41, 0.5);
  ExpectSameTrace(base, run(977, 0.5), "cache-read(other data)");
  ExpectSameTrace(base, run(41, 0.0), "cache-read(all dummies)");
  ExpectSameTrace(base, run(41, 1.0), "cache-read(all real)");
}

TEST(ObliviousInvariantsTest, FullJoinCountTraceIndependentOfData) {
  constexpr size_t kN1 = 32, kN2 = 16;
  JoinSpec spec;
  auto run = [&](uint64_t seed, double density) {
    Party s0(0, seed), s1(1, seed + 1);
    Protocol2PC proto(&s0, &s1, CostModel::Free());
    Rng rng(seed + 2);
    SharedRows t1 = MakeSourceRows(kN1, density, &rng);
    SharedRows t2 = MakeSourceRows(kN2, density, &rng);
    (void)ObliviousJoinCountFull(&proto, t1, t2, spec);
    return TraceResult{0, proto.stats()};
  };
  ExpectSameTrace(run(31, 0.2), run(8191, 0.95), "full-join-count");
}

// ---------------------------------------------------------------------------
// Fleet scheduler: the service order is a function of public state only
// ---------------------------------------------------------------------------

// Same-cardinality rewrite of a stream: every record keeps its arrival step
// (so per-step upload counts — the public sizes — are unchanged) while the
// secret contents diverge: payloads are XOR-scrambled and T2 join keys are
// shifted out of range, destroying most join matches. True counts, cache
// contents and sDPANT's data-dependent firing pattern all change; nothing
// public does.
GeneratedWorkload ScrambleSecretContents(const GeneratedWorkload& in) {
  GeneratedWorkload out = in;
  for (auto& step : out.t1) {
    for (LogicalRecord& r : step) r.payload ^= 0xDEADBEEFu;
  }
  for (auto& step : out.t2) {
    for (LogicalRecord& r : step) {
      r.payload ^= 0xDEADBEEFu;
      r.key += 1u << 20;  // no longer matches any T1 key; still in-ring
    }
  }
  out.total_view_entries = 0;  // metadata only; the fleet never reads it
  return out;
}

TEST(ObliviousInvariantsTest, FleetScheduleIndependentOfSecretContents) {
  // Two priority-scheduled fleets over equal-shaped streams with different
  // secret contents must log the *identical* round-by-round service
  // schedule: the scheduler's inputs (queue depths, engine clocks, config
  // weights, age counters) are all public, so the schedule cannot be a
  // leakage channel — even with sDPANT tenants whose internal firing
  // pattern genuinely diverges between the two runs.
  const GeneratedWorkload base = [] {
    TpcDsParams p;
    p.steps = 40;
    p.seed = 21;
    return GenerateTpcDs(p);
  }();
  const GeneratedWorkload scrambled = ScrambleSecretContents(base);

  auto make_fleet = [](const GeneratedWorkload* w) {
    std::vector<DeploymentFleet::TenantSpec> specs(4);
    const Strategy kStrategies[] = {Strategy::kDpTimer, Strategy::kDpAnt,
                                    Strategy::kDpAnt, Strategy::kDpTimer};
    const uint32_t kWeights[] = {1, 4, 2, 8};
    for (size_t i = 0; i < specs.size(); ++i) {
      specs[i].name = std::string("tenant") + std::to_string(i);
      specs[i].config = DefaultTpcDsConfig();
      specs[i].config.strategy = kStrategies[i];
      specs[i].config.flush_interval = 16;
      specs[i].config.sla_weight = kWeights[i];
      specs[i].workload = w;
    }
    DeploymentFleet::Options o;
    o.root_seed = 77;
    o.num_threads = 2;
    o.owner_lead = 4;
    o.scheduler.enabled = true;
    o.scheduler.services_per_round = 1;
    o.scheduler.aging_weight = 2;
    o.scheduler.deadline_horizon = 8;
    return std::make_unique<DeploymentFleet>(std::move(specs), o);
  };

  auto fleet_a = make_fleet(&base);
  auto fleet_b = make_fleet(&scrambled);
  fleet_a->RunAll();
  fleet_b->RunAll();

  // The secret observables really diverged (the test is not vacuous)...
  bool some_truth_differs = false;
  for (size_t i = 0; i < fleet_a->num_tenants(); ++i) {
    if (fleet_a->TenantSummary(i).final_true_count !=
        fleet_b->TenantSummary(i).final_true_count) {
      some_truth_differs = true;
    }
  }
  EXPECT_TRUE(some_truth_differs)
      << "scrambling should have changed the true join counts";

  // ...yet the public schedule is bit-identical.
  EXPECT_EQ(fleet_a->schedule_log(), fleet_b->schedule_log());
  const auto stats_a = fleet_a->AggregateStats();
  const auto stats_b = fleet_b->AggregateStats();
  EXPECT_EQ(stats_a.rounds, stats_b.rounds);
  EXPECT_EQ(stats_a.engine_steps, stats_b.engine_steps);
  EXPECT_EQ(stats_a.max_queue_depth, stats_b.max_queue_depth);
  ASSERT_EQ(stats_a.tenant_service.size(), stats_b.tenant_service.size());
  for (size_t i = 0; i < stats_a.tenant_service.size(); ++i) {
    EXPECT_EQ(stats_a.tenant_service[i].services,
              stats_b.tenant_service[i].services);
    EXPECT_EQ(stats_a.tenant_service[i].gap_max,
              stats_b.tenant_service[i].gap_max);
  }
}

// ---------------------------------------------------------------------------
// Outsourced-store retention: eviction is a function of public state only
// ---------------------------------------------------------------------------

TEST(ObliviousInvariantsTest, StoreEvictionIndependentOfSecretContents) {
  // Two sDPANT deployments over equal-shaped streams with different secret
  // contents: their firings, true counts and cache contents diverge, yet the
  // stores must evict at identical steps — the retention floor reads only
  // the public clock and config, so eviction cannot become a leakage
  // channel.
  const GeneratedWorkload base = [] {
    TpcDsParams p;
    p.steps = 40;
    p.seed = 23;
    return GenerateTpcDs(p);
  }();
  const GeneratedWorkload scrambled = ScrambleSecretContents(base);

  struct Trace {
    std::vector<uint64_t> first_retained;  ///< store1, store2 per step
    uint64_t final_true_count = 0;
  };
  auto run = [](const GeneratedWorkload& w) {
    IncShrinkConfig cfg = DefaultTpcDsConfig();
    cfg.strategy = Strategy::kDpAnt;
    SynchronousDeployment d(cfg);
    Trace trace;
    for (size_t t = 0; t < w.t1.size(); ++t) {
      EXPECT_TRUE(d.Step(w.t1[t], w.t2[t]).ok());
      trace.first_retained.push_back(d.engine().store1().first_retained());
      trace.first_retained.push_back(d.engine().store2().first_retained());
    }
    trace.final_true_count = d.Summary().final_true_count;
    return trace;
  };
  const Trace a = run(base);
  const Trace b = run(scrambled);
  EXPECT_NE(a.final_true_count, b.final_true_count)
      << "scrambling should have changed the true join count";
  EXPECT_EQ(a.first_retained, b.first_retained);
  EXPECT_GT(a.first_retained.back(), 0u) << "the run never evicted";
}

}  // namespace
}  // namespace incshrink
