// Batched-oblivious-execution equivalence suite: the layer-vectorized batch
// path must be *bit-identical* to the scalar per-op path — same output
// shares, same revealed values, same internal randomness stream, same
// aggregate circuit cost — at any thread count and any batch threshold.
//
//   * layer structure: every (p, k) pass of Batcher's network is one batch
//     whose pairs are disjoint; per-layer sizes sum to the total
//     compare-exchange count for every n in [0, 257];
//   * kernel equality: batched sort / lex-sort / mux / count vs their
//     scalar reference implementations at 1 / 2 / 8 threads;
//   * cross-shard and multi-job fusion: ObliviousSortBatch over many jobs
//     equals each job sorted alone;
//   * engine equality: the `oblivious_batch_min_layer` knob is inert for
//     all three DP strategies (sort, lex-sort and count all sit on the
//     engine's hot path);
//   * fleet equality: cross-tenant sort coalescing reproduces the unfused
//     fleet bit for bit and actually fuses jobs.
//
// Runs under the TSan CI job together with the parallel/sharded suites.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/engine.h"
#include "src/core/fleet.h"
#include "src/core/owner_client.h"
#include "src/mpc/party.h"
#include "src/mpc/protocol.h"
#include "src/oblivious/filter.h"
#include "src/oblivious/formats.h"
#include "src/oblivious/sort.h"
#include "src/workload/generators.h"

namespace incshrink {
namespace {

void ExpectStatsEqual(const CircuitStats& a, const CircuitStats& b) {
  EXPECT_EQ(a.and_gates, b.and_gates);
  EXPECT_EQ(a.xor_gates, b.xor_gates);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.rounds, b.rounds);
}

/// Shares (and, because XOR recovery is share-determined, revealed values)
/// of two tables must agree word for word.
void ExpectRowsIdentical(const SharedRows& a, const SharedRows& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.width(), b.width());
  EXPECT_EQ(a.shares0(), b.shares0());
  EXPECT_EQ(a.shares1(), b.shares1());
  for (size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a.RecoverRow(r), b.RecoverRow(r)) << "row " << r;
  }
}

SharedRows RandomViewRows(Rng* rng, size_t n) {
  SharedRows rows(kViewWidth);
  uint64_t seq = 0;
  for (size_t i = 0; i < n; ++i) {
    if (rng->Bernoulli(0.4)) {
      std::vector<Word> row(kViewWidth, 0);
      row[kViewIsViewCol] = 1;
      row[kViewSortKeyCol] = MakeCacheSortKey(true, seq++);
      row[kViewKeyCol] = rng->Next32() % 97;
      rows.AppendSecretRow(row, rng);
    } else {
      AppendDummyViewRow(&rows, rng, &seq);
    }
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Layer structure of the sorting network
// ---------------------------------------------------------------------------

TEST(SortNetworkLayerTest, LayerSizesSumToTotalComparesForAllSmallN) {
  for (size_t n = 0; n <= 257; ++n) {
    const std::vector<uint64_t> sizes = SortNetworkLayerSizes(n);
    uint64_t sum = 0;
    for (const uint64_t s : sizes) sum += s;
    EXPECT_EQ(sum, SortNetworkCompareExchanges(n)) << "n=" << n;
    if (n < 2) {
      EXPECT_TRUE(sizes.empty()) << "n=" << n;
    }
  }
}

TEST(SortNetworkLayerTest, LayersAreDisjointAndOrdered) {
  for (const size_t n : {2u, 3u, 7u, 16u, 63u, 64u, 100u, 257u}) {
    const auto layers = SortNetworkLayers(n);
    uint64_t total = 0;
    for (size_t l = 0; l < layers.size(); ++l) {
      std::set<uint32_t> touched;
      for (const RowPair& pr : layers[l]) {
        EXPECT_LT(pr.a, pr.b) << "n=" << n << " layer " << l;
        EXPECT_LT(pr.b, n) << "n=" << n << " layer " << l;
        // Disjointness: no row index appears twice within one layer — the
        // property that makes a layer an order-free batch.
        EXPECT_TRUE(touched.insert(pr.a).second) << "n=" << n << " l=" << l;
        EXPECT_TRUE(touched.insert(pr.b).second) << "n=" << n << " l=" << l;
      }
      total += layers[l].size();
    }
    EXPECT_EQ(total, SortNetworkCompareExchanges(n)) << "n=" << n;
  }
}

TEST(SortNetworkLayerTest, PowerOfTwoLayerCountIsLogSquaredTriangle) {
  // For n = 2^m Batcher's network has exactly m(m+1)/2 (p, k) passes.
  for (const auto& [n, m] : std::vector<std::pair<size_t, uint64_t>>{
           {2, 1}, {4, 2}, {8, 3}, {64, 6}, {256, 8}}) {
    EXPECT_EQ(SortNetworkLayerSizes(n).size(), m * (m + 1) / 2)
        << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Batched vs scalar kernels (sort / lex-sort / mux / count)
// ---------------------------------------------------------------------------

struct ProtoPair {
  Party s0{0, 11}, s1{1, 22};
  Protocol2PC proto{&s0, &s1, CostModel::EmpLikeLan()};
};

/// Rows of `width` words: the view format at kViewWidth, otherwise
/// duplicate-heavy keys in kViewSortKeyCol (ties exercise the comparator's
/// keep-order arm) and noise elsewhere.
SharedRows RandomRows(Rng* rng, size_t n, size_t width) {
  if (width == kViewWidth) return RandomViewRows(rng, n);
  SharedRows rows(width);
  std::vector<Word> row(width);
  for (size_t i = 0; i < n; ++i) {
    for (Word& w : row) w = rng->Next32();
    row[kViewSortKeyCol] = rng->Next32() % 97;
    rows.AppendSecretRow(row, rng);
  }
  return rows;
}

/// The whole resharing-stream cursor must agree, not just the next word: a
/// serial kernel that runs on a local copy of the stream has to write back
/// exactly the state the scalar ops leave.
void ExpectRngStatesEqual(const RngState& a, const RngState& b) {
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.s[i], b.s[i]) << "word " << i;
  EXPECT_EQ(a.cached_normal_bits, b.cached_normal_bits);
  EXPECT_EQ(a.have_cached_normal, b.have_cached_normal);
}

void ExpectStreamsEqual(Protocol2PC* a, Protocol2PC* b) {
  ExpectRngStatesEqual(a->internal_rng()->ExportState(),
                       b->internal_rng()->ExportState());
}

TEST(BatchedScalarEquivalenceTest, SortMatchesScalarBitForBit) {
  for (const size_t width : {5u, 6u, 7u}) {
    for (const size_t n :
         {0u, 1u, 2u, 3u, 5u, 64u, 100u, 257u, 1000u, 4096u}) {
      for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE("width=" + std::to_string(width) +
                     " n=" + std::to_string(n) +
                     " threads=" + std::to_string(threads));
        Rng data_rng(7 + n);
        const SharedRows input = RandomRows(&data_rng, n, width);

        ProtoPair scalar;
        SharedRows a = input;
        ObliviousSortScalar(&scalar.proto, &a, kViewSortKeyCol, false);

        ProtoPair batched;
        ThreadPool pool(threads);
        SharedRows b = input;
        // min_parallel_ops = 1: force the pool-split path for every layer
        // (a 1-thread pool runs the serial kernel).
        ObliviousSort(&batched.proto, &b, kViewSortKeyCol, false,
                      BatchExec{&pool, 1});

        ExpectRowsIdentical(a, b);
        ExpectStatsEqual(scalar.proto.Snapshot(), batched.proto.Snapshot());
        ExpectStreamsEqual(&scalar.proto, &batched.proto);
      }
    }
  }
}

TEST(BatchedScalarEquivalenceTest, LexSortMatchesScalarBitForBit) {
  for (const size_t width : {4u, 5u, 6u, 7u}) {
    for (const size_t n : {0u, 2u, 5u, 64u, 100u, 257u, 1000u, 4096u}) {
      for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE("width=" + std::to_string(width) +
                     " n=" + std::to_string(n) +
                     " threads=" + std::to_string(threads));
        Rng data_rng(100 + n);
        SharedRows input(width);
        std::vector<Word> row(width);
        for (size_t i = 0; i < n; ++i) {
          row[0] = data_rng.Next32() % 13;
          row[1] = data_rng.Next32() % 7;
          for (size_t c = 2; c < width; ++c) row[c] = data_rng.Next32();
          input.AppendSecretRow(row, &data_rng);
        }

        ProtoPair scalar;
        SharedRows a = input;
        ObliviousSortLexScalar(&scalar.proto, &a, 0, 1, true);

        ProtoPair batched;
        ThreadPool pool(threads);
        SharedRows b = input;
        ObliviousSortLex(&batched.proto, &b, 0, 1, true, BatchExec{&pool, 1});

        ExpectRowsIdentical(a, b);
        ExpectStatsEqual(scalar.proto.Snapshot(), batched.proto.Snapshot());
        ExpectStreamsEqual(&scalar.proto, &batched.proto);
      }
    }
  }
}

TEST(BatchedScalarEquivalenceTest, CompareExchangeBatchMatchesScalarOps) {
  // The batch APIs directly, over an explicit disjoint pair list (the
  // pooled single-sort path submits exactly these calls per layer).
  const size_t n = 128;
  Rng data_rng(17);
  const SharedRows input = RandomViewRows(&data_rng, n);
  std::vector<RowPair> pairs;
  for (uint32_t p = 0; p < n / 2; ++p) {
    pairs.push_back({p, static_cast<uint32_t>(p + n / 2)});
  }
  for (const bool lex : {false, true}) {
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(std::string(lex ? "lex" : "plain") +
                   " threads=" + std::to_string(threads));
      ProtoPair scalar;
      SharedRows a = input;
      for (const RowPair& pr : pairs) {
        if (lex) {
          scalar.proto.CompareExchangeRowsLex(&a, pr.a, pr.b, kViewKeyCol,
                                              kViewSortKeyCol, true);
        } else {
          scalar.proto.CompareExchangeRows(&a, pr.a, pr.b, kViewSortKeyCol,
                                           false);
        }
      }
      ProtoPair batched;
      ThreadPool pool(threads);
      SharedRows b = input;
      if (lex) {
        batched.proto.CompareExchangeRowsLexBatch(&b, pairs.data(),
                                                  pairs.size(), kViewKeyCol,
                                                  kViewSortKeyCol, true,
                                                  BatchExec{&pool, 1});
      } else {
        batched.proto.CompareExchangeRowsBatch(&b, pairs.data(),
                                               pairs.size(), kViewSortKeyCol,
                                               false, BatchExec{&pool, 1});
      }
      ExpectRowsIdentical(a, b);
      ExpectStatsEqual(scalar.proto.Snapshot(), batched.proto.Snapshot());
      ExpectStreamsEqual(&scalar.proto, &batched.proto);
    }
  }
}

TEST(BatchedScalarEquivalenceTest, CountWhereBatchMatchesPerTaskCounts) {
  Rng data_rng(9);
  std::vector<SharedRows> tables;
  for (const size_t n : {0u, 17u, 64u, 129u}) {
    tables.push_back(RandomViewRows(&data_rng, n));
  }
  // Every table under every predicate shape: zero terms, one- and
  // two-sided ranges, an empty range and a two-term conjunction.
  using P = ObliviousPredicate;
  const std::vector<P> preds = {
      P::True(),
      P::ColumnEquals(kViewKeyCol, 5),
      P::ColumnBetween(kViewKeyCol, 10, 60),
      P::ColumnLess(kViewKeyCol, 0),
      P::AndThen(P::ColumnGreaterEq(kViewKeyCol, 3),
                 P::ColumnLess(kViewKeyCol, 50))};
  std::vector<CountWhereTask> tasks;
  for (const SharedRows& t : tables) {
    for (const P& pred : preds) tasks.push_back({&t, kViewIsViewCol, &pred});
  }

  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ProtoPair scalar;
    std::vector<WordShares> want;
    for (const CountWhereTask& t : tasks) {
      want.push_back(
          ObliviousCountWhere(&scalar.proto, *t.rows, t.flag_col, *t.pred));
    }
    ProtoPair batched;
    ThreadPool pool(threads);
    std::vector<WordShares> got(tasks.size());
    batched.proto.CountWhereBatch(tasks.data(), tasks.size(), got.data(),
                                  BatchExec{&pool, 1});
    ASSERT_EQ(got.size(), want.size());
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].s0, want[k].s0) << "task " << k;
      EXPECT_EQ(got[k].s1, want[k].s1) << "task " << k;
      EXPECT_EQ(batched.proto.Reveal(got[k]), scalar.proto.Reveal(want[k]))
          << "task " << k;
    }
    ExpectStatsEqual(scalar.proto.Snapshot(), batched.proto.Snapshot());
    ExpectStreamsEqual(&scalar.proto, &batched.proto);
  }
}

TEST(BatchTraceTest, TraceEventsCarryExactAggregateCost) {
  const size_t n = 100;
  Rng data_rng(13);
  const SharedRows input = RandomViewRows(&data_rng, n);

  ProtoPair scalar;
  SharedRows a = input;
  const CircuitStats scalar_before = scalar.proto.Snapshot();
  ObliviousSortScalar(&scalar.proto, &a, kViewSortKeyCol, false);
  const CircuitStats scalar_cost =
      scalar.proto.Snapshot().Diff(scalar_before);

  ProtoPair batched;
  batched.proto.EnableBatchTrace(true);
  SharedRows b = input;
  ObliviousSort(&batched.proto, &b, kViewSortKeyCol, false);

  // One event per non-empty layer; ops and gate totals sum to the scalar
  // path's exactly — amortized bookkeeping, identical totals.
  uint64_t ops = 0;
  CircuitStats traced;
  for (const BatchTraceEvent& e : batched.proto.batch_trace()) {
    EXPECT_EQ(e.kind, BatchTraceEvent::Kind::kCompareExchange);
    ops += e.ops;
    traced.Add(e.cost);
  }
  size_t nonempty_layers = 0;
  for (const uint64_t s : SortNetworkLayerSizes(n)) {
    if (s > 0) ++nonempty_layers;
  }
  EXPECT_EQ(batched.proto.batch_trace().size(), nonempty_layers);
  EXPECT_EQ(ops, SortNetworkCompareExchanges(n));
  EXPECT_EQ(traced.and_gates, scalar_cost.and_gates);

  // Disabling stops recording but keeps the collected trace readable;
  // re-enabling starts a fresh one.
  batched.proto.EnableBatchTrace(false);
  EXPECT_EQ(batched.proto.batch_trace().size(), nonempty_layers);
  batched.proto.EnableBatchTrace(true);
  EXPECT_TRUE(batched.proto.batch_trace().empty());
}

// ---------------------------------------------------------------------------
// Multi-job fusion: many sorts in lockstep layer rounds == each sort alone
// ---------------------------------------------------------------------------

TEST(SortFusionTest, FusedJobsMatchStandaloneSorts) {
  const std::vector<size_t> sizes = {3, 64, 64, 100, 17, 1};
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // Reference: each job sorted alone on its own protocol.
    std::vector<SharedRows> want;
    std::vector<CircuitStats> want_stats;
    std::vector<RngState> want_streams;
    for (size_t j = 0; j < sizes.size(); ++j) {
      Rng data_rng(31 + j);
      SharedRows rows = RandomViewRows(&data_rng, sizes[j]);
      Party s0(0, 100 + j), s1(1, 200 + j);
      Protocol2PC proto(&s0, &s1, CostModel::EmpLikeLan());
      ObliviousSort(&proto, &rows, kViewSortKeyCol, false);
      want.push_back(std::move(rows));
      want_stats.push_back(proto.Snapshot());
      want_streams.push_back(proto.internal_rng()->ExportState());
    }
    // Fused: all jobs in one submission, pooled layer rounds.
    std::vector<SharedRows> got;
    std::vector<std::unique_ptr<Party>> parties;
    std::vector<std::unique_ptr<Protocol2PC>> protos;
    for (size_t j = 0; j < sizes.size(); ++j) {
      Rng data_rng(31 + j);
      got.push_back(RandomViewRows(&data_rng, sizes[j]));
      parties.push_back(std::make_unique<Party>(0, 100 + j));
      parties.push_back(std::make_unique<Party>(1, 200 + j));
      protos.push_back(std::make_unique<Protocol2PC>(
          parties[2 * j].get(), parties[2 * j + 1].get(),
          CostModel::EmpLikeLan()));
    }
    std::vector<SortJob> jobs;
    for (size_t j = 0; j < sizes.size(); ++j) {
      jobs.push_back(SortJob{protos[j].get(), &got[j], kViewSortKeyCol, 0,
                             false, false});
    }
    ThreadPool pool(threads);
    ObliviousSortBatch(jobs.data(), jobs.size(), BatchExec{&pool, 1});
    for (size_t j = 0; j < sizes.size(); ++j) {
      SCOPED_TRACE("job " + std::to_string(j));
      ExpectRowsIdentical(want[j], got[j]);
      ExpectStatsEqual(want_stats[j], protos[j]->Snapshot());
      ExpectRngStatesEqual(want_streams[j],
                           protos[j]->internal_rng()->ExportState());
    }
  }
}

// ---------------------------------------------------------------------------
// Engine equality: the batch knob and thread count are inert for every DP
// strategy (exercising cache sorts, join lex-sorts and query counts)
// ---------------------------------------------------------------------------

void ExpectEngineIdentical(const Engine& a, const Engine& b) {
  const RunSummary sa = a.Summary();
  const RunSummary sb = b.Summary();
  EXPECT_EQ(sa.total_mpc_seconds, sb.total_mpc_seconds);
  EXPECT_EQ(sa.total_query_seconds, sb.total_query_seconds);
  EXPECT_EQ(sa.final_view_rows, sb.final_view_rows);
  EXPECT_EQ(sa.final_cache_rows, sb.final_cache_rows);
  EXPECT_EQ(sa.updates, sb.updates);
  EXPECT_EQ(sa.flushes, sb.flushes);
  EXPECT_EQ(sa.l1_error.sum(), sb.l1_error.sum());
  EXPECT_EQ(sa.final_true_count, sb.final_true_count);
  ASSERT_EQ(a.transcript().size(), b.transcript().size());
  for (size_t i = 0; i < a.transcript().size(); ++i) {
    EXPECT_EQ(a.transcript()[i], b.transcript()[i]) << "event " << i;
  }
  ExpectRowsIdentical(a.view().rows(), b.view().rows());
}

IncShrinkConfig BatchTestConfig(Strategy strategy, uint32_t shards,
                                int threads, uint32_t min_layer) {
  IncShrinkConfig cfg = DefaultTpcDsConfig();
  cfg.strategy = strategy;
  cfg.ant_theta = 8;
  cfg.flush_interval = 16;
  cfg.num_cache_shards = shards;
  cfg.cache_shard_threads = threads;
  cfg.oblivious_batch_min_layer = min_layer;
  return cfg;
}

TEST(BatchedEngineEquivalenceTest, BatchKnobAndThreadsInertForDpStrategies) {
  TpcDsParams p;
  p.steps = 40;
  p.seed = 21;
  const GeneratedWorkload w = GenerateTpcDs(p);
  for (const Strategy strategy :
       {Strategy::kDpTimer, Strategy::kDpAnt, Strategy::kEp}) {
    SCOPED_TRACE(StrategyName(strategy));
    SynchronousDeployment ref_dep(BatchTestConfig(strategy, 2, 1, 128));
    ASSERT_TRUE(ref_dep.Run(w.t1, w.t2).ok());
    for (const int threads : {1, 2, 8}) {
      for (const uint32_t min_layer : {1u, 4096u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " min_layer=" + std::to_string(min_layer));
        SynchronousDeployment run_dep(
            BatchTestConfig(strategy, 2, threads, min_layer));
        ASSERT_TRUE(run_dep.Run(w.t1, w.t2).ok());
        ExpectEngineIdentical(ref_dep.engine(), run_dep.engine());
      }
    }
  }
}

TEST(BatchedEngineEquivalenceTest, ConfigRejectsZeroMinLayer) {
  IncShrinkConfig cfg = DefaultTpcDsConfig();
  cfg.oblivious_batch_min_layer = 0;
  EXPECT_FALSE(cfg.Validate().ok());
}

// ---------------------------------------------------------------------------
// Fleet: cross-tenant sort coalescing is bit-identical and actually fuses
// ---------------------------------------------------------------------------

TEST(FleetCoalescingTest, CoalescedFleetMatchesUnfusedFleetBitForBit) {
  TpcDsParams p;
  p.steps = 32;
  p.seed = 77;
  const GeneratedWorkload w = GenerateTpcDs(p);
  std::vector<DeploymentFleet::TenantSpec> specs;
  for (const Strategy strategy :
       {Strategy::kDpTimer, Strategy::kDpAnt, Strategy::kDpTimer,
        Strategy::kEp}) {
    specs.push_back(
        {StrategyName(strategy), BatchTestConfig(strategy, 1, 0, 128), &w});
  }
  // A sharded tenant: its own shard pool nests under the fleet workers and
  // it contributes multiple same-round jobs to the fused submission.
  specs.push_back({"sharded", BatchTestConfig(Strategy::kDpTimer, 2, 2, 1),
                   &w});

  DeploymentFleet::Options ref_opts;
  ref_opts.root_seed = 99;
  ref_opts.num_threads = 1;
  DeploymentFleet ref(specs, ref_opts);
  ref.RunAll();
  EXPECT_EQ(ref.AggregateStats().fused_sort_jobs, 0u);

  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DeploymentFleet::Options opts;
    opts.root_seed = 99;
    opts.num_threads = threads;
    opts.coalesce_sorts = true;
    opts.batch_min_layer = 1;  // force pooled layer rounds
    DeploymentFleet fused(specs, opts);
    fused.RunAll();
    const DeploymentFleet::FleetStats stats = fused.AggregateStats();
    // Timer tenants fire on the shared schedule, so fused submissions must
    // actually have pooled multiple tenants' sorts.
    EXPECT_GT(stats.fused_sort_jobs, stats.fused_sort_submissions);
    for (size_t i = 0; i < fused.num_tenants(); ++i) {
      SCOPED_TRACE("tenant " + std::to_string(i));
      ExpectEngineIdentical(ref.engine(i), fused.engine(i));
    }
  }
}

}  // namespace
}  // namespace incshrink
