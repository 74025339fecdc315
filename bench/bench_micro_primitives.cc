// Microbenchmarks (google-benchmark) of the building blocks underneath the
// paper experiments: XOR sharing, secure word ops, oblivious sort, the
// truncated joins, cache reads and joint noise generation. These measure
// *host* time of the simulated protocol (useful for harness scaling); the
// simulated MPC cost of each op is reported as a counter.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_common.h"
#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/mpc/party.h"
#include "src/mpc/protocol.h"
#include "src/oblivious/cache_ops.h"
#include "src/oblivious/filter.h"
#include "src/oblivious/formats.h"
#include "src/oblivious/join.h"
#include "src/oblivious/shuffle.h"
#include "src/oblivious/sort.h"
#include "src/relational/encode.h"

namespace incshrink {
namespace {

void BM_ShareRecover(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    const WordShares s = ShareWord(rng.Next32(), &rng);
    benchmark::DoNotOptimize(RecoverWord(s));
  }
}
BENCHMARK(BM_ShareRecover);

void BM_SecureAdd(benchmark::State& state) {
  Party s0(0, 1), s1(1, 2);
  Protocol2PC proto(&s0, &s1, CostModel::EmpLikeLan());
  const WordShares a = proto.FreshShare(123);
  const WordShares b = proto.FreshShare(456);
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto.Add(a, b));
  }
}
BENCHMARK(BM_SecureAdd);

void BM_JointLaplace(benchmark::State& state) {
  Party s0(0, 1), s1(1, 2);
  Protocol2PC proto(&s0, &s1, CostModel::EmpLikeLan());
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto.JointLaplace(6.67));
  }
}
BENCHMARK(BM_JointLaplace);

SharedRows RandomViewRows(Rng* rng, size_t n) {
  SharedRows rows(kViewWidth);
  uint64_t seq = 0;
  for (size_t i = 0; i < n; ++i) {
    if (rng->Bernoulli(0.3)) {
      std::vector<Word> row(kViewWidth, 0);
      row[kViewIsViewCol] = 1;
      row[kViewSortKeyCol] = MakeCacheSortKey(true, seq++);
      rows.AppendSecretRow(row, rng);
    } else {
      AppendDummyViewRow(&rows, rng, &seq);
    }
  }
  return rows;
}

void BM_ObliviousSort(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Party s0(0, 1), s1(1, 2);
  Protocol2PC proto(&s0, &s1, CostModel::EmpLikeLan());
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    SharedRows rows = RandomViewRows(&rng, n);
    const CircuitStats before = proto.Snapshot();
    state.ResumeTiming();
    ObliviousSort(&proto, &rows, kViewSortKeyCol, false);
    state.PauseTiming();
    state.counters["sim_mpc_s"] = proto.SimulatedSecondsSince(before);
    state.ResumeTiming();
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_ObliviousSort)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Complexity();

void BM_CacheRead(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Party s0(0, 1), s1(1, 2);
  Protocol2PC proto(&s0, &s1, CostModel::EmpLikeLan());
  Rng rng(4);
  for (auto _ : state) {
    state.PauseTiming();
    SharedRows cache = RandomViewRows(&rng, n);
    state.ResumeTiming();
    benchmark::DoNotOptimize(ObliviousCacheRead(&proto, &cache, n / 4));
  }
}
BENCHMARK(BM_CacheRead)->Arg(256)->Arg(1024);

std::vector<LogicalRecord> RandomRecords(Rng* rng, size_t n, Word rid0) {
  std::vector<LogicalRecord> recs;
  for (size_t i = 0; i < n; ++i) {
    recs.push_back({1, static_cast<Word>(rid0 + i),
                    1 + rng->Next32() % 32, rng->Next32() % 50, 0});
  }
  return recs;
}

void BM_TruncatedSortMergeJoin(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Party s0(0, 1), s1(1, 2);
  Protocol2PC proto(&s0, &s1, CostModel::EmpLikeLan());
  Rng rng(5);
  JoinSpec spec{0, 10, true, 2, true, true};
  for (auto _ : state) {
    state.PauseTiming();
    SharedRows t1(kSrcWidth), t2(kSrcWidth);
    for (const auto& r : RandomRecords(&rng, n, 1))
      t1.AppendSecretRow(EncodeSourceRow(r), &rng);
    for (const auto& r : RandomRecords(&rng, n, 100000))
      t2.AppendSecretRow(EncodeSourceRow(r), &rng);
    uint64_t seq = 0;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        TruncatedSortMergeJoin(&proto, t1, t2, spec, &seq));
  }
}
BENCHMARK(BM_TruncatedSortMergeJoin)->Arg(32)->Arg(128)->Arg(512);

void BM_TruncatedNestedLoopJoin(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Party s0(0, 1), s1(1, 2);
  Protocol2PC proto(&s0, &s1, CostModel::EmpLikeLan());
  Rng rng(6);
  JoinSpec spec{0, 10, true, 2, true, true};
  for (auto _ : state) {
    state.PauseTiming();
    SharedRows t1(kSrcWidth + 1), t2(kSrcWidth + 1);
    for (const auto& r : RandomRecords(&rng, n, 1)) {
      std::vector<Word> row = EncodeSourceRow(r);
      row.push_back(2);
      t1.AppendSecretRow(row, &rng);
    }
    for (const auto& r : RandomRecords(&rng, n, 100000)) {
      std::vector<Word> row = EncodeSourceRow(r);
      row.push_back(2);
      t2.AppendSecretRow(row, &rng);
    }
    uint64_t seq = 0;
    state.ResumeTiming();
    benchmark::DoNotOptimize(TruncatedNestedLoopJoin(
        &proto, &t1, &t2, kSrcWidth, kSrcWidth, spec, &seq));
  }
}
BENCHMARK(BM_TruncatedNestedLoopJoin)->Arg(16)->Arg(64);

/// The predicate a COUNT bench scans with, chosen by its second argument:
/// 0 = True() (the flag word only), 1 = ColumnEquals (one one-word term),
/// 2 = ColumnBetween (one two-sided range term).
ObliviousPredicate CountBenchPredicate(benchmark::State& state) {
  switch (state.range(1)) {
    case 1:
      state.SetLabel("Equals");
      return ObliviousPredicate::ColumnEquals(kViewKeyCol, 0);
    case 2:
      state.SetLabel("Between");
      return ObliviousPredicate::ColumnBetween(kViewDate2Col, 0, 1u << 20);
    default:
      state.SetLabel("True");
      return ObliviousPredicate::True();
  }
}

void BM_ObliviousCountWhere(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ObliviousPredicate pred = CountBenchPredicate(state);
  Party s0(0, 1), s1(1, 2);
  Protocol2PC proto(&s0, &s1, CostModel::EmpLikeLan());
  Rng rng(7);
  const SharedRows view = RandomViewRows(&rng, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ObliviousCountWhere(&proto, view, kViewIsViewCol, pred));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_ObliviousCountWhere)->ArgsProduct({{1024, 8192}, {0, 1, 2}});

// ---------------------------------------------------------------------------
// Scalar vs batched (layer-vectorized) primitive throughput
// ---------------------------------------------------------------------------

uint64_t Fnv1a64(uint64_t h, const std::vector<Word>& words) {
  for (const Word w : words) {
    h = (h ^ w) * 1099511628211ull;
  }
  return h;
}

uint64_t RowsFingerprint(const SharedRows& rows) {
  uint64_t h = 1469598103934665603ull;
  h = Fnv1a64(h, rows.shares0());
  return Fnv1a64(h, rows.shares1());
}

/// The batched path must reproduce the scalar path bit for bit — checked
/// here over FNV fingerprints of both share arrays so a silent divergence
/// fails the bench run itself, not just the unit suite.
void CheckSortFingerprints(size_t n, int threads) {
  Rng rng(41 + n);
  const SharedRows input = RandomViewRows(&rng, n);
  Party a0(0, 51), a1(1, 52);
  Protocol2PC scalar(&a0, &a1, CostModel::EmpLikeLan());
  SharedRows s = input;
  ObliviousSortScalar(&scalar, &s, kViewSortKeyCol, false);
  Party b0(0, 51), b1(1, 52);
  Protocol2PC batched(&b0, &b1, CostModel::EmpLikeLan());
  ThreadPool pool(threads);
  SharedRows b = input;
  ObliviousSort(&batched, &b, kViewSortKeyCol, false, BatchExec{&pool, 1});
  INCSHRINK_CHECK_EQ(RowsFingerprint(s), RowsFingerprint(b));
  INCSHRINK_CHECK_EQ(scalar.Snapshot().and_gates,
                     batched.Snapshot().and_gates);
}

/// Shared measurement body: rows/sec and (simulated) gates/sec of an
/// n-row oblivious sort under `run`.
template <typename RunFn>
void SortThroughputLoop(benchmark::State& state, size_t n, RunFn&& run) {
  Party s0(0, 1), s1(1, 2);
  Protocol2PC proto(&s0, &s1, CostModel::EmpLikeLan());
  Rng rng(3);
  uint64_t gates = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SharedRows rows = RandomViewRows(&rng, n);
    const CircuitStats before = proto.Snapshot();
    state.ResumeTiming();
    run(&proto, &rows);
    state.PauseTiming();
    gates += proto.Snapshot().Diff(before).and_gates;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
  state.counters["gates_per_s"] = benchmark::Counter(
      static_cast<double>(gates), benchmark::Counter::kIsRate);
}

void BM_ObliviousSortScalar(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SortThroughputLoop(state, n, [](Protocol2PC* proto, SharedRows* rows) {
    ObliviousSortScalar(proto, rows, kViewSortKeyCol, false);
  });
}
BENCHMARK(BM_ObliviousSortScalar)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ObliviousSortBatched(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  CheckSortFingerprints(n, threads);
  ThreadPool pool(threads);
  const BatchExec exec{&pool, 128};
  SortThroughputLoop(state, n,
                     [&exec](Protocol2PC* proto, SharedRows* rows) {
                       ObliviousSort(proto, rows, kViewSortKeyCol, false,
                                     exec);
                     });
}
BENCHMARK(BM_ObliviousSortBatched)
    ->ArgsProduct({{256, 1024, 4096}, {1, 2, 8}});

void BM_ObliviousCountBatched(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t num_tasks = 8;
  Party s0(0, 1), s1(1, 2);
  Protocol2PC proto(&s0, &s1, CostModel::EmpLikeLan());
  Rng rng(7);
  std::vector<SharedRows> tables;
  for (size_t k = 0; k < num_tasks; ++k) {
    tables.push_back(RandomViewRows(&rng, n));
  }
  const ObliviousPredicate pred = CountBenchPredicate(state);
  std::vector<CountWhereTask> tasks;
  for (const SharedRows& t : tables) {
    tasks.push_back({&t, kViewIsViewCol, &pred});
  }
  std::vector<WordShares> out(tasks.size());
  uint64_t gates = 0;
  for (auto _ : state) {
    const CircuitStats before = proto.Snapshot();
    proto.CountWhereBatch(tasks.data(), tasks.size(), out.data());
    gates += proto.Snapshot().Diff(before).and_gates;
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * n * num_tasks));
  state.counters["gates_per_s"] = benchmark::Counter(
      static_cast<double>(gates), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ObliviousCountBatched)->ArgsProduct({{1024, 8192}, {0, 1, 2}});

/// Prints the per-layer batch-size histogram of the n-row sorting network:
/// the layer structure *is* the batching opportunity (each line is one
/// fused CompareExchangeRowsBatch submission on the hot path).
void PrintLayerHistogram(size_t n) {
  const std::vector<uint64_t> sizes = SortNetworkLayerSizes(n);
  uint64_t total = 0;
  for (const uint64_t s : sizes) total += s;
  std::printf("sort network n=%zu: %zu layers, %" PRIu64
              " compare-exchanges\n",
              n, sizes.size(), total);
  // Bucket layer widths by power of two.
  std::vector<uint64_t> buckets;
  for (const uint64_t s : sizes) {
    size_t b = 0;
    while ((1ull << (b + 1)) <= s) ++b;
    if (buckets.size() <= b) buckets.resize(b + 1, 0);
    ++buckets[b];
  }
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    std::printf("  layer size [%llu, %llu): %" PRIu64 " layers\n",
                static_cast<unsigned long long>(1ull << b),
                static_cast<unsigned long long>(1ull << (b + 1)),
                buckets[b]);
  }
}

// ---------------------------------------------------------------------------
// Waksman permutation-network shuffles
// ---------------------------------------------------------------------------

/// Serial-vs-pooled bit-equality gate for the shuffle scheduler, mirroring
/// CheckSortFingerprints: a silent divergence fails the bench run itself.
void CheckShuffleFingerprints(size_t n, int threads) {
  Rng rng(61 + n);
  const SharedRows input = RandomViewRows(&rng, n);
  Party a0(0, 71), a1(1, 72);
  Protocol2PC serial(&a0, &a1, CostModel::EmpLikeLan());
  const std::vector<uint32_t> perm = DrawPublicPermutation(&serial, n);
  SharedRows s = input;
  ObliviousShuffle(&serial, &s, perm);
  Party b0(0, 71), b1(1, 72);
  Protocol2PC batched(&b0, &b1, CostModel::EmpLikeLan());
  const std::vector<uint32_t> perm_b = DrawPublicPermutation(&batched, n);
  INCSHRINK_CHECK(perm == perm_b);
  ThreadPool pool(threads);
  SharedRows b = input;
  ObliviousShuffle(&batched, &b, perm, BatchExec{&pool, 1});
  INCSHRINK_CHECK_EQ(RowsFingerprint(s), RowsFingerprint(b));
  INCSHRINK_CHECK_EQ(serial.Snapshot().and_gates,
                     batched.Snapshot().and_gates);
}

void BM_ObliviousShuffle(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  CheckShuffleFingerprints(n, threads);
  ThreadPool pool(threads);
  const BatchExec exec{&pool, 128};
  SortThroughputLoop(state, n,
                     [&exec](Protocol2PC* proto, SharedRows* rows) {
                       ObliviousRandomPermute(proto, rows, exec);
                     });
}
BENCHMARK(BM_ObliviousShuffle)->ArgsProduct({{256, 1024, 4096}, {1, 2, 8}});

void BM_ObliviousShuffleSort(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SortThroughputLoop(state, n, [](Protocol2PC* proto, SharedRows* rows) {
    ObliviousShuffleSort(proto, rows, kViewSortKeyCol, false);
  });
}
BENCHMARK(BM_ObliviousShuffleSort)->Arg(256)->Arg(1024)->Arg(4096);

void PrintShuffleLayerHistogram(size_t n) {
  const std::vector<uint64_t> sizes = ShuffleNetworkLayerSizes(n);
  uint64_t total = 0;
  for (const uint64_t s : sizes) total += s;
  std::printf("shuffle network n=%zu: %zu layers, %" PRIu64 " switches\n",
              n, sizes.size(), total);
}

/// Head-to-head flush measurement at the acceptance size (n = 4096): the
/// Batcher flush (sort + prefix) versus the Waksman flush (random shuffle
/// + prefix). Prints the measured AND-gate counts and their ratio, checks
/// the >= 1.8x acceptance bar, cross-checks the counts against the closed
/// forms, and fingerprints both results so the comparison is a real
/// end-to-end run, not arithmetic. When `json` is non-null the numbers
/// land in the BENCH_shuffle artifact.
void MeasureFlushGateRatio(incshrink::bench::JsonWriter* json) {
  const size_t n = 4096;
  const size_t flush_size = 15;
  Rng rng(77);
  const SharedRows input = RandomViewRows(&rng, n);

  Party a0(0, 81), a1(1, 82);
  Protocol2PC batcher(&a0, &a1, CostModel::EmpLikeLan());
  SharedRows cache_b = input;
  const auto t0 = std::chrono::steady_clock::now();
  SharedRows fetched_b =
      CacheFlush(&batcher, &cache_b, flush_size, SortAlgorithm::kBatcher);
  const auto t1 = std::chrono::steady_clock::now();
  const uint64_t batcher_gates = batcher.Snapshot().and_gates;

  Party b0(0, 81), b1(1, 82);
  Protocol2PC waksman(&b0, &b1, CostModel::EmpLikeLan());
  SharedRows cache_w = input;
  const auto t2 = std::chrono::steady_clock::now();
  SharedRows fetched_w = CacheFlush(&waksman, &cache_w, flush_size,
                                    SortAlgorithm::kShuffleSort);
  const auto t3 = std::chrono::steady_clock::now();
  const uint64_t waksman_gates = waksman.Snapshot().and_gates;

  // Closed-form cross-check: the measured counts must equal the formulas
  // the unit tests pin (comparison + mux per compare-exchange; mux per
  // switch), or the measurement itself is wrong.
  INCSHRINK_CHECK_EQ(batcher_gates,
                     SortNetworkCompareExchanges(n) *
                         (kWordBits + kViewWidth * kWordBits));
  INCSHRINK_CHECK_EQ(waksman_gates,
                     ShuffleNetworkSwitches(n) * kViewWidth * kWordBits);
  INCSHRINK_CHECK_EQ(fetched_b.size(), flush_size);
  INCSHRINK_CHECK_EQ(fetched_w.size(), flush_size);
  const uint64_t fp_batcher = RowsFingerprint(fetched_b);
  const uint64_t fp_waksman = RowsFingerprint(fetched_w);

  const double ratio = static_cast<double>(batcher_gates) /
                       static_cast<double>(waksman_gates);
  const double waksman_secs =
      std::chrono::duration<double>(t3 - t2).count();
  const double batcher_secs =
      std::chrono::duration<double>(t1 - t0).count();
  std::printf("flush @ n=%zu width=%zu: batcher %" PRIu64
              " AND gates, waksman %" PRIu64 " AND gates, ratio %.2fx\n",
              n, kViewWidth, batcher_gates, waksman_gates, ratio);
  std::printf("  fingerprints: batcher %016" PRIx64 ", waksman %016" PRIx64
              "\n",
              fp_batcher, fp_waksman);
  // Acceptance bar for the shuffle tier: >= 1.8x fewer gates per flush.
  INCSHRINK_CHECK(ratio >= 1.8);

  if (json != nullptr) {
    json->Add("bench", std::string("shuffle"));
    json->Add("n", static_cast<uint64_t>(n));
    json->Add("width", static_cast<uint64_t>(kViewWidth));
    json->Add("batcher_flush_and_gates", batcher_gates);
    json->Add("waksman_flush_and_gates", waksman_gates);
    json->Add("gate_ratio", ratio);
    json->Add("waksman_switches", ShuffleNetworkSwitches(n));
    json->Add("waksman_depth", ShuffleNetworkDepth(n));
    json->Add("shuffle_sort_comparison_sites", ShuffleSortComparisons(n));
    json->Add("batcher_gates_per_s",
              batcher_secs > 0 ? batcher_gates / batcher_secs : 0.0);
    json->Add("waksman_gates_per_s",
              waksman_secs > 0 ? waksman_gates / waksman_secs : 0.0);
    json->Add("waksman_rows_per_s",
              waksman_secs > 0 ? n / waksman_secs : 0.0);
    json->Add("fingerprint_batcher_flush", fp_batcher);
    json->Add("fingerprint_waksman_flush", fp_waksman);
    json->Add("layer_histogram", ShuffleNetworkLayerSizes(n));
  }
}

}  // namespace
}  // namespace incshrink

int main(int argc, char** argv) {
  // Pre-parse and strip `--json <path>` before benchmark::Initialize —
  // google-benchmark hard-rejects flags it does not recognize.
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: flag '--json' is missing its value\n");
        return 2;
      }
      json_path = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      break;
    }
  }
  for (const size_t n : {256u, 1024u, 4096u}) {
    incshrink::PrintLayerHistogram(n);
    incshrink::PrintShuffleLayerHistogram(n);
  }
  incshrink::bench::JsonWriter json;
  incshrink::MeasureFlushGateRatio(json_path.empty() ? nullptr : &json);
  if (!json_path.empty()) json.WriteTo(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
