// Waksman permutation-network shuffle suite:
//
//   * network construction: the programmed network realizes *every*
//     permutation — exhaustively for n in [0, 8], sampled up to n = 64 —
//     with layer-disjoint switches whose topology (pair placement, layer
//     sizes, depth, switch count) is a pure function of n;
//   * execution equivalence: ObliviousShuffle / ObliviousShuffleBatch are
//     bit-identical (shares, randomness stream, aggregate cost) across
//     1 / 2 / 8 threads, single- and multi-job;
//   * shuffle-then-sort: same sorted key order as Batcher, thread- and
//     batch-knob-invariant, with an input-invariant circuit trace across
//     same-cardinality inputs;
//   * gate budget: the Waksman flush path beats the Batcher flush by the
//     targeted >= 1.8x AND-gate margin at n = 4096;
//   * engine/fleet tier: `sort_algorithm = shuffle_sort` deployments are
//     bit-identical across thread counts, shard counts and fleet
//     coalescing, and (ShuffleSortGolden*) semantically equivalent to the
//     Batcher reference when flushes are disabled.
//
// Runs under the TSan CI job together with the parallel/sharded suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/engine.h"
#include "src/core/fleet.h"
#include "src/core/owner_client.h"
#include "src/mpc/party.h"
#include "src/mpc/protocol.h"
#include "src/oblivious/cache_ops.h"
#include "src/oblivious/formats.h"
#include "src/oblivious/shuffle.h"
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

struct ProtoPair {
  Party s0{0, 11}, s1{1, 22};
  Protocol2PC proto{&s0, &s1, CostModel::EmpLikeLan()};
};

/// Applies the programmed network to a plaintext array: crossed switches
/// swap, straight switches don't. Layer order; within a layer switch order
/// is irrelevant (disjointness — asserted separately).
std::vector<uint32_t> ApplyNetworkPlain(
    const std::vector<std::vector<ProgrammedSwitch>>& layers,
    std::vector<uint32_t> values) {
  for (const auto& layer : layers) {
    for (const ProgrammedSwitch& sw : layer) {
      if (sw.swap) std::swap(values[sw.pair.a], values[sw.pair.b]);
    }
  }
  return values;
}

void ExpectNetworkRealizes(const std::vector<uint32_t>& perm) {
  const size_t n = perm.size();
  const auto layers = WaksmanNetwork(perm);
  EXPECT_EQ(layers.size(), ShuffleNetworkDepth(n));
  std::vector<uint32_t> src(n);
  std::iota(src.begin(), src.end(), 0u);
  const std::vector<uint32_t> dst = ApplyNetworkPlain(layers, src);
  for (size_t k = 0; k < n; ++k) {
    ASSERT_EQ(dst[k], perm[k]) << "n=" << n << " k=" << k;
  }
}

// ---------------------------------------------------------------------------
// Network construction
// ---------------------------------------------------------------------------

TEST(WaksmanNetworkTest, RealizesEveryPermutationExhaustivelyUpTo8) {
  for (size_t n = 0; n <= 8; ++n) {
    std::vector<uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0u);
    do {
      ExpectNetworkRealizes(perm);
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
}

TEST(WaksmanNetworkTest, RealizesSampledPermutationsUpTo64) {
  Rng gen(1234);
  for (size_t n = 9; n <= 64; ++n) {
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<uint32_t> perm(n);
      std::iota(perm.begin(), perm.end(), 0u);
      SeededShuffle(perm.begin(), perm.end(), &gen);
      ExpectNetworkRealizes(perm);
    }
  }
}

TEST(WaksmanNetworkTest, LayersAreDisjointAndMatchTheSizeFormulas) {
  Rng gen(99);
  for (const size_t n : {2u, 3u, 5u, 7u, 8u, 16u, 33u, 64u, 100u, 257u}) {
    std::vector<uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0u);
    SeededShuffle(perm.begin(), perm.end(), &gen);
    const auto layers = WaksmanNetwork(perm);
    const std::vector<uint64_t> sizes = ShuffleNetworkLayerSizes(n);
    ASSERT_EQ(layers.size(), sizes.size()) << "n=" << n;
    ASSERT_EQ(layers.size(), ShuffleNetworkDepth(n)) << "n=" << n;
    uint64_t total = 0;
    for (size_t l = 0; l < layers.size(); ++l) {
      EXPECT_EQ(layers[l].size(), sizes[l]) << "n=" << n << " layer " << l;
      std::set<uint32_t> touched;
      for (const ProgrammedSwitch& sw : layers[l]) {
        EXPECT_LT(sw.pair.a, sw.pair.b) << "n=" << n << " layer " << l;
        EXPECT_LT(sw.pair.b, n) << "n=" << n << " layer " << l;
        EXPECT_TRUE(touched.insert(sw.pair.a).second) << "n=" << n;
        EXPECT_TRUE(touched.insert(sw.pair.b).second) << "n=" << n;
      }
      total += layers[l].size();
    }
    EXPECT_EQ(total, ShuffleNetworkSwitches(n)) << "n=" << n;
  }
}

TEST(WaksmanNetworkTest, TopologyIsAPureFunctionOfN) {
  // Two different permutations of the same size must produce networks with
  // identical switch *placement* — only the control bits may differ. This
  // is the structural half of trace invariance.
  Rng gen(7);
  for (const size_t n : {3u, 8u, 31u, 64u}) {
    std::vector<uint32_t> a(n), b(n);
    std::iota(a.begin(), a.end(), 0u);
    b = a;
    SeededShuffle(b.begin(), b.end(), &gen);
    const auto la = WaksmanNetwork(a);
    const auto lb = WaksmanNetwork(b);
    ASSERT_EQ(la.size(), lb.size()) << "n=" << n;
    for (size_t l = 0; l < la.size(); ++l) {
      ASSERT_EQ(la[l].size(), lb[l].size()) << "n=" << n << " layer " << l;
      for (size_t p = 0; p < la[l].size(); ++p) {
        EXPECT_EQ(la[l][p].pair.a, lb[l][p].pair.a) << "n=" << n;
        EXPECT_EQ(la[l][p].pair.b, lb[l][p].pair.b) << "n=" << n;
      }
    }
  }
}

TEST(WaksmanNetworkTest, SwitchCountIsNLogNMinusNPlusOneAtPowersOfTwo) {
  for (const auto& [n, lg] : std::vector<std::pair<size_t, uint64_t>>{
           {2, 1}, {4, 2}, {8, 3}, {64, 6}, {256, 8}, {4096, 12}}) {
    EXPECT_EQ(ShuffleNetworkSwitches(n), n * lg - n + 1) << "n=" << n;
  }
  EXPECT_EQ(ShuffleNetworkSwitches(0), 0u);
  EXPECT_EQ(ShuffleNetworkSwitches(1), 0u);
  EXPECT_EQ(ShuffleNetworkSwitches(3), 3u);
}

/// FNV-1a over every (pair.a, pair.b, swap) of a programmed network, in
/// layer order and in-layer order (little-endian a and b, one swap byte).
uint64_t NetworkProgramHash(
    const std::vector<std::vector<ProgrammedSwitch>>& layers) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto fold = [&h](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& layer : layers) {
    for (const ProgrammedSwitch& sw : layer) {
      fold(sw.pair.a, 4);
      fold(sw.pair.b, 4);
      fold(sw.swap ? 1 : 0, 1);
    }
  }
  return h;
}

TEST(WaksmanNetworkTest, ProgrammingIsPinnedForSeededPermutations) {
  // The realization tests accept any network that realizes `perm`; this
  // pins the exact programming (free-cycle choices, in-layer order), which
  // is what the shuffle's mask draws and committed shares depend on.
  const std::vector<std::pair<size_t, uint64_t>> pinned = {
      {2, 0xd955a00fa740c10full},    {3, 0x07b52ed545f81df2ull},
      {7, 0x39c0d28884324adbull},    {8, 0x470b8ca3175fdd4bull},
      {63, 0x777958fa9bc0948dull},   {64, 0x8f251a172126833cull},
      {1000, 0x9932270aa9140a5bull}, {4096, 0xd84988ee1cf2014cull}};
  for (const auto& [n, want] : pinned) {
    Rng gen(2022 + n);
    std::vector<uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0u);
    SeededShuffle(perm.begin(), perm.end(), &gen);
    EXPECT_EQ(NetworkProgramHash(WaksmanNetwork(perm)), want) << "n=" << n;
  }
}

TEST(ShuffleLayerCursorTest, EnumeratesExactlyTheMaterializedLayers) {
  std::vector<uint32_t> perm{3, 0, 4, 1, 2};
  const auto layers = WaksmanNetwork(perm);
  ShuffleLayerCursor cursor(perm);
  std::vector<ProgrammedSwitch> layer;
  size_t l = 0;
  while (cursor.Next(&layer)) {
    ASSERT_LT(l, layers.size());
    ASSERT_EQ(layer.size(), layers[l].size());
    for (size_t p = 0; p < layer.size(); ++p) {
      EXPECT_EQ(layer[p].pair.a, layers[l][p].pair.a);
      EXPECT_EQ(layer[p].pair.b, layers[l][p].pair.b);
      EXPECT_EQ(layer[p].swap, layers[l][p].swap);
    }
    ++l;
  }
  EXPECT_EQ(l, layers.size());
}

// ---------------------------------------------------------------------------
// Permutation draws
// ---------------------------------------------------------------------------

TEST(DrawPublicPermutationTest, DrawsValidDeterministicPermutations) {
  for (const size_t n : {0u, 1u, 2u, 7u, 64u, 257u}) {
    ProtoPair a, b;  // same seeds -> same joint stream
    const std::vector<uint32_t> pa = DrawPublicPermutation(&a.proto, n);
    const std::vector<uint32_t> pb = DrawPublicPermutation(&b.proto, n);
    EXPECT_EQ(pa, pb) << "n=" << n;
    ASSERT_EQ(pa.size(), n);
    std::vector<bool> seen(n, false);
    for (const uint32_t v : pa) {
      ASSERT_LT(v, n);
      EXPECT_FALSE(seen[v]);
      seen[v] = true;
    }
  }
}

TEST(DrawPublicPermutationTest, ConsumesExactlyTwoWordsPerStep) {
  // Stream-alignment contract: drawing a permutation of n advances the
  // resharing stream by exactly 2*(n-1) words, for every n — the property
  // that keeps shuffle traces aligned across same-cardinality inputs.
  for (const size_t n : {2u, 3u, 17u, 100u}) {
    ProtoPair a, b;
    (void)DrawPublicPermutation(&a.proto, n);
    std::vector<Word> skip(2 * (n - 1));
    b.proto.DrawReshareMasks(skip.size(), skip.data());
    std::vector<Word> next_a(4), next_b(4);
    a.proto.DrawReshareMasks(4, next_a.data());
    b.proto.DrawReshareMasks(4, next_b.data());
    EXPECT_EQ(next_a, next_b) << "n=" << n;
  }
}

TEST(DrawPublicPermutationTest, PermutationsActuallyVaryAcrossDraws) {
  ProtoPair p;
  const std::vector<uint32_t> first = DrawPublicPermutation(&p.proto, 64);
  const std::vector<uint32_t> second = DrawPublicPermutation(&p.proto, 64);
  EXPECT_NE(first, second);  // astronomically unlikely to collide
}

// ---------------------------------------------------------------------------
// Oblivious execution: single job
// ---------------------------------------------------------------------------

TEST(ObliviousShuffleTest, AppliesThePermutationToSecretRows) {
  Rng rng(5);
  for (const size_t n : {0u, 1u, 2u, 5u, 33u, 64u}) {
    SharedRows rows = RandomViewRows(&rng, n);
    std::vector<std::vector<Word>> before(n);
    for (size_t i = 0; i < n; ++i) before[i] = rows.RecoverRow(i);
    ProtoPair p;
    const std::vector<uint32_t> perm = DrawPublicPermutation(&p.proto, n);
    ObliviousShuffle(&p.proto, &rows, perm);
    for (size_t k = 0; k < n; ++k) {
      EXPECT_EQ(rows.RecoverRow(k), before[perm[k]]) << "n=" << n;
    }
  }
}

TEST(ObliviousShuffleTest, ChargesExactlyOneMuxSwapPerSwitch) {
  Rng rng(6);
  SharedRows rows = RandomViewRows(&rng, 100);
  ProtoPair p;
  const std::vector<uint32_t> perm = DrawPublicPermutation(&p.proto, 100);
  const CircuitStats before = p.proto.Snapshot();
  ObliviousShuffle(&p.proto, &rows, perm);
  const CircuitStats after = p.proto.stats();
  EXPECT_EQ(after.and_gates - before.and_gates,
            ShuffleNetworkSwitches(100) * kViewWidth * kWordBits);
}

TEST(ObliviousShuffleTest, BatchedEqualsSerialAtAllThreadCounts) {
  Rng rng(7);
  for (const size_t n : {2u, 37u, 128u, 200u}) {
    const SharedRows input = RandomViewRows(&rng, n);
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " threads=" +
                   std::to_string(threads));
      ProtoPair serial, batched;  // same seeds -> identical joint streams
      const std::vector<uint32_t> perm =
          DrawPublicPermutation(&serial.proto, n);
      EXPECT_EQ(DrawPublicPermutation(&batched.proto, n), perm);
      SharedRows s = input, b = input;
      ObliviousShuffle(&serial.proto, &s, perm);
      ThreadPool pool(threads);
      ObliviousShuffle(&batched.proto, &b, perm, BatchExec{&pool, 1});
      ExpectRowsIdentical(s, b);
      ExpectStatsEqual(serial.proto.stats(), batched.proto.stats());
      // The post-shuffle randomness streams must agree too: the whole
      // cursor, so a serial kernel's written-back stream is exact.
      const RngState ss = serial.proto.internal_rng()->ExportState();
      const RngState sb = batched.proto.internal_rng()->ExportState();
      for (int i = 0; i < 4; ++i) EXPECT_EQ(ss.s[i], sb.s[i]) << "word " << i;
      EXPECT_EQ(ss.cached_normal_bits, sb.cached_normal_bits);
      EXPECT_EQ(ss.have_cached_normal, sb.have_cached_normal);
    }
  }
}

// ---------------------------------------------------------------------------
// Oblivious execution: multi-job fusion
// ---------------------------------------------------------------------------

TEST(ObliviousShuffleBatchTest, FusedJobsEqualEachJobAlone) {
  Rng rng(8);
  const std::vector<size_t> sizes{64, 33, 128, 5};
  std::vector<SharedRows> inputs;
  for (const size_t n : sizes) inputs.push_back(RandomViewRows(&rng, n));
  // Reference: each job alone, serial, on its own protocol.
  std::vector<ProtoPair> ref(sizes.size());
  std::vector<SharedRows> ref_rows = inputs;
  std::vector<std::vector<uint32_t>> perms(sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    perms[i] = DrawPublicPermutation(&ref[i].proto, sizes[i]);
    ObliviousShuffle(&ref[i].proto, &ref_rows[i], perms[i]);
  }
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<ProtoPair> fused(sizes.size());
    std::vector<SharedRows> fused_rows = inputs;
    std::vector<ShuffleJob> jobs;
    for (size_t i = 0; i < sizes.size(); ++i) {
      (void)DrawPublicPermutation(&fused[i].proto, sizes[i]);
      jobs.push_back({&fused[i].proto, &fused_rows[i], &perms[i]});
    }
    ThreadPool pool(threads);
    ObliviousShuffleBatch(jobs.data(), jobs.size(), BatchExec{&pool, 1});
    for (size_t i = 0; i < sizes.size(); ++i) {
      SCOPED_TRACE("job " + std::to_string(i));
      ExpectRowsIdentical(ref_rows[i], fused_rows[i]);
      ExpectStatsEqual(ref[i].proto.stats(), fused[i].proto.stats());
    }
  }
}

TEST(ObliviousRandomPermuteTest, PreservesRowsAndFusesLikeSingles) {
  Rng rng(9);
  const std::vector<size_t> sizes{48, 96};
  std::vector<SharedRows> inputs;
  for (const size_t n : sizes) inputs.push_back(RandomViewRows(&rng, n));

  std::vector<ProtoPair> ref(sizes.size());
  std::vector<SharedRows> ref_rows = inputs;
  for (size_t i = 0; i < sizes.size(); ++i) {
    ObliviousRandomPermute(&ref[i].proto, &ref_rows[i]);
    // Multiset of recovered rows is preserved.
    std::multiset<std::vector<Word>> before_set, after_set;
    for (size_t r = 0; r < inputs[i].size(); ++r) {
      before_set.insert(inputs[i].RecoverRow(r));
      after_set.insert(ref_rows[i].RecoverRow(r));
    }
    EXPECT_EQ(before_set, after_set) << "job " << i;
  }
  for (const int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<ProtoPair> fused(sizes.size());
    std::vector<SharedRows> fused_rows = inputs;
    std::vector<PermuteJob> jobs;
    for (size_t i = 0; i < sizes.size(); ++i) {
      jobs.push_back({&fused[i].proto, &fused_rows[i]});
    }
    ThreadPool pool(threads);
    ObliviousRandomPermuteBatch(jobs.data(), jobs.size(),
                                BatchExec{&pool, 1});
    for (size_t i = 0; i < sizes.size(); ++i) {
      SCOPED_TRACE("job " + std::to_string(i));
      ExpectRowsIdentical(ref_rows[i], fused_rows[i]);
      ExpectStatsEqual(ref[i].proto.stats(), fused[i].proto.stats());
    }
  }
}

// ---------------------------------------------------------------------------
// Shuffle-then-sort
// ---------------------------------------------------------------------------

TEST(ShuffleSortTest, KeyOrderMatchesBatcherSort) {
  Rng rng(10);
  for (const size_t n : {0u, 1u, 2u, 17u, 64u, 150u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const SharedRows input = RandomViewRows(&rng, n);
    ProtoPair pb, ps;
    SharedRows batcher_rows = input;
    ObliviousSort(&pb.proto, &batcher_rows, kViewSortKeyCol,
                  /*ascending=*/false);
    SharedRows shuffle_rows = input;
    ObliviousShuffleSort(&ps.proto, &shuffle_rows, kViewSortKeyCol,
                         /*ascending=*/false);
    std::multiset<std::vector<Word>> batcher_set, shuffle_set;
    for (size_t r = 0; r < n; ++r) {
      // Identical key sequences (ties may place different rows, so full
      // rows are compared as a multiset below).
      EXPECT_EQ(shuffle_rows.RecoverRow(r)[kViewSortKeyCol],
                batcher_rows.RecoverRow(r)[kViewSortKeyCol])
          << "row " << r;
      batcher_set.insert(batcher_rows.RecoverRow(r));
      shuffle_set.insert(shuffle_rows.RecoverRow(r));
    }
    EXPECT_EQ(batcher_set, shuffle_set);
    // Real cache rows carry unique FIFO keys, so the real-row prefix must
    // agree row for row, not just as key sequences.
    for (size_t r = 0; r < n; ++r) {
      const std::vector<Word> row = batcher_rows.RecoverRow(r);
      if (row[kViewIsViewCol] != 1) break;
      EXPECT_EQ(shuffle_rows.RecoverRow(r), row) << "real row " << r;
    }
  }
}

TEST(ShuffleSortTest, AscendingOrderWorksToo) {
  Rng rng(11);
  const SharedRows input = RandomViewRows(&rng, 80);
  ProtoPair p;
  SharedRows rows = input;
  ObliviousShuffleSort(&p.proto, &rows, kViewSortKeyCol, /*ascending=*/true);
  for (size_t r = 1; r < rows.size(); ++r) {
    EXPECT_LE(rows.RecoverRow(r - 1)[kViewSortKeyCol],
              rows.RecoverRow(r)[kViewSortKeyCol]);
  }
}

TEST(ShuffleSortTest, BitIdenticalAcrossThreadCounts) {
  Rng rng(12);
  for (const size_t n : {64u, 150u}) {
    const SharedRows input = RandomViewRows(&rng, n);
    ProtoPair serial;
    SharedRows s = input;
    ObliviousShuffleSort(&serial.proto, &s, kViewSortKeyCol,
                         /*ascending=*/false);
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " threads=" +
                   std::to_string(threads));
      ProtoPair batched;
      SharedRows b = input;
      ThreadPool pool(threads);
      ObliviousShuffleSort(&batched.proto, &b, kViewSortKeyCol,
                           /*ascending=*/false, BatchExec{&pool, 1});
      ExpectRowsIdentical(s, b);
      ExpectStatsEqual(serial.proto.stats(), batched.proto.stats());
    }
  }
}

TEST(ShuffleSortTest, FusedJobsEqualEachJobAlone) {
  Rng rng(13);
  const std::vector<size_t> sizes{64, 31, 100};
  std::vector<SharedRows> inputs;
  for (const size_t n : sizes) inputs.push_back(RandomViewRows(&rng, n));
  std::vector<ProtoPair> ref(sizes.size());
  std::vector<SharedRows> ref_rows = inputs;
  for (size_t i = 0; i < sizes.size(); ++i) {
    ObliviousShuffleSort(&ref[i].proto, &ref_rows[i], kViewSortKeyCol,
                         /*ascending=*/false);
  }
  for (const int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<ProtoPair> fused(sizes.size());
    std::vector<SharedRows> fused_rows = inputs;
    std::vector<SortJob> jobs;
    for (size_t i = 0; i < sizes.size(); ++i) {
      jobs.push_back(SortJob{&fused[i].proto, &fused_rows[i],
                             kViewSortKeyCol, 0, /*lex=*/false,
                             /*ascending=*/false,
                             SortAlgorithm::kShuffleSort});
    }
    ThreadPool pool(threads);
    // Through the ObliviousSortBatch dispatcher — the engine/fleet seam.
    ObliviousSortBatch(jobs.data(), jobs.size(), BatchExec{&pool, 1});
    for (size_t i = 0; i < sizes.size(); ++i) {
      SCOPED_TRACE("job " + std::to_string(i));
      ExpectRowsIdentical(ref_rows[i], fused_rows[i]);
      ExpectStatsEqual(ref[i].proto.stats(), fused[i].proto.stats());
    }
  }
}

TEST(ShuffleSortTest, MixedAlgorithmBatchesDispatchCorrectly) {
  Rng rng(14);
  const SharedRows in_a = RandomViewRows(&rng, 60);
  const SharedRows in_b = RandomViewRows(&rng, 60);
  ProtoPair ref_a, ref_b;
  SharedRows ra = in_a, rb = in_b;
  ObliviousSort(&ref_a.proto, &ra, kViewSortKeyCol, /*ascending=*/false);
  ObliviousShuffleSort(&ref_b.proto, &rb, kViewSortKeyCol,
                       /*ascending=*/false);
  ProtoPair mix_a, mix_b;
  SharedRows ma = in_a, mb = in_b;
  std::vector<SortJob> jobs{
      SortJob{&mix_a.proto, &ma, kViewSortKeyCol, 0, false, false,
              SortAlgorithm::kBatcher},
      SortJob{&mix_b.proto, &mb, kViewSortKeyCol, 0, false, false,
              SortAlgorithm::kShuffleSort}};
  ThreadPool pool(2);
  ObliviousSortBatch(jobs.data(), jobs.size(), BatchExec{&pool, 1});
  ExpectRowsIdentical(ra, ma);
  ExpectRowsIdentical(rb, mb);
  ExpectStatsEqual(ref_a.proto.stats(), mix_a.proto.stats());
  ExpectStatsEqual(ref_b.proto.stats(), mix_b.proto.stats());
}

// ---------------------------------------------------------------------------
// Trace invariance and the gate budget
// ---------------------------------------------------------------------------

TEST(ShuffleSortTest, TraceIsInvariantAcrossSameCardinalityInputs) {
  Rng rng_a(15), rng_b(16);
  const size_t n = 96;
  SharedRows rows_a = RandomViewRows(&rng_a, n);
  SharedRows rows_b = RandomViewRows(&rng_b, n);
  ProtoPair pa, pb;  // same seeds: identical joint streams
  pa.proto.EnableBatchTrace(true);
  pb.proto.EnableBatchTrace(true);
  const CircuitStats before_a = pa.proto.Snapshot();
  const CircuitStats before_b = pb.proto.Snapshot();
  ObliviousShuffleSort(&pa.proto, &rows_a, kViewSortKeyCol, false);
  ObliviousShuffleSort(&pb.proto, &rows_b, kViewSortKeyCol, false);
  const CircuitStats after_a = pa.proto.stats();
  const CircuitStats after_b = pb.proto.stats();
  EXPECT_EQ(after_a.and_gates - before_a.and_gates,
            after_b.and_gates - before_b.and_gates);
  EXPECT_EQ(after_a.bytes - before_a.bytes, after_b.bytes - before_b.bytes);
  EXPECT_EQ(after_a.rounds - before_a.rounds,
            after_b.rounds - before_b.rounds);
  ASSERT_EQ(pa.proto.batch_trace().size(), pb.proto.batch_trace().size());
  for (size_t i = 0; i < pa.proto.batch_trace().size(); ++i) {
    const BatchTraceEvent& ea = pa.proto.batch_trace()[i];
    const BatchTraceEvent& eb = pb.proto.batch_trace()[i];
    EXPECT_EQ(static_cast<int>(ea.kind), static_cast<int>(eb.kind)) << i;
    EXPECT_EQ(ea.ops, eb.ops) << "event " << i;
    EXPECT_EQ(ea.cost.and_gates, eb.cost.and_gates) << "event " << i;
  }
}

TEST(ShuffleGateBudgetTest, WaksmanFlushBeatsBatcherFlushAt4096) {
  // The acceptance bar: >= 1.8x fewer compare/mux AND gates per flush.
  // Batcher flush: one compare-exchange = key comparison + row mux-swap.
  // Waksman flush: one mux-swap per switch, no comparisons at all.
  const size_t n = 4096;
  const uint64_t batcher_gates =
      SortNetworkCompareExchanges(n) *
      (kWordBits + kViewWidth * kWordBits);
  const uint64_t waksman_gates =
      ShuffleNetworkSwitches(n) * kViewWidth * kWordBits;
  EXPECT_GE(static_cast<double>(batcher_gates),
            1.8 * static_cast<double>(waksman_gates))
      << "batcher=" << batcher_gates << " waksman=" << waksman_gates;
  // And the measured path agrees with the formula (width-kViewWidth rows).
  Rng rng(17);
  SharedRows rows = RandomViewRows(&rng, 256);
  ProtoPair p;
  const CircuitStats before = p.proto.Snapshot();
  SharedRows fetched =
      CacheFlush(&p.proto, &rows, 15, SortAlgorithm::kShuffleSort);
  EXPECT_EQ(fetched.size(), 15u);
  EXPECT_EQ(p.proto.stats().and_gates - before.and_gates,
            ShuffleNetworkSwitches(256) * kViewWidth * kWordBits);
}

TEST(ShuffleSortComparisonsTest, IsNCeilLogN) {
  EXPECT_EQ(ShuffleSortComparisons(0), 0u);
  EXPECT_EQ(ShuffleSortComparisons(1), 0u);
  EXPECT_EQ(ShuffleSortComparisons(2), 2u);
  EXPECT_EQ(ShuffleSortComparisons(5), 5u * 3);
  EXPECT_EQ(ShuffleSortComparisons(4096), 4096u * 12);
}

// ---------------------------------------------------------------------------
// Cache-op tier dispatch
// ---------------------------------------------------------------------------

TEST(ShuffleCacheOpsTest, ShuffleSortCacheReadReturnsTheRealPrefix) {
  Rng rng(18);
  SharedRows cache = RandomViewRows(&rng, 128);
  Party probe0(0, 1), probe1(1, 2);
  Protocol2PC probe(&probe0, &probe1, CostModel::Free());
  const uint32_t real = CountRealInside(&probe, cache);
  ProtoPair p;
  SharedRows fetched = ObliviousCacheRead(&p.proto, &cache, real,
                                          SortAlgorithm::kShuffleSort);
  ASSERT_EQ(fetched.size(), real);
  for (size_t r = 0; r < fetched.size(); ++r) {
    EXPECT_EQ(fetched.RecoverRow(r)[kViewIsViewCol], 1u) << "row " << r;
  }
}

TEST(ShuffleCacheOpsTest, BatcherAlgorithmOverloadIsTheLegacyPath) {
  Rng rng(19);
  const SharedRows input = RandomViewRows(&rng, 64);
  ProtoPair legacy, dispatched;
  SharedRows a = input, b = input;
  SharedRows fa = CacheFlush(&legacy.proto, &a, 10);
  SharedRows fb =
      CacheFlush(&dispatched.proto, &b, 10, SortAlgorithm::kBatcher);
  ExpectRowsIdentical(fa, fb);
  ExpectStatsEqual(legacy.proto.stats(), dispatched.proto.stats());
}

// ---------------------------------------------------------------------------
// Engine / fleet tier
// ---------------------------------------------------------------------------

void ExpectEngineIdentical(const Engine& a, const Engine& b) {
  ASSERT_EQ(a.transcript().size(), b.transcript().size());
  for (size_t i = 0; i < a.transcript().size(); ++i) {
    EXPECT_EQ(a.transcript()[i], b.transcript()[i]) << "event " << i;
  }
  ASSERT_EQ(a.releases().size(), b.releases().size());
  for (size_t i = 0; i < a.releases().size(); ++i) {
    EXPECT_EQ(a.releases()[i].t, b.releases()[i].t);
    EXPECT_EQ(a.releases()[i].size, b.releases()[i].size);
    EXPECT_EQ(a.releases()[i].fired, b.releases()[i].fired);
  }
  const RunSummary sa = a.Summary(), sb = b.Summary();
  EXPECT_EQ(sa.final_view_rows, sb.final_view_rows);
  EXPECT_EQ(sa.final_cache_rows, sb.final_cache_rows);
  EXPECT_EQ(sa.updates, sb.updates);
  EXPECT_EQ(sa.flushes, sb.flushes);
  EXPECT_EQ(sa.steps, sb.steps);
  EXPECT_EQ(sa.final_true_count, sb.final_true_count);
  EXPECT_EQ(sa.l1_error.sum(), sb.l1_error.sum());
  EXPECT_EQ(sa.total_mpc_seconds, sb.total_mpc_seconds);
}

GeneratedWorkload SmallTpcDs() {
  TpcDsParams p;
  p.steps = 40;
  p.seed = 21;
  return GenerateTpcDs(p);
}

IncShrinkConfig ShuffleSortConfig(Strategy strategy, uint32_t shards,
                                  int threads) {
  IncShrinkConfig cfg = DefaultTpcDsConfig();
  cfg.strategy = strategy;
  cfg.ant_theta = 8;
  cfg.flush_interval = 16;
  cfg.num_cache_shards = shards;
  cfg.cache_shard_threads = threads;
  cfg.sort_algorithm = SortAlgorithm::kShuffleSort;
  return cfg;
}

TEST(ShuffleSortEngineTest, InvariantAcrossThreadAndBatchKnobs) {
  const GeneratedWorkload w = SmallTpcDs();
  for (const Strategy strategy : {Strategy::kDpTimer, Strategy::kDpAnt}) {
    SCOPED_TRACE(StrategyName(strategy));
    SynchronousDeployment ref_dep(ShuffleSortConfig(strategy, 1, 1));
    ASSERT_TRUE(ref_dep.Run(w.t1, w.t2).ok());
    for (const int threads : {2, 8}) {
      for (const uint32_t min_layer : {1u, 128u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) + " min_layer=" +
                     std::to_string(min_layer));
        IncShrinkConfig cfg = ShuffleSortConfig(strategy, 1, threads);
        cfg.oblivious_batch_min_layer = min_layer;
        SynchronousDeployment run_dep(cfg);
        ASSERT_TRUE(run_dep.Run(w.t1, w.t2).ok());
        ExpectEngineIdentical(ref_dep.engine(), run_dep.engine());
      }
    }
  }
}

TEST(ShuffleSortEngineTest, ShardedRunsInvariantAcrossThreadCounts) {
  const GeneratedWorkload w = SmallTpcDs();
  for (const uint32_t shards : {2u, 4u}) {
    SynchronousDeployment ref_dep(
        ShuffleSortConfig(Strategy::kDpTimer, shards, 1));
    ASSERT_TRUE(ref_dep.Run(w.t1, w.t2).ok());
    for (const int threads : {2, 8}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) + " threads=" +
                   std::to_string(threads));
      SynchronousDeployment run_dep(
          ShuffleSortConfig(Strategy::kDpTimer, shards, threads));
      ASSERT_TRUE(run_dep.Run(w.t1, w.t2).ok());
      ExpectEngineIdentical(ref_dep.engine(), run_dep.engine());
    }
  }
}

TEST(ShuffleSortFleetTest, CoalescedFleetMatchesStandaloneEngines) {
  const GeneratedWorkload w = SmallTpcDs();
  // Mixed tenants: one Batcher, one shuffle-sort — the coalesced fleet's
  // fused submission must dispatch both groups correctly.
  IncShrinkConfig batcher_cfg = ShuffleSortConfig(Strategy::kDpTimer, 1, 1);
  batcher_cfg.sort_algorithm = SortAlgorithm::kBatcher;
  const IncShrinkConfig shuffle_cfg =
      ShuffleSortConfig(Strategy::kDpTimer, 1, 1);
  for (const bool coalesce : {false, true}) {
    SCOPED_TRACE(coalesce ? "coalesced" : "unfused");
    DeploymentFleet::Options opts;
    opts.root_seed = 99;
    opts.num_threads = 2;
    opts.coalesce_sorts = coalesce;
    opts.batch_min_layer = 1;
    DeploymentFleet fleet(
        {{"batcher", batcher_cfg, &w}, {"shuffle", shuffle_cfg, &w}}, opts);
    fleet.RunAll();
    const std::vector<IncShrinkConfig> cfgs{batcher_cfg, shuffle_cfg};
    for (size_t i = 0; i < fleet.num_tenants(); ++i) {
      IncShrinkConfig standalone_cfg = cfgs[i];
      standalone_cfg.seed = DeriveTenantSeed(99, i);
      SynchronousDeployment standalone_dep(standalone_cfg);
      ASSERT_TRUE(standalone_dep.Run(w.t1, w.t2).ok());
      SCOPED_TRACE("tenant " + std::to_string(i));
      ExpectEngineIdentical(standalone_dep.engine(), fleet.engine(i));
    }
  }
}

// ---------------------------------------------------------------------------
// Golden equivalence (registered as the shuffle_sort_golden_smoke ctest
// entry via --gtest_filter=ShuffleSortGolden*)
// ---------------------------------------------------------------------------

TEST(ShuffleSortGoldenTest, SemanticObservablesMatchBatcherWithoutFlushes) {
  // With flushes disabled, both policies release the same DP sizes (the
  // Laplace draws come from the party streams, untouched by the sort
  // algorithm) and fetch prefixes with the same real-row contents (real
  // rows carry unique FIFO keys; ties exist only among dummies). So every
  // semantic observable — transcripts, release schedule, error stats, true
  // counts — must agree exactly; only circuit costs and tie placement may
  // differ from the Batcher goldens.
  const GeneratedWorkload w = SmallTpcDs();
  for (const Strategy strategy : {Strategy::kDpTimer, Strategy::kDpAnt}) {
    SCOPED_TRACE(StrategyName(strategy));
    IncShrinkConfig batcher_cfg = DefaultTpcDsConfig();
    batcher_cfg.strategy = strategy;
    batcher_cfg.ant_theta = 8;
    batcher_cfg.flush_interval = 0;  // flushing is the lossy tier
    IncShrinkConfig shuffle_cfg = batcher_cfg;
    shuffle_cfg.sort_algorithm = SortAlgorithm::kShuffleSort;

    SynchronousDeployment batcher_dep(batcher_cfg);
    ASSERT_TRUE(batcher_dep.Run(w.t1, w.t2).ok());
    SynchronousDeployment shuffle_dep(shuffle_cfg);
    ASSERT_TRUE(shuffle_dep.Run(w.t1, w.t2).ok());
    const Engine& batcher = batcher_dep.engine();
    const Engine& shuffle = shuffle_dep.engine();

    ASSERT_EQ(batcher.transcript().size(), shuffle.transcript().size());
    for (size_t i = 0; i < batcher.transcript().size(); ++i) {
      EXPECT_EQ(batcher.transcript()[i], shuffle.transcript()[i])
          << "event " << i;
    }
    ASSERT_EQ(batcher.releases().size(), shuffle.releases().size());
    for (size_t i = 0; i < batcher.releases().size(); ++i) {
      EXPECT_EQ(batcher.releases()[i].t, shuffle.releases()[i].t);
      EXPECT_EQ(batcher.releases()[i].size, shuffle.releases()[i].size);
      EXPECT_EQ(batcher.releases()[i].fired, shuffle.releases()[i].fired);
    }
    const RunSummary sb = batcher.Summary(), ss = shuffle.Summary();
    EXPECT_EQ(sb.final_view_rows, ss.final_view_rows);
    EXPECT_EQ(sb.final_cache_rows, ss.final_cache_rows);
    EXPECT_EQ(sb.updates, ss.updates);
    EXPECT_EQ(sb.flushes, ss.flushes);
    EXPECT_EQ(sb.steps, ss.steps);
    EXPECT_EQ(sb.final_true_count, ss.final_true_count);
    EXPECT_EQ(sb.total_real_entries_cached, ss.total_real_entries_cached);
    EXPECT_EQ(sb.l1_error.sum(), ss.l1_error.sum());
    EXPECT_EQ(sb.relative_error.sum(), ss.relative_error.sum());
    EXPECT_EQ(sb.true_count_stat.sum(), ss.true_count_stat.sum());
    // The view's real contents agree row-set-wise.
    Party probe0(0, 1), probe1(1, 2);
    Protocol2PC probe(&probe0, &probe1, CostModel::Free());
    EXPECT_EQ(CountRealInside(&probe, batcher.view().rows()),
              CountRealInside(&probe, shuffle.view().rows()));
  }
}

}  // namespace
}  // namespace incshrink
