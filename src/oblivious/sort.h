#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/mpc/protocol.h"
#include "src/secret/shared_rows.h"

namespace incshrink {

/// \brief Oblivious sorting of secret-shared rows (paper's ObliSort).
///
/// Implements Batcher's odd-even merge sorting network for arbitrary input
/// length. The sequence of compare-exchange operations depends only on the
/// public row count, never on the data — the defining property of an
/// oblivious sort (tested by asserting identical gate traces across inputs).
///
/// Cost: ~ n/4 * log^2(n) compare-exchanges, each costing one 32-bit
/// comparison plus one row-width mux-swap, matching the sort-network costs
/// the paper's EMP implementation pays.
///
/// Execution model: the network is emitted **layer by layer** — one layer
/// per (p, k) pass of the network, whose compare-exchange pairs are disjoint
/// by construction — and each layer is submitted as one batched
/// `CompareExchangeRowsBatch` call: one aggregate cost event instead of a
/// per-gate charge, pre-drawn resharing masks in scalar call order, and an
/// optionally thread-parallel apply over the disjoint pairs. Output shares,
/// the internal randomness stream and the aggregate circuit cost are
/// bit-identical to the scalar per-op path at any thread count
/// (tests/batched_oblivious_test.cc).

/// Which full-sort execution policy an oblivious sort runs.
///
///  * kBatcher — Batcher's odd-even merge network, O(n log^2 n)
///    compare-exchanges. The reference path: goldens are recorded on it.
///  * kShuffleSort — ORQ-style shuffle-then-sort (src/oblivious/shuffle.h):
///    a random Waksman shuffle followed by a second Waksman pass programmed
///    from the stable in-protocol argsort of the shuffled keys,
///    O(n log n) mux gates + n*ceil(log2 n) charged comparisons. Opt-in
///    via IncShrinkConfig::sort_algorithm; same sorted key order, different
///    tie placement and circuit trace (both traces remain pure functions of
///    the public row count — tests/shuffle_test.cc pins this).
enum class SortAlgorithm : uint8_t {
  kBatcher,
  kShuffleSort,
};

/// Sorts `rows` in place by the 32-bit key in `key_col`.
/// Ascending if `ascending`, else descending.
void ObliviousSort(Protocol2PC* proto, SharedRows* rows, size_t key_col,
                   bool ascending);

/// Sorts `rows` lexicographically by (major_col, minor_col). When the pair
/// is unique per row this yields a deterministic total order even though the
/// underlying network is not stable.
void ObliviousSortLex(Protocol2PC* proto, SharedRows* rows, size_t major_col,
                      size_t minor_col, bool ascending);

/// Batched variants taking an explicit execution policy (pool + the
/// `oblivious_batch_min_layer` threshold); the two-argument-shorter forms
/// above run the serial batch kernels.
void ObliviousSort(Protocol2PC* proto, SharedRows* rows, size_t key_col,
                   bool ascending, const BatchExec& exec);
void ObliviousSortLex(Protocol2PC* proto, SharedRows* rows, size_t major_col,
                      size_t minor_col, bool ascending,
                      const BatchExec& exec);

/// One oblivious sort of a multi-sort submission. Jobs of one batch must
/// run on pairwise-distinct protocol instances (each sort consumes its own
/// protocol's resharing stream; two jobs on one protocol would interleave
/// draws nondeterministically).
struct SortJob {
  Protocol2PC* proto = nullptr;
  SharedRows* rows = nullptr;
  size_t key_col = 0;    ///< sort key (major key for lex jobs)
  size_t minor_col = 0;  ///< lex tie-break column (lex jobs only)
  bool lex = false;
  bool ascending = true;
  /// Execution policy of this job. A batch may mix policies freely (jobs
  /// run on distinct protocols, so the groups cannot perturb each other's
  /// streams); shuffle-sort jobs must be single-key (lex == false).
  SortAlgorithm algorithm = SortAlgorithm::kBatcher;
};

/// Cross-shard / cross-tenant sort fusion: executes every job's sorting
/// network in lockstep layer rounds — round r applies layer r of every job
/// whose network still has one — so the pair-apply work of all jobs pools
/// into a handful of wide submissions instead of serializing job by job.
/// Masks are pre-drawn per job in scalar order before each round and cost
/// is charged per job per layer, so every job's output shares, randomness
/// stream and aggregate cost are bit-identical to running its
/// ObliviousSort alone (at any thread count, any job mix).
void ObliviousSortBatch(SortJob* jobs, size_t num_jobs,
                        const BatchExec& exec = {});

/// Scalar reference path: the pre-batching per-compare-exchange
/// implementation, kept for equivalence tests and scalar-vs-batched
/// benchmarks. Bit-identical to the batched path by construction.
void ObliviousSortScalar(Protocol2PC* proto, SharedRows* rows, size_t key_col,
                         bool ascending);
void ObliviousSortLexScalar(Protocol2PC* proto, SharedRows* rows,
                            size_t major_col, size_t minor_col,
                            bool ascending);

/// Returns the number of compare-exchanges the network performs for `n` rows
/// (exposed for cost analysis and tests).
uint64_t SortNetworkCompareExchanges(size_t n);

/// Per-layer compare-exchange counts of the n-row network, in execution
/// order. Sums to SortNetworkCompareExchanges(n); drives the bench
/// batch-size histogram and the layer property tests.
std::vector<uint64_t> SortNetworkLayerSizes(size_t n);

/// Materializes the network's layers as explicit pair lists (test access:
/// the layer-disjointness and scalar-order properties are asserted on it).
std::vector<std::vector<RowPair>> SortNetworkLayers(size_t n);

}  // namespace incshrink
