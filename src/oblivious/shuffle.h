#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/mpc/protocol.h"
#include "src/oblivious/sort.h"
#include "src/secret/shared_rows.h"

namespace incshrink {

/// \brief Oblivious shuffles via control-bit-programmed Waksman permutation
/// networks, and the ORQ-style shuffle-then-sort fast path built on them.
///
/// A Waksman (AS-Waksman) network realizes *any* permutation of n wires with
/// ~n*log2(n) - n + 1 two-input switches — a log(n) factor fewer gates than
/// Batcher's O(n log^2 n) compare-exchange network, which is what the cache
/// recycle/flush paths pay today even though they only need *some* secret
/// permutation. Each switch is exactly one row mux-swap whose control bit is
/// programmed (publicly, from a permutation drawn via the protocol's seeded
/// stream) instead of computed from a key comparison: the conditional swap
/// still runs the full per-bit AND circuit, because hiding whether each
/// switch crossed is what keeps the realized permutation secret from the
/// evaluating servers.
///
/// Execution model mirrors src/oblivious/sort.cc: the network is emitted
/// layer by layer (a `ShuffleLayerCursor`), every layer's switches touch
/// pairwise-disjoint rows, and each layer is one batched mux-swap
/// submission — a serial `Protocol2PC::SerialSites` run, or pre-drawn
/// resharing masks in scalar site order with a thread-parallel apply —
/// with its aggregate cost charged once per layer. Output
/// shares, the internal randomness stream and the aggregate circuit cost
/// are bit-identical at any thread count (tests/shuffle_test.cc).
///
/// The network *topology* (switch placement, layer sizes, depth) is a pure
/// function of n; only the control bits depend on the permutation. The
/// permutation itself is drawn exclusively through DrawReshareMasks
/// (tools/check_no_hidden_entropy.sh pins this), so every draw count is a
/// pure function of n too and the whole circuit trace is input-invariant.

/// One programmed switch: obliviously swap `pair` iff `swap` (the public
/// control bit). All switches of a network execute regardless of their
/// control bit — the bit only decides the crossing.
struct ProgrammedSwitch {
  RowPair pair;
  bool swap = false;
};

/// Builds the programmed Waksman network realizing, for an array `src` of
/// perm.size() rows, the in-place rearrangement dst[k] = src[perm[k]].
/// Returned as execution layers of pairwise-disjoint switches. `perm` must
/// be a permutation of [0, n).
std::vector<std::vector<ProgrammedSwitch>> WaksmanNetwork(
    const std::vector<uint32_t>& perm);

/// Number of switches the n-wire network contains (pure function of n):
/// 0 for n < 2, and S(n) = floor(n/2) + (n even ? n/2 - 1 : floor(n/2))
/// + S(floor(n/2)) + S(ceil(n/2)) otherwise — n*log2(n) - n + 1 at powers
/// of two.
uint64_t ShuffleNetworkSwitches(size_t n);

/// Depth (layer count) of the n-wire network: d(2) = 1,
/// d(n) = 2 + d(ceil(n/2)).
uint64_t ShuffleNetworkDepth(size_t n);

/// Per-layer switch counts in execution order; sums to
/// ShuffleNetworkSwitches(n). Drives the bench layer histogram and the
/// layer property tests.
std::vector<uint64_t> ShuffleNetworkLayerSizes(size_t n);

/// Enumerates a programmed network one layer at a time, mirroring
/// LayerCursor in src/oblivious/sort.cc: each `Next` yields one layer of
/// disjoint switches, the unit submitted as one batched mux-swap round.
class ShuffleLayerCursor {
 public:
  explicit ShuffleLayerCursor(const std::vector<uint32_t>& perm)
      : layers_(WaksmanNetwork(perm)) {}

  /// Moves the next layer's switches into `out` (each layer is handed out
  /// once, never copied); returns false when the network is exhausted.
  bool Next(std::vector<ProgrammedSwitch>* out) {
    out->clear();
    if (next_ >= layers_.size()) return false;
    *out = std::move(layers_[next_++]);
    return true;
  }

 private:
  std::vector<std::vector<ProgrammedSwitch>> layers_;
  size_t next_ = 0;
};

/// Draws a uniformly random public permutation of [0, n) from the
/// protocol's internal stream — the *only* sanctioned control-bit entropy
/// source for shuffles. Consumes exactly 2*(n-1) DrawReshareMasks words
/// (64 bits per Fisher-Yates step, reduced by multiply-high), so the draw
/// count is a pure function of n and the stream stays aligned across
/// same-cardinality inputs. The permutation is public in the same sense the
/// network topology is: it is jointly seeded randomness, independent of any
/// secret-shared payload.
std::vector<uint32_t> DrawPublicPermutation(Protocol2PC* proto, size_t n);

/// Applies `perm` to `rows` obliviously (rows'[k] = rows[perm[k]]) through
/// the programmed Waksman network: the single-job ObliviousShuffleBatch,
/// one mux-swap submission per layer.
void ObliviousShuffle(Protocol2PC* proto, SharedRows* rows,
                      const std::vector<uint32_t>& perm,
                      const BatchExec& exec = {});

/// One shuffle of a multi-shuffle submission. As with SortJob, jobs of one
/// batch must run on pairwise-distinct protocol instances.
struct ShuffleJob {
  Protocol2PC* proto = nullptr;
  SharedRows* rows = nullptr;
  /// Permutation over rows->size() entries (not owned).
  const std::vector<uint32_t>* perm = nullptr;
};

/// Cross-shard / cross-tenant shuffle fusion: executes every job's network
/// in lockstep layer rounds, pooling the round's mux-swap sites across jobs
/// into wide submissions. Bit-identical per job to its ObliviousShuffle run
/// alone, at any thread count and any job mix (same contract — and same
/// structure — as ObliviousSortBatch).
void ObliviousShuffleBatch(ShuffleJob* jobs, size_t num_jobs,
                           const BatchExec& exec = {});

/// One recycle-tier permute job: the cache shard to re-randomize.
struct PermuteJob {
  Protocol2PC* proto = nullptr;
  SharedRows* rows = nullptr;
};

/// Cache-recycle tier: draws one fresh public permutation per job from the
/// job's own protocol stream (job order) and applies all networks as one
/// fused submission. This replaces the flush sort outright under
/// `sort_algorithm = shuffle_sort`: the flush's prefix cut is public-size,
/// so *any* secret permutation randomizes which rows are fetched versus
/// recycled — full key order is never needed.
void ObliviousRandomPermuteBatch(PermuteJob* jobs, size_t num_jobs,
                                 const BatchExec& exec = {});

/// Single-job convenience wrapper around ObliviousRandomPermuteBatch.
void ObliviousRandomPermute(Protocol2PC* proto, SharedRows* rows,
                            const BatchExec& exec = {});

/// Comparison sites the shuffle-then-sort path charges for the in-protocol
/// argsort of n shuffled keys: n * ceil(log2 n) (a comparison-based sort's
/// information-theoretic bound, matching what a real oblivious 2PC
/// quicksort pays post-shuffle). Pure function of n, so the charge — like
/// every other component of the shuffle-sort trace — is input-invariant.
uint64_t ShuffleSortComparisons(size_t n);

/// ORQ-style shuffle-then-sort: (1) apply a random Waksman shuffle drawn
/// from the protocol stream, (2) stably argsort the shuffled keys inside
/// the ideal functionality — charging ShuffleSortComparisons(n) key
/// comparisons — and (3) apply a second Waksman pass programmed from that
/// argsort. Total O(n log n) gates versus Batcher's O(n log^2 n). The key
/// order of the result equals Batcher's; tie placement differs (ties land
/// in shuffled order), which is why the Batcher goldens stay the reference
/// and this path is opt-in.
void ObliviousShuffleSort(Protocol2PC* proto, SharedRows* rows,
                          size_t key_col, bool ascending,
                          const BatchExec& exec = {});

/// Multi-job fused shuffle-then-sort (the SortAlgorithm::kShuffleSort arm
/// of ObliviousSortBatch): per-job permutation draws and argsorts run in
/// job order; both Waksman passes execute as fused lockstep submissions.
/// Bit-identical per job to its ObliviousShuffleSort run alone. Jobs must
/// be single-key (lex == false) and on pairwise-distinct protocols.
void ObliviousShuffleSortBatch(SortJob* jobs, size_t num_jobs,
                               const BatchExec& exec = {});

}  // namespace incshrink
