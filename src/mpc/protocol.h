#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/mpc/cost_model.h"
#include "src/mpc/party.h"
#include "src/mpc/predicate.h"
#include "src/secret/share.h"
#include "src/secret/shared_rows.h"

namespace incshrink {

/// One compare-exchange / mux-swap site of a batched submission. Pairs in a
/// batch must be pairwise disjoint (no row index appears twice), which is
/// what makes a batch order-free: any evaluation order — including a
/// thread-parallel one — commits the same bits.
struct RowPair {
  uint32_t a = 0;  ///< lower row index
  uint32_t b = 0;  ///< upper row index (a < b)

  bool operator==(const RowPair&) const = default;
};

/// Execution policy of a batched primitive call: whether (and where) a batch
/// may be split across worker threads. Purely a scheduling hint — results
/// are bit-identical with any pool and any threshold, because every batch
/// pre-draws its resharing masks in scalar call order and its sites commit
/// to disjoint rows.
struct BatchExec {
  /// Fork-join pool to split large batches over; null runs the tight serial
  /// kernel on the calling thread.
  ThreadPool* pool = nullptr;
  /// Batches smaller than this stay on the calling thread even when a pool
  /// is available (fork-join overhead would dominate). Config knob
  /// `oblivious_batch_min_layer`.
  size_t min_parallel_ops = 128;

  /// Whether a batch of `ops` sites runs the serial fused kernel: no pool,
  /// a 1-thread pool (nothing to split over — the fused draw+apply path is
  /// strictly faster), or a batch under the threshold.
  bool Serial(size_t ops) const {
    return pool == nullptr || pool->num_threads() <= 1 ||
           ops < min_parallel_ops;
  }
};

/// Splits `count` batch sites into pool chunks. Chunk boundaries are a pure
/// function of (count, threads): scheduling-independent, and since batch
/// sites commit to disjoint rows the chunking never changes a bit. Shared
/// by the single-submission batch APIs and the multi-job sort fusion so
/// both pooled paths chunk identically. 4 chunks per worker keeps the claim
/// counter warm without making the atomic increment a per-site cost.
inline size_t BatchChunkSize(size_t count, int threads) {
  const size_t per_thread =
      (count + static_cast<size_t>(threads) - 1) / static_cast<size_t>(threads);
  return std::max<size_t>(32, (per_thread + 3) / 4);
}

/// One batched COUNT task: count rows of `*rows` whose `flag_col` low bit is
/// set and that satisfy `*pred`, whose `and_gates_per_row` is the per-row
/// predicate circuit. Both must outlive the CountWhereBatch call.
struct CountWhereTask {
  const SharedRows* rows = nullptr;
  size_t flag_col = 0;
  const ObliviousPredicate* pred = nullptr;
};

/// One entry of the (opt-in) batch trace: a batched submission recorded as a
/// single event carrying its exact aggregate circuit cost. The sum of event
/// costs over a phase is bit-identical to the scalar path's running
/// CircuitStats for the same ops — batching amortizes the bookkeeping, it
/// never changes the totals.
struct BatchTraceEvent {
  enum class Kind : uint8_t {
    kCompareExchange,     ///< batched CompareExchangeRows sites
    kCompareExchangeLex,  ///< batched CompareExchangeRowsLex sites
    kMuxSwap,             ///< batched MuxSwapRows sites
    kCountWhere,          ///< batched oblivious COUNT tasks
  };

  Kind kind;
  uint64_t ops;       ///< scalar primitive calls fused into this submission
  CircuitStats cost;  ///< exact aggregate gates/bytes/rounds of the batch
};

/// \brief Simulated semi-honest two-party computation runtime.
///
/// This class plays the role EMP-Toolkit plays in the paper's prototype: it
/// evaluates Boolean-circuit operations over XOR-shared 32-bit words between
/// the two non-colluding servers S0 and S1.
///
/// Simulation model: the functionality of each gate is computed directly on
/// the recovered values (the runtime acts as the ideal functionality), the
/// result is re-shared with fresh randomness derived from both parties'
/// contributed seeds, and the circuit cost (AND gates, communicated bytes,
/// rounds) of the equivalent garbled-circuit protocol is charged to the
/// running `CircuitStats`. Consequently:
///  * each party's local state is always a stream of uniformly random shares
///    (tested in `tests/mpc_test.cc`), and
///  * control flow is data-independent — the same gate trace is produced for
///    any two inputs of equal public size (tested in
///    `tests/oblivious_test.cc`).
///
/// Simulated wall-clock time is obtained by pricing the accumulated stats
/// through a `CostModel`.
class Protocol2PC {
 public:
  Protocol2PC(Party* s0, Party* s1, CostModel model);

  Party* s0() { return s0_; }
  Party* s1() { return s1_; }
  const CostModel& cost_model() const { return model_; }

  // ------------------------------------------------------------------
  // Cost accounting
  // ------------------------------------------------------------------

  const CircuitStats& stats() const { return stats_; }

  /// Returns a snapshot usable with `StatsSince` to meter a phase.
  CircuitStats Snapshot() const { return stats_; }
  CircuitStats StatsSince(const CircuitStats& snap) const {
    return stats_.Diff(snap);
  }
  double SimulatedSeconds() const { return stats_.SimulatedSeconds(model_); }
  double SimulatedSecondsSince(const CircuitStats& snap) const {
    return stats_.Diff(snap).SimulatedSeconds(model_);
  }

  void AccountAndGates(uint64_t n) { stats_.and_gates += n; }
  void AccountXorGates(uint64_t n) { stats_.xor_gates += n; }
  void AccountBytes(uint64_t n) { stats_.bytes += n; }
  void AccountRounds(uint64_t n) { stats_.rounds += n; }

  // ------------------------------------------------------------------
  // Sharing / revealing
  // ------------------------------------------------------------------

  /// Produces a fresh sharing of `value` inside the protocol using
  /// party-contributed randomness (Appendix A.2): c0 = z0 XOR z1,
  /// c1 = c0 XOR value.
  WordShares FreshShare(Word value);

  /// Trivial sharing of a public constant: {v, 0}. Costs nothing.
  static WordShares ConstShare(Word value) { return WordShares{value, 0}; }

  /// Opens a shared value to both parties (each sends its share).
  Word Reveal(const WordShares& x);

  /// Recovers a value inside the protocol without revealing it to the
  /// parties (e.g., Shrink recovering the cardinality counter "internally").
  Word RecoverInside(const WordShares& x) const { return x.s0 ^ x.s1; }

  // ------------------------------------------------------------------
  // Word-level secure operations (all return fresh sharings and charge the
  // garbled-circuit cost of the corresponding 32-bit Boolean circuit).
  // ------------------------------------------------------------------

  WordShares Xor(const WordShares& a, const WordShares& b);  ///< Free-XOR.
  WordShares Add(const WordShares& a, const WordShares& b);
  WordShares Sub(const WordShares& a, const WordShares& b);
  WordShares Mul(const WordShares& a, const WordShares& b);
  /// Unsigned a < b, returned as a sharing of 0/1.
  WordShares LessThan(const WordShares& a, const WordShares& b);
  /// a == b, returned as a sharing of 0/1.
  WordShares Equal(const WordShares& a, const WordShares& b);
  /// cond ? a : b. `cond` must be a sharing of 0/1.
  WordShares Mux(const WordShares& cond, const WordShares& a,
                 const WordShares& b);
  /// Logical AND / OR / NOT of shared 0/1 bits.
  WordShares And(const WordShares& a, const WordShares& b);
  WordShares Or(const WordShares& a, const WordShares& b);
  WordShares Not(const WordShares& a);

  // ------------------------------------------------------------------
  // Row-level secure operations over SharedRows
  // ------------------------------------------------------------------

  /// Writes a sharing into word (row, col).
  void SetRowWord(SharedRows* rows, size_t row, size_t col,
                  const WordShares& v);

  /// Obliviously swaps rows i and j iff the shared bit `swap` is 1, using the
  /// XOR-swap circuit: one AND gate per payload bit.
  void MuxSwapRows(SharedRows* rows, size_t i, size_t j,
                   const WordShares& swap);

  /// Compare-exchange for oblivious sorting networks: orders rows i and j by
  /// the 32-bit key in `key_col` (ascending if `ascending`). Ties keep the
  /// original order. Cost: one comparison + one row mux-swap.
  void CompareExchangeRows(SharedRows* rows, size_t i, size_t j,
                           size_t key_col, bool ascending);

  /// Lexicographic compare-exchange on (major_col, minor_col). Used where a
  /// total deterministic order is required (sorting networks are not stable,
  /// so ties must be broken inside the comparator). Cost: two comparisons,
  /// one equality, two gate-level combines, one row mux-swap.
  void CompareExchangeRowsLex(SharedRows* rows, size_t i, size_t j,
                              size_t major_col, size_t minor_col,
                              bool ascending);

  /// Sums column `col` over all rows (used for oblivious COUNT over isView
  /// bits). Returns a sharing of the sum.
  WordShares SumColumn(const SharedRows& rows, size_t col);

  // ------------------------------------------------------------------
  // Batched oblivious primitives (layer-vectorized execution)
  //
  // Each batch call is bit-identical to issuing its scalar ops in pair
  // order: the resharing masks are drawn from the internal stream in
  // exactly the scalar call order (inline by SerialSites, or pre-drawn for
  // the pooled kernels, which are pure functions of (shares, masks)), and
  // the aggregate circuit cost is charged once per batch — totals equal to
  // the scalar sum. Because the sites of a batch touch pairwise-disjoint
  // rows, the pooled apply phase may be split across a ThreadPool
  // (BatchExec) without changing a single committed bit.
  // ------------------------------------------------------------------

  /// Words of resharing randomness one mux-swap site consumes.
  static constexpr size_t MuxSwapMaskWords(size_t width) { return 2 * width; }
  /// Words one compare-exchange site consumes (swap bit + row reshares).
  static constexpr size_t CompareExchangeMaskWords(size_t width) {
    return 1 + 2 * width;
  }

  /// Draws `count` words from the internal resharing stream — the exact
  /// sequence the scalar ops would have consumed one Reshare at a time.
  /// Pooled batches take their randomness only from here, serial
  /// submissions only through SerialSites (below), which draws the same
  /// sequence from a local copy of the stream; every draw stays in this
  /// header (the `draw-free` rule in tools/lint/secret_api.toml enforces
  /// the scheduler side).
  /// Inline (with the kernels below): these are the innermost hot loops of
  /// every oblivious sort, and an out-of-line call per word/site erases the
  /// batching win.
  void DrawReshareMasks(size_t count, Word* out) {
    for (size_t i = 0; i < count; ++i) out[i] = internal_rng_.Next32();
  }

  /// Single-key out-of-order predicate over raw share arrays of row width
  /// `w`, shared by the pre-draw kernels and the serial stream kernels: one
  /// source of truth for the comparator the serial and pooled rounds must
  /// agree on.
  static bool KeyOutOfOrder(const Word* s0, const Word* s1, size_t w,
                            size_t i, size_t j, size_t key_col,
                            bool ascending) {
    const Word ki = s0[i * w + key_col] ^ s1[i * w + key_col];
    const Word kj = s0[j * w + key_col] ^ s1[j * w + key_col];
    return ascending ? (kj < ki) : (ki < kj);
  }

  /// Lexicographic (major, minor) out-of-order predicate — ditto.
  static bool LexOutOfOrder(const Word* s0, const Word* s1, size_t w,
                            size_t i, size_t j, size_t major_col,
                            size_t minor_col, bool ascending) {
    const Word mi = s0[i * w + major_col] ^ s1[i * w + major_col];
    const Word mj = s0[j * w + major_col] ^ s1[j * w + major_col];
    const Word ni = s0[i * w + minor_col] ^ s1[i * w + minor_col];
    const Word nj = s0[j * w + minor_col] ^ s1[j * w + minor_col];
    const bool i_greater = mi > mj || (mi == mj && ni > nj);
    const bool j_greater = mj > mi || (mj == mi && nj > ni);
    return ascending ? i_greater : j_greater;
  }

  /// Pure mux-swap kernel over MuxSwapMaskWords(width) pre-drawn masks: no
  /// accounting, no randomness, safe to run concurrently with other sites
  /// of the same batch on disjoint rows.
  void ApplyMuxSwap(SharedRows* rows, size_t i, size_t j, bool do_swap,
                    const Word* masks) const {
    MuxSwapImpl(rows->mutable_share0(), rows->mutable_share1(), rows->width(),
                i, j, do_swap, [&masks]() { return *masks++; });
  }

  /// Pure compare-exchange kernel over CompareExchangeMaskWords(width)
  /// pre-drawn masks (same concurrency contract as ApplyMuxSwap).
  void ApplyCompareExchange(SharedRows* rows, size_t i, size_t j,
                            size_t key_col, bool ascending,
                            const Word* masks) const {
    const bool out_of_order =
        KeyOutOfOrder(rows->shares0().data(), rows->shares1().data(),
                      rows->width(), i, j, key_col, ascending);
    // masks[0] is the swap-bit reshare the scalar path draws; the batch
    // draws it too (stream alignment) but, like the scalar path, never
    // stores it.
    ApplyMuxSwap(rows, i, j, out_of_order, masks + 1);
  }

  /// Pure lexicographic compare-exchange kernel (same mask layout).
  void ApplyCompareExchangeLex(SharedRows* rows, size_t i, size_t j,
                               size_t major_col, size_t minor_col,
                               bool ascending, const Word* masks) const {
    const bool out_of_order =
        LexOutOfOrder(rows->shares0().data(), rows->shares1().data(),
                      rows->width(), i, j, major_col, minor_col, ascending);
    ApplyMuxSwap(rows, i, j, out_of_order, masks + 1);
  }

  /// \brief Stream-scoped serial kernels: one serial submission's sites.
  ///
  /// Construction copies the internal resharing stream into a local Rng and
  /// loads the table's share pointers and width once; every site then draws
  /// its masks inline from that local stream, in scalar word order, through
  /// the same MuxSwapImpl body and comparators as the pre-draw kernels.
  /// Destruction writes the advanced cursor back, so a submission leaves the
  /// protocol exactly where the scalar ops would. Keeping the stream and
  /// pointers in locals (not re-read through the protocol and the table on
  /// every site) is what puts a serial compare-exchange at the cost of its
  /// 1 + 2*width draws. Accounting stays with the caller, charged in
  /// aggregate per batch.
  ///
  /// While one is alive nothing else may draw from the protocol's stream
  /// and the table must not be resized.
  class SerialSites {
   public:
    SerialSites(Protocol2PC* proto, SharedRows* rows)
        : proto_(proto),
          rng_(proto->internal_rng_),
          s0_(rows->mutable_share0()),
          s1_(rows->mutable_share1()),
          w_(rows->width()) {}
    ~SerialSites() { proto_->internal_rng_ = rng_; }
    SerialSites(const SerialSites&) = delete;
    SerialSites& operator=(const SerialSites&) = delete;

    /// Mux-swap site (scalar MuxSwapRows minus accounting).
    void MuxSwap(size_t i, size_t j, bool do_swap) {
      MuxSwapImpl(s0_, s1_, w_, i, j, do_swap,
                  [this]() { return rng_.Next32(); });
    }

    /// Compare-exchange site: the swap-bit reshare is drawn and discarded
    /// exactly as the scalar op does.
    void CompareExchange(size_t i, size_t j, size_t key_col, bool ascending) {
      const bool out_of_order =
          KeyOutOfOrder(s0_, s1_, w_, i, j, key_col, ascending);
      rng_.Next32();  // swap-bit reshare (stream alignment)
      MuxSwap(i, j, out_of_order);
    }

    /// Lexicographic compare-exchange site.
    void CompareExchangeLex(size_t i, size_t j, size_t major_col,
                            size_t minor_col, bool ascending) {
      const bool out_of_order = LexOutOfOrder(s0_, s1_, w_, i, j, major_col,
                                              minor_col, ascending);
      rng_.Next32();  // swap-bit reshare (stream alignment)
      MuxSwap(i, j, out_of_order);
    }

   private:
    Protocol2PC* proto_;
    Rng rng_;
    Word* s0_;
    Word* s1_;
    size_t w_;
  };

  /// Charges the exact aggregate cost of `ops` fused (lex) compare-exchange
  /// sites over rows of `width` words and records one batch trace event.
  void AccountCompareExchangeBatch(uint64_t ops, size_t width, bool lex);

  /// Charges the exact aggregate cost of `ops` fused mux-swap sites over
  /// rows of `width` words and records one batch trace event. The
  /// permutation-network scheduler (src/oblivious/shuffle.cc) charges
  /// through this. Its switches are mux-swaps with publicly programmed
  /// control bits, and the conditional swap still runs the full
  /// per-bit AND circuit — hiding *whether* each switch crossed is exactly
  /// what keeps the realized permutation secret from the evaluator.
  void AccountMuxSwapBatch(uint64_t ops, size_t width);

  /// Batched CompareExchangeRows over disjoint index pairs — bit-identical
  /// to calling the scalar op once per pair in order.
  void CompareExchangeRowsBatch(SharedRows* rows, const RowPair* pairs,
                                size_t count, size_t key_col, bool ascending,
                                const BatchExec& exec = {});

  /// Batched CompareExchangeRowsLex over disjoint index pairs.
  void CompareExchangeRowsLexBatch(SharedRows* rows, const RowPair* pairs,
                                   size_t count, size_t major_col,
                                   size_t minor_col, bool ascending,
                                   const BatchExec& exec = {});

  /// Batched oblivious COUNT: evaluates `count` CountWhereTasks with one
  /// aggregate accounting event; `out[k]` receives task k's fresh sharing.
  /// Bit-identical to per-task ObliviousCountWhere in task order. Each row
  /// is charged its predicate circuit + the AND with the flag + a
  /// ripple-carry accumulate, and the scan decodes only the flag word and
  /// the predicate's term columns, accumulating without a branch. Tasks
  /// vary in size, so `exec.min_parallel_ops` is measured in total scanned
  /// rows here (parallelism itself is per task).
  void CountWhereBatch(const CountWhereTask* tasks, size_t count,
                       WordShares* out, const BatchExec& exec = {});

  /// Opt-in recording of batched submissions (off by default: long runs
  /// would otherwise accumulate unbounded trace state). Enabling clears any
  /// previous trace.
  void EnableBatchTrace(bool on);
  const std::vector<BatchTraceEvent>& batch_trace() const {
    return batch_trace_;
  }

  // ------------------------------------------------------------------
  // Joint noise generation (paper Alg. 2 lines 4-6 / Section 5.2)
  // ------------------------------------------------------------------

  /// Samples Lap(scale) with randomness contributed by both servers:
  /// z = z0 XOR z1, r = fixed_point(z) in (0,1),
  /// noise = scale * ln(r) * sign(msb(z)).
  /// Neither party alone can predict or bias the noise as long as the other
  /// is honest. Charges the cost of a fixed-point log circuit.
  double JointLaplace(double scale);

  /// Internal combined randomness (seeded from both parties). Exposed for
  /// oblivious operators that need in-protocol random choices (e.g. dummy
  /// payload generation during padding).
  Rng* internal_rng() { return &internal_rng_; }

  /// Checkpoint-restore path: overwrites the accumulated circuit statistics
  /// with snapshot values, so per-step cost deltas (Snapshot()/CostSince())
  /// in a restored run match the uninterrupted run exactly.
  void RestoreStats(const CircuitStats& stats) { stats_ = stats; }

 private:
  /// The one oblivious XOR-swap body both kernel families share, over raw
  /// share arrays of row width `w`; `mask_fn` supplies the 2*w resharing
  /// masks — pre-drawn array reads for the pooled Apply* kernels, inline
  /// local-stream draws for SerialSites. Same word order either way, so
  /// both commit identical bits for identical streams.
  template <typename MaskFn>
  static void MuxSwapImpl(Word* s0, Word* s1, size_t w, size_t i, size_t j,
                          bool do_swap, MaskFn&& mask_fn) {
    Word* r0i = s0 + i * w;
    Word* r1i = s1 + i * w;
    Word* r0j = s0 + j * w;
    Word* r1j = s1 + j * w;
    for (size_t c = 0; c < w; ++c) {
      const Word a = r0i[c] ^ r1i[c];
      const Word b = r0j[c] ^ r1j[c];
      // oblivious-ok: ideal-functionality XOR-swap kernel — the batch charged
      // the per-bit AND cost in aggregate; both rows get fresh masks either way
      const Word new_i = do_swap ? b : a;
      // oblivious-ok: same site, second arm of the swap
      const Word new_j = do_swap ? a : b;
      const Word mi = mask_fn();
      const Word mj = mask_fn();
      r0i[c] = mi;
      r1i[c] = new_i ^ mi;
      r0j[c] = mj;
      r1j[c] = new_j ^ mj;
    }
  }

  /// Re-shares a plaintext word with protocol-internal fresh randomness.
  WordShares Reshare(Word value);

  Party* s0_;
  Party* s1_;
  CostModel model_;
  CircuitStats stats_;
  Rng internal_rng_;
  bool batch_trace_enabled_ = false;
  std::vector<BatchTraceEvent> batch_trace_;
  /// Reusable mask buffer for batched submissions (allocation-free inner
  /// loops once warmed). The protocol is single-submitter by contract, so
  /// one buffer suffices.
  std::vector<Word> batch_masks_;
};

}  // namespace incshrink
