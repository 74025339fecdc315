#include "src/mpc/protocol.h"

#include <algorithm>
#include <cmath>

#include "src/common/fixed_point.h"
#include "src/common/logging.h"

namespace incshrink {

namespace {

/// AND-gate cost of a fixed-point natural-log circuit plus the scale
/// multiplication used by joint noise generation. A 32-bit fixed-point log
/// via polynomial approximation costs a few multiplications; 5 muls at w^2
/// gates each is a representative garbled-circuit figure.
constexpr uint64_t kJointNoiseAndGates = 5 * kWordBits * kWordBits;

}  // namespace

Protocol2PC::Protocol2PC(Party* s0, Party* s1, CostModel model)
    : s0_(s0), s1_(s1), model_(model),
      // The internal resharing stream is seeded from randomness contributed
      // by BOTH parties, so neither can predict it alone (Appendix A.2).
      internal_rng_((static_cast<uint64_t>(s0->ContributeRandomWord()) << 32) ^
                    s1->ContributeRandomWord() ^ 0xA5A5A5A5DEADBEEFull) {}

WordShares Protocol2PC::Reshare(Word value) {
  const Word mask = internal_rng_.Next32();
  return WordShares{mask, static_cast<Word>(value ^ mask)};
}

WordShares Protocol2PC::FreshShare(Word value) {
  // Each server contributes z_i; c0 = z0 ^ z1, c1 = c0 ^ value. Two private
  // inputs of one word each.
  const Word z0 = s0_->ContributeRandomWord();
  const Word z1 = s1_->ContributeRandomWord();
  AccountBytes(2 * sizeof(Word));
  AccountRounds(1);
  const Word c0 = z0 ^ z1;
  return WordShares{c0, static_cast<Word>(c0 ^ value)};
}

Word Protocol2PC::Reveal(const WordShares& x) {
  AccountBytes(2 * sizeof(Word));
  AccountRounds(1);
  return x.s0 ^ x.s1;
}

WordShares Protocol2PC::Xor(const WordShares& a, const WordShares& b) {
  AccountXorGates(kWordBits);
  // Free-XOR: computed locally on shares, no fresh randomness needed.
  return WordShares{static_cast<Word>(a.s0 ^ b.s0),
                    static_cast<Word>(a.s1 ^ b.s1)};
}

WordShares Protocol2PC::Add(const WordShares& a, const WordShares& b) {
  AccountAndGates(kWordBits);
  return Reshare(RecoverInside(a) + RecoverInside(b));
}

WordShares Protocol2PC::Sub(const WordShares& a, const WordShares& b) {
  AccountAndGates(kWordBits);
  return Reshare(RecoverInside(a) - RecoverInside(b));
}

WordShares Protocol2PC::Mul(const WordShares& a, const WordShares& b) {
  AccountAndGates(kWordBits * kWordBits);
  return Reshare(RecoverInside(a) * RecoverInside(b));
}

WordShares Protocol2PC::LessThan(const WordShares& a, const WordShares& b) {
  AccountAndGates(kWordBits);
  // oblivious-ok: ideal-functionality gate — comparison cost charged above,
  // result re-shared; never observable as plaintext
  return Reshare(RecoverInside(a) < RecoverInside(b) ? 1 : 0);
}

WordShares Protocol2PC::Equal(const WordShares& a, const WordShares& b) {
  AccountAndGates(kWordBits);
  // oblivious-ok: ideal-functionality gate — equality cost charged above,
  // result re-shared
  return Reshare(RecoverInside(a) == RecoverInside(b) ? 1 : 0);
}

WordShares Protocol2PC::Mux(const WordShares& cond, const WordShares& a,
                            const WordShares& b) {
  AccountAndGates(kWordBits);
  const Word c = RecoverInside(cond);
  INCSHRINK_CHECK(c == 0 || c == 1);
  // oblivious-ok: ideal-functionality mux — selection cost charged above,
  // both arms recovered unconditionally, result re-shared
  return Reshare(c ? RecoverInside(a) : RecoverInside(b));
}

WordShares Protocol2PC::And(const WordShares& a, const WordShares& b) {
  AccountAndGates(1);
  return Reshare((RecoverInside(a) & RecoverInside(b)) & 1);
}

WordShares Protocol2PC::Or(const WordShares& a, const WordShares& b) {
  AccountAndGates(1);
  return Reshare((RecoverInside(a) | RecoverInside(b)) & 1);
}

WordShares Protocol2PC::Not(const WordShares& a) {
  AccountXorGates(1);
  return Reshare((RecoverInside(a) ^ 1) & 1);
}

void Protocol2PC::SetRowWord(SharedRows* rows, size_t row, size_t col,
                             const WordShares& v) {
  rows->set_share0_at(row, col, v.s0);
  rows->set_share1_at(row, col, v.s1);
}

void Protocol2PC::MuxSwapRows(SharedRows* rows, size_t i, size_t j,
                              const WordShares& swap) {
  const size_t width = rows->width();
  // XOR-swap circuit: per payload bit, one AND with the swap bit.
  AccountAndGates(width * kWordBits);
  const Word do_swap = RecoverInside(swap) & 1;
  for (size_t c = 0; c < width; ++c) {
    const Word a = rows->share0_at(i, c) ^ rows->share1_at(i, c);
    const Word b = rows->share0_at(j, c) ^ rows->share1_at(j, c);
    // oblivious-ok: ideal-functionality XOR-swap — per-bit AND cost charged
    // above; both rows rewritten with fresh shares either way
    const Word new_i = do_swap ? b : a;
    // oblivious-ok: same site, second arm of the swap
    const Word new_j = do_swap ? a : b;
    const WordShares si = Reshare(new_i);
    const WordShares sj = Reshare(new_j);
    rows->set_share0_at(i, c, si.s0);
    rows->set_share1_at(i, c, si.s1);
    rows->set_share0_at(j, c, sj.s0);
    rows->set_share1_at(j, c, sj.s1);
  }
}

void Protocol2PC::CompareExchangeRows(SharedRows* rows, size_t i, size_t j,
                                      size_t key_col, bool ascending) {
  INCSHRINK_CHECK_LT(i, j);
  AccountAndGates(kWordBits);  // key comparison
  const Word ki = rows->share0_at(i, key_col) ^ rows->share1_at(i, key_col);
  const Word kj = rows->share0_at(j, key_col) ^ rows->share1_at(j, key_col);
  const bool out_of_order = ascending ? (kj < ki) : (ki < kj);
  // oblivious-ok: ideal-functionality compare-exchange — comparison cost
  // charged above; the swap itself runs the unconditional XOR-swap circuit
  MuxSwapRows(rows, i, j, Reshare(out_of_order ? 1 : 0));
}

void Protocol2PC::CompareExchangeRowsLex(SharedRows* rows, size_t i, size_t j,
                                         size_t major_col, size_t minor_col,
                                         bool ascending) {
  INCSHRINK_CHECK_LT(i, j);
  // Two comparisons + one equality + combine gates.
  AccountAndGates(3 * kWordBits + 2);
  const Word mi = rows->share0_at(i, major_col) ^ rows->share1_at(i, major_col);
  const Word mj = rows->share0_at(j, major_col) ^ rows->share1_at(j, major_col);
  const Word ni = rows->share0_at(i, minor_col) ^ rows->share1_at(i, minor_col);
  const Word nj = rows->share0_at(j, minor_col) ^ rows->share1_at(j, minor_col);
  const bool i_greater = mi > mj || (mi == mj && ni > nj);
  const bool j_greater = mj > mi || (mj == mi && nj > ni);
  const bool out_of_order = ascending ? i_greater : j_greater;
  // oblivious-ok: ideal-functionality lex compare-exchange — comparison cost
  // charged above; swap runs the unconditional XOR-swap circuit
  MuxSwapRows(rows, i, j, Reshare(out_of_order ? 1 : 0));
}

WordShares Protocol2PC::SumColumn(const SharedRows& rows, size_t col) {
  // n-1 ripple-carry additions.
  if (!rows.empty()) AccountAndGates((rows.size() - 1) * kWordBits);
  Word sum = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    sum += rows.share0_at(r, col) ^ rows.share1_at(r, col);
  }
  return Reshare(sum);
}

// ---------------------------------------------------------------------------
// Batched oblivious primitives
// ---------------------------------------------------------------------------

void Protocol2PC::AccountCompareExchangeBatch(uint64_t ops, size_t width,
                                              bool lex) {
  const uint64_t compare_gates = lex ? 3 * kWordBits + 2 : kWordBits;
  const uint64_t gates = ops * (compare_gates + width * kWordBits);
  AccountAndGates(gates);
  if (batch_trace_enabled_) {
    batch_trace_.push_back({lex ? BatchTraceEvent::Kind::kCompareExchangeLex
                                : BatchTraceEvent::Kind::kCompareExchange,
                            ops, CircuitStats{gates, 0, 0, 0}});
  }
}

void Protocol2PC::CompareExchangeRowsBatch(SharedRows* rows,
                                           const RowPair* pairs, size_t count,
                                           size_t key_col, bool ascending,
                                           const BatchExec& exec) {
  if (count == 0) return;
  const size_t w = rows->width();
  const size_t mask_words = CompareExchangeMaskWords(w);
  AccountCompareExchangeBatch(count, w, /*lex=*/false);
  if (exec.Serial(count)) {
    // Serial fast path: masks drawn inline per site from the submission's
    // local stream (the exact scalar sequence) — no layer-sized buffer.
    SerialSites sites(this, rows);
    for (size_t p = 0; p < count; ++p) {
      sites.CompareExchange(pairs[p].a, pairs[p].b, key_col, ascending);
    }
    return;
  }
  // Pooled path: the apply order is scheduling-dependent, so all masks are
  // pre-drawn in scalar site order first — the only stream-correct option.
  batch_masks_.resize(count * mask_words);
  DrawReshareMasks(batch_masks_.size(), batch_masks_.data());
  const Word* masks = batch_masks_.data();
  const size_t chunk = BatchChunkSize(count, exec.pool->num_threads());
  const size_t num_chunks = (count + chunk - 1) / chunk;
  exec.pool->ParallelFor(num_chunks, [&](size_t c) {
    const size_t end = std::min(count, (c + 1) * chunk);
    for (size_t p = c * chunk; p < end; ++p) {
      ApplyCompareExchange(rows, pairs[p].a, pairs[p].b, key_col, ascending,
                           masks + p * mask_words);
    }
  });
}

void Protocol2PC::CompareExchangeRowsLexBatch(SharedRows* rows,
                                              const RowPair* pairs,
                                              size_t count, size_t major_col,
                                              size_t minor_col, bool ascending,
                                              const BatchExec& exec) {
  if (count == 0) return;
  const size_t w = rows->width();
  const size_t mask_words = CompareExchangeMaskWords(w);
  AccountCompareExchangeBatch(count, w, /*lex=*/true);
  if (exec.Serial(count)) {
    SerialSites sites(this, rows);
    for (size_t p = 0; p < count; ++p) {
      sites.CompareExchangeLex(pairs[p].a, pairs[p].b, major_col, minor_col,
                               ascending);
    }
    return;
  }
  batch_masks_.resize(count * mask_words);
  DrawReshareMasks(batch_masks_.size(), batch_masks_.data());
  const Word* masks = batch_masks_.data();
  const size_t chunk = BatchChunkSize(count, exec.pool->num_threads());
  const size_t num_chunks = (count + chunk - 1) / chunk;
  exec.pool->ParallelFor(num_chunks, [&](size_t c) {
    const size_t end = std::min(count, (c + 1) * chunk);
    for (size_t p = c * chunk; p < end; ++p) {
      ApplyCompareExchangeLex(rows, pairs[p].a, pairs[p].b, major_col,
                              minor_col, ascending, masks + p * mask_words);
    }
  });
}

void Protocol2PC::AccountMuxSwapBatch(uint64_t ops, size_t width) {
  const uint64_t gates = ops * width * kWordBits;
  AccountAndGates(gates);
  if (batch_trace_enabled_) {
    batch_trace_.push_back({BatchTraceEvent::Kind::kMuxSwap, ops,
                            CircuitStats{gates, 0, 0, 0}});
  }
}

void Protocol2PC::CountWhereBatch(const CountWhereTask* tasks, size_t count,
                                  WordShares* out, const BatchExec& exec) {
  if (count == 0) return;
  uint64_t gates = 0;
  size_t total_rows = 0;
  for (size_t k = 0; k < count; ++k) {
    const CountWhereTask& t = tasks[k];
    INCSHRINK_CHECK_LT(t.flag_col, t.rows->width());
    INCSHRINK_CHECK(t.pred->FitsWidth(t.rows->width()));
    // Per row: predicate circuit + AND with the flag + ripple-carry
    // accumulate — the exact scalar ObliviousCountWhere charge.
    gates += t.rows->size() * (t.pred->and_gates_per_row + 1 + kWordBits);
    total_rows += t.rows->size();
  }
  AccountAndGates(gates);
  if (batch_trace_enabled_) {
    batch_trace_.push_back({BatchTraceEvent::Kind::kCountWhere, count,
                            CircuitStats{gates, 0, 0, 0}});
  }
  // One fresh-share mask per task, drawn in task order (== the scalar
  // ShareWord sequence).
  batch_masks_.resize(count);
  DrawReshareMasks(count, batch_masks_.data());
  const auto task = [&](size_t k) {
    const SharedRows& rows = *tasks[k].rows;
    const ObliviousPredicate& pred = *tasks[k].pred;
    const size_t flag_col = tasks[k].flag_col;
    const size_t w = rows.width();
    const Word* s0 = rows.shares0().data();
    const Word* s1 = rows.shares1().data();
    Word tally = 0;
    for (size_t r = 0; r < rows.size(); ++r) {
      tally += pred.FlaggedMatch(s0 + r * w, s1 + r * w, flag_col);
    }
    const Word mask = batch_masks_[k];
    out[k] = WordShares{mask, static_cast<Word>(tally ^ mask)};
  };
  // Parallelism is per task (tasks vary in size, so the BatchExec
  // threshold is measured in total scanned rows, not task count).
  if (exec.Serial(total_rows) || count < 2) {
    for (size_t k = 0; k < count; ++k) task(k);
    return;
  }
  exec.pool->ParallelFor(count, task);
}

void Protocol2PC::EnableBatchTrace(bool on) {
  batch_trace_enabled_ = on;
  // Disabling only stops recording — the collected trace stays readable.
  if (on) batch_trace_.clear();
}

double Protocol2PC::JointLaplace(double scale) {
  INCSHRINK_CHECK_GT(scale, 0.0);
  const Word z0 = s0_->ContributeRandomWord();
  const Word z1 = s1_->ContributeRandomWord();
  AccountBytes(2 * sizeof(Word));
  AccountRounds(1);
  AccountAndGates(kJointNoiseAndGates);
  const Word z = z0 ^ z1;
  const double r = FixedPointOpenUnit(z);  // in (0, 1)
  const double sign = SignFromMsb(z);
  // scale * ln(r) <= 0 and |scale * ln(r)| ~ Exp(scale), so the product with
  // the uniform sign bit is distributed exactly Lap(0, scale).
  return scale * std::log(r) * sign;
}

}  // namespace incshrink
