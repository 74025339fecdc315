#include "src/core/transform.h"

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "src/common/logging.h"
#include "src/oblivious/cache_ops.h"
#include "src/oblivious/formats.h"
#include "src/oblivious/sort.h"

namespace incshrink {

TransformProtocol::TransformProtocol(Protocol2PC* proto,
                                     const IncShrinkConfig& config,
                                     PrivacyAccountant* accountant)
    : proto_(proto), config_(config), accountant_(accountant) {}

uint32_t TransformProtocol::EligibleSteps(const IncShrinkConfig& config) {
  const uint32_t budget_steps = config.budget_b / config.omega;
  INCSHRINK_CHECK_GE(budget_steps, 1u);
  return std::min(config.window_steps, budget_steps - 1);
}

uint64_t TransformProtocol::RetainFrom(const IncShrinkConfig& config,
                                      uint64_t t) {
  if (config.strategy == Strategy::kNm) return 0;
  if (config.view_kind == ViewKind::kFilter) return t;
  const uint64_t eligible = EligibleSteps(config);
  return t > eligible ? t - eligible : 0;
}

uint64_t TransformProtocol::PublicCacheAppendRows(
    const IncShrinkConfig& config, uint64_t t) {
  if (config.view_kind == ViewKind::kFilter) {
    // Selection rewrites flags in place: output size == batch size.
    return config.upload_rows_t1;
  }
  const uint64_t wlen =
      std::min<uint64_t>(EligibleSteps(config), t > 0 ? t - 1 : 0);
  if (config.t2_is_public ||
      config.op == TransformOperator::kNestedLoopJoin) {
    // T1-side bound: every new pair involves either a new T1 record
    // (<= omega each) or an eligible old T1 record joined by a new row
    // (<= omega each). This is also the exact output size of the
    // nested-loop operator, which emits omega slots per outer tuple.
    return static_cast<uint64_t>(config.omega) * config.upload_rows_t1 *
           (1 + wlen);
  }
  // Both sides capped (sort-merge): every new pair involves at least one
  // *new* record and each new record contributes at most omega rows.
  return static_cast<uint64_t>(config.omega) *
         (config.upload_rows_t1 + config.upload_rows_t2);
}

Status TransformProtocol::ChargeBatch(const SharedRows& batch,
                                      std::unordered_set<Word>* charged) {
  // "As long as a record is used as input to Transform (regardless of
  // whether it contributes to generating a real view entry), it is consumed
  // with a fixed amount of budget (equal to the truncation limit omega)."
  proto_->AccountAndGates(batch.size() * 2 * kWordBits);  // budget check+dec
  std::vector<Word> buf(batch.width());
  for (size_t r = 0; r < batch.size(); ++r) {
    const std::span<const Word> row = batch.RecoverRowInto(r, buf);
    // oblivious-ok: ideal-functionality budget charge — the check+decrement
    // circuit is charged for every row above; the ledger models in-circuit
    // per-record budget state and is only released through the DP path
    if (!(row[kSrcValidCol] & 1)) continue;
    INCSHRINK_RETURN_NOT_OK(
        accountant_->ChargeParticipation(row[kSrcRidCol]));
    charged->insert(row[kSrcRidCol]);
  }
  return Status::OK();
}

Result<TransformProtocol::StepResult> TransformProtocol::StepFilter(
    uint64_t t, const OutsourcedTable& store1, SecureCache* cache) {
  return StepFilterImpl(t, store1, cache->seq(),
                        [this, cache](const SharedRows& block, uint32_t real) {
                          cache->AddToCounter(proto_, real);
                          cache->Append(block);
                        });
}

Result<TransformProtocol::StepResult> TransformProtocol::StepFilter(
    uint64_t t, const OutsourcedTable& store1, ShardedSecureCache* cache) {
  return StepFilterImpl(t, store1, cache->seq(),
                        [this, cache](const SharedRows& block, uint32_t real) {
                          cache->AppendTransformBlock(proto_, block, real);
                        });
}

Result<TransformProtocol::StepResult> TransformProtocol::StepFilterImpl(
    uint64_t t, const OutsourcedTable& store1, uint64_t* seq,
    const CommitFn& commit) {
  INCSHRINK_CHECK_GE(t, 1u);
  INCSHRINK_CHECK_EQ(store1.steps(), t);
  const CircuitStats before = proto_->Snapshot();
  const SharedRows& batch = store1.batch(t - 1);

  std::unordered_set<Word> charged;
  INCSHRINK_RETURN_NOT_OK(ChargeBatch(batch, &charged));

  const ObliviousPredicate pred = ObliviousPredicate::ColumnBetween(
      kSrcPayloadCol, config_.filter.lo, config_.filter.hi);
  // Per row: range predicate (2 comparisons) + AND with the valid bit +
  // view-row rewiring muxes.
  proto_->AccountAndGates(batch.size() *
                          (2 * kWordBits + 1 + kViewWidth * kWordBits));
  Rng* rng = proto_->internal_rng();
  SharedRows out(kViewWidth);
  uint32_t real_entries = 0;
  std::vector<Word> buf(batch.width());
  std::array<Word, kViewWidth> view{};
  for (size_t r = 0; r < batch.size(); ++r) {
    const std::span<const Word> row = batch.RecoverRowInto(r, buf);
    const bool keep = (row[kSrcValidCol] & 1) && pred.Matches(row);
    // oblivious-ok: ideal-functionality select — per-row predicate + rewiring
    // mux cost charged above the loop; one fresh-shared view row is appended
    // per input row whether it matches or not
    view[kViewIsViewCol] = keep ? 1 : 0;
    view[kViewSortKeyCol] = MakeCacheSortKey(keep, (*seq)++);
    // oblivious-ok: same site — payload source selection for the view row
    if (keep) {
      view[kViewKeyCol] = row[kSrcKeyCol];
      view[kViewDate1Col] = row[kSrcDateCol];
      view[kViewDate2Col] = row[kSrcDateCol];
      view[kViewRid1Col] = row[kSrcRidCol];
      view[kViewRid2Col] = row[kSrcPayloadCol];
      ++real_entries;
      INCSHRINK_RETURN_NOT_OK(
          accountant_->RecordContribution(row[kSrcRidCol], 1));
    } else {
      for (size_t c = kViewKeyCol; c < kViewWidth; ++c)
        view[c] = rng->Next32();
    }
    out.AppendSecretRow(view, rng);
  }

  const uint64_t appended = out.size();
  commit(out, real_entries);

  StepResult result;
  result.real_entries = real_entries;
  result.appended_rows = appended;
  result.simulated_seconds = proto_->SimulatedSecondsSince(before);
  return result;
}

Result<TransformProtocol::StepResult> TransformProtocol::Step(
    uint64_t t, const OutsourcedTable& store1, const OutsourcedTable& store2,
    SecureCache* cache) {
  if (config_.view_kind == ViewKind::kFilter) {
    return StepFilter(t, store1, cache);
  }
  return StepJoin(t, store1, store2, cache->seq(),
                  [this, cache](const SharedRows& block, uint32_t real) {
                    cache->AddToCounter(proto_, real);
                    cache->Append(block);
                  });
}

Result<TransformProtocol::StepResult> TransformProtocol::Step(
    uint64_t t, const OutsourcedTable& store1, const OutsourcedTable& store2,
    ShardedSecureCache* cache) {
  if (config_.view_kind == ViewKind::kFilter) {
    return StepFilter(t, store1, cache);
  }
  return StepJoin(t, store1, store2, cache->seq(),
                  [this, cache](const SharedRows& block, uint32_t real) {
                    cache->AppendTransformBlock(proto_, block, real);
                  });
}

Result<TransformProtocol::StepResult> TransformProtocol::StepJoin(
    uint64_t t, const OutsourcedTable& store1, const OutsourcedTable& store2,
    uint64_t* seq, const CommitFn& commit) {
  INCSHRINK_CHECK_GE(t, 1u);
  INCSHRINK_CHECK_EQ(store1.steps(), t);
  INCSHRINK_CHECK_EQ(store2.steps(), t);
  const CircuitStats before = proto_->Snapshot();

  const uint64_t wlen = std::min<uint64_t>(EligibleSteps(config_), t - 1);
  const uint64_t step_idx = t - 1;  // stores are 0-indexed by step

  const SharedRows& new1 = store1.batch(step_idx);
  const SharedRows& new2 = store2.batch(step_idx);
  SharedRows old1(kSrcWidth);
  SharedRows old2(kSrcWidth);
  if (wlen > 0) {
    old1 = store1.ConcatRange(step_idx - wlen, step_idx - 1);
    old2 = store2.ConcatRange(step_idx - wlen, step_idx - 1);
  }

  // Budget accounting: every record participating in this invocation is
  // charged omega once (new2 participates in both sub-joins but is charged
  // once — the sub-joins share the per-invocation contribution cap, so the
  // invocation as a whole is omega-stable per record). Public relations
  // carry no privacy budget and are never charged.
  std::unordered_set<Word> charged;
  INCSHRINK_RETURN_NOT_OK(ChargeBatch(new1, &charged));
  INCSHRINK_RETURN_NOT_OK(ChargeBatch(old1, &charged));
  if (!config_.t2_is_public) {
    INCSHRINK_RETURN_NOT_OK(ChargeBatch(new2, &charged));
    INCSHRINK_RETURN_NOT_OK(ChargeBatch(old2, &charged));
  }

  JoinSpec spec = config_.join;
  spec.omega = config_.omega;
  if (config_.t2_is_public) spec.cap_t2 = false;

  // Sub-join A: new1 x (new2 ++ old2); sub-join B: old1 x new2. Together
  // these produce every pair involving at least one new record exactly once.
  SharedRows t2_in(kSrcWidth);
  t2_in.AppendAll(new2);
  t2_in.AppendAll(old2);

  ContributionUsage usage;
  uint32_t real_entries = 0;
  SharedRows padded(kViewWidth);

  if (config_.op == TransformOperator::kSortMergeJoin) {
    JoinResult a = TruncatedSortMergeJoin(proto_, new1, t2_in, spec,
                                          seq, &usage, sort_exec_);
    real_entries += a.real_count;
    padded.AppendAll(a.rows);
    if (!old1.empty() && !new2.empty()) {
      JoinResult b = TruncatedSortMergeJoin(proto_, old1, new2, spec,
                                            seq, &usage, sort_exec_);
      real_entries += b.real_count;
      padded.AppendAll(b.rows);
    }
  } else {
    // Nested-loop variant (Algorithm 4): budgets ride in an extra column
    // initialized from the shared per-invocation usage map.
    auto with_budget = [&](const SharedRows& src,
                           bool capped) -> SharedRows {
      SharedRows out(kSrcWidth + 1);
      // The source row, then its remaining budget in the extra column.
      std::vector<Word> buf(src.width() + 1);
      const std::span<Word> src_cols(buf.data(), src.width());
      for (size_t r = 0; r < src.size(); ++r) {
        const std::span<const Word> row = src.RecoverRowInto(r, src_cols);
        const Word rid = row[kSrcRidCol];
        const uint32_t used =
            usage.count(rid) != 0 ? usage.at(rid) : 0;
        const Word remaining =
            capped ? (used >= spec.omega ? 0 : spec.omega - used)
                   : 0x7FFFFFFFu;
        buf.back() = remaining;
        out.AppendSecretRow(buf, proto_->internal_rng());
      }
      return out;
    };
    auto harvest_usage = [&](const SharedRows& table, bool capped) {
      if (!capped) return;
      // oblivious-ok-begin: ideal-functionality budget read-back — mirrors
      // the in-circuit budget columns the nested-loop join maintained into
      // the (secret-state) usage map; the join already charged the full
      // per-pair decrement circuit, and nothing here is released
      std::vector<Word> buf(table.width());
      for (size_t r = 0; r < table.size(); ++r) {
        const std::span<const Word> row = table.RecoverRowInto(r, buf);
        if (!(row[kSrcValidCol] & 1)) continue;
        const uint32_t remaining = row[kSrcWidth];
        const uint32_t initial =
            usage.count(row[kSrcRidCol]) != 0
                ? (spec.omega >= usage.at(row[kSrcRidCol])
                       ? spec.omega - usage.at(row[kSrcRidCol])
                       : 0)
                : spec.omega;
        usage[row[kSrcRidCol]] += initial - remaining;
      }
      // oblivious-ok-end
    };
    {
      SharedRows outer = with_budget(new1, spec.cap_t1);
      SharedRows inner = with_budget(t2_in, spec.cap_t2);
      JoinResult a = TruncatedNestedLoopJoin(proto_, &outer, &inner,
                                             kSrcWidth, kSrcWidth, spec,
                                             seq);
      real_entries += a.real_count;
      padded.AppendAll(a.rows);
      harvest_usage(outer, spec.cap_t1);
      harvest_usage(inner, spec.cap_t2);
    }
    if (!old1.empty() && !new2.empty()) {
      SharedRows outer = with_budget(old1, spec.cap_t1);
      SharedRows inner = with_budget(new2, spec.cap_t2);
      JoinResult b = TruncatedNestedLoopJoin(proto_, &outer, &inner,
                                             kSrcWidth, kSrcWidth, spec,
                                             seq);
      real_entries += b.real_count;
      padded.AppendAll(b.rows);
      harvest_usage(outer, spec.cap_t1);
      harvest_usage(inner, spec.cap_t2);
    }
  }

  // Oblivious compaction: sort the padded operator outputs (real entries
  // first) and keep the public upper bound on new view entries. This is the
  // "exhaustively padded secure cache" append of Alg. 1 line 7, with the
  // padding tightened to the stability bound.
  // The public bound on new view entries, computed from the (public) batch
  // sizes. Under the fixed-size upload policy this equals
  // PublicCacheAppendRows(config, t); under DP upload policies it is a
  // function of the owners' DP-released batch sizes.
  uint64_t bound;
  if (config_.t2_is_public ||
      config_.op == TransformOperator::kNestedLoopJoin) {
    bound = static_cast<uint64_t>(config_.omega) *
            (new1.size() + old1.size());
  } else {
    bound = static_cast<uint64_t>(config_.omega) *
            (new1.size() + new2.size());
  }
  INCSHRINK_CHECK_LE(real_entries, bound);
  SharedRows compacted(kViewWidth);
  if (!config_.compact_transform_output) {
    // EP baseline: cache the raw exhaustively padded operator outputs.
    compacted = std::move(padded);
  } else if (padded.size() > bound) {
    ObliviousSort(proto_, &padded, kViewSortKeyCol, /*ascending=*/false,
                  sort_exec_);
    // In place: the suffix is discarded anyway, so truncating and moving
    // avoids SplitPrefix's copy of `bound` rows every hot-loop step.
    padded.Truncate(bound);
    compacted = std::move(padded);
  } else {
    compacted = std::move(padded);
    // Pad up to the public bound so the cache-append size is a deterministic
    // function of public parameters (transcript indistinguishability).
    while (compacted.size() < bound) {
      AppendDummyViewRow(&compacted, proto_->internal_rng(), seq);
    }
  }

  // Record actual contributions against the ledger (consistency check for
  // the q-stability invariant). Only budget-carrying (charged) records are
  // ledgered — public-side rows appear in the usage map but hold no budget.
  for (const auto& [rid, rows] : usage) {
    if (rows == 0 || charged.count(rid) == 0) continue;
    INCSHRINK_RETURN_NOT_OK(accountant_->RecordContribution(rid, rows));
  }

  // Alg. 1 lines 4-7: update the shared counter, append to the cache.
  const uint64_t appended = compacted.size();
  commit(compacted, real_entries);

  StepResult result;
  result.real_entries = real_entries;
  result.appended_rows = appended;
  result.simulated_seconds = proto_->SimulatedSecondsSince(before);
  return result;
}

}  // namespace incshrink
