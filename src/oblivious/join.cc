#include "src/oblivious/join.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/logging.h"
#include "src/oblivious/formats.h"
#include "src/oblivious/sort.h"

namespace incshrink {

namespace {

// Merged-table layout used inside the sort-merge join.
constexpr size_t kMergedSortCol = 0;   // key * 2 + table_id
constexpr size_t kMergedTableCol = 1;  // 0 = T1, 1 = T2
constexpr size_t kMergedKeyCol = 2;
constexpr size_t kMergedDateCol = 3;
constexpr size_t kMergedRidCol = 4;
constexpr size_t kMergedValidCol = 5;
constexpr size_t kMergedWidth = 6;

bool WindowOk(const JoinSpec& spec, Word date1, Word date2) {
  if (!spec.use_window) return true;
  if (date2 < date1) return false;
  const Word delta = date2 - date1;
  return delta >= spec.window_lo && delta <= spec.window_hi;
}

/// Appends one row in view format; real joins carry the pair's attributes,
/// dummies carry random payload. Advances the FIFO sequence counter.
void EmitViewRow(Protocol2PC* proto, SharedRows* out, bool is_view, Word key,
                 Word date1, Word date2, Word rid1, Word rid2,
                 uint64_t* seq) {
  Rng* rng = proto->internal_rng();
  std::array<Word, kViewWidth> row{};
  // oblivious-ok: ideal-functionality emit — every call appends exactly one
  // fresh-shared row of the same width; real/dummy split is invisible in the
  // shares and the per-slot mux cost is charged by the caller
  row[kViewIsViewCol] = is_view ? 1 : 0;
  row[kViewSortKeyCol] = MakeCacheSortKey(is_view, (*seq)++);
  // oblivious-ok: same site — payload source selection for the emitted row
  if (is_view) {
    row[kViewKeyCol] = key;
    row[kViewDate1Col] = date1;
    row[kViewDate2Col] = date2;
    row[kViewRid1Col] = rid1;
    row[kViewRid2Col] = rid2;
  } else {
    row[kViewKeyCol] = rng->Next32();
    row[kViewDate1Col] = rng->Next32();
    row[kViewDate2Col] = rng->Next32();
    row[kViewRid1Col] = rng->Next32();
    row[kViewRid2Col] = rng->Next32();
  }
  out->AppendSecretRow(row, rng);
}

}  // namespace

JoinResult TruncatedSortMergeJoin(Protocol2PC* proto, const SharedRows& t1,
                                  const SharedRows& t2, const JoinSpec& spec,
                                  uint64_t* seq, ContributionUsage* usage,
                                  const BatchExec& exec) {
  ContributionUsage local_usage;
  if (usage == nullptr) usage = &local_usage;
  INCSHRINK_CHECK_GE(t1.width(), kSrcWidth);
  INCSHRINK_CHECK_GE(t2.width(), kSrcWidth);
  Rng* rng = proto->internal_rng();

  // ---- Union + tag (Fig. 2 "Union"). Building the merged table is pure
  // wiring in a circuit; we charge the share-transfer bytes.
  SharedRows merged(kMergedWidth);
  merged.Reserve(t1.size() + t2.size());
  auto append_source = [&](const SharedRows& src, Word table_id) {
    std::vector<Word> buf(src.width());
    for (size_t r = 0; r < src.size(); ++r) {
      const std::span<const Word> row = src.RecoverRowInto(r, buf);
      std::array<Word, kMergedWidth> m{};
      // key*2 + table_id orders T1 records before T2 records on key ties.
      m[kMergedSortCol] = (row[kSrcKeyCol] << 1) | table_id;
      m[kMergedTableCol] = table_id;
      m[kMergedKeyCol] = row[kSrcKeyCol];
      m[kMergedDateCol] = row[kSrcDateCol];
      m[kMergedRidCol] = row[kSrcRidCol];
      m[kMergedValidCol] = row[kSrcValidCol] & 1;
      merged.AppendSecretRow(m, rng);
    }
  };
  append_source(t1, 0);
  append_source(t2, 1);
  proto->AccountBytes(merged.TotalBytes());

  // ---- Oblivious sort by composite key (Fig. 2 "Sort"). The record id
  // breaks remaining ties so the scan order — and with it the greedy
  // truncation — is a deterministic function of the data.
  ObliviousSortLex(proto, &merged, kMergedSortCol, kMergedRidCol,
                   /*ascending=*/true, exec);

  // ---- Linear scan (Fig. 2 "Linear scan"): after accessing each merged
  // tuple, output exactly `omega` slots. Charge the scan circuit: per merged
  // tuple a key-group comparison + validity/window checks, per output slot a
  // row-width mux.
  const size_t n = merged.size();
  proto->AccountAndGates(n * 5 * kWordBits);
  proto->AccountAndGates(n * spec.omega * kViewWidth * kWordBits);

  JoinResult result{SharedRows(kViewWidth), 0};
  // The scan emits exactly omega slots per merged tuple.
  result.rows.Reserve(static_cast<size_t>(spec.omega) * n);

  struct GroupEntry {
    Word date;
    Word rid;
  };
  std::vector<GroupEntry> group;  // T1 tuples of the current key
  Word group_key = 0;
  bool group_open = false;

  // oblivious-ok-begin: ideal-functionality linear scan (Fig. 2) — the
  // per-tuple group/validity/window circuit and the omega padded output
  // slots per merged tuple are charged up front (lines above); the scan
  // emits exactly omega rows per tuple regardless of matches, and the
  // usage map models the in-circuit per-record budget columns
  std::array<Word, kMergedWidth> buf{};
  for (size_t r = 0; r < n; ++r) {
    const std::span<const Word> row = merged.RecoverRowInto(r, buf);
    const Word key = row[kMergedKeyCol];
    const bool valid = row[kMergedValidCol] != 0;
    // Dummy rows never join and never affect key groups (their random keys
    // could otherwise split a real group on composite-key wraparound); they
    // still consume their omega padded output slots below.
    if (valid && (!group_open || key != group_key)) {
      group.clear();
      group_key = key;
      group_open = true;
    }
    uint32_t emitted = 0;
    if (row[kMergedTableCol] == 0) {
      // T1 record: joins are attributed to the matching T2 accesses later;
      // this access emits only padding.
      if (valid) group.push_back(GroupEntry{row[kMergedDateCol],
                                            row[kMergedRidCol]});
    } else if (valid) {
      // T2 record: join against the already-scanned T1 group, oldest first,
      // honouring both records' per-invocation caps.
      const Word rid2 = row[kMergedRidCol];
      for (GroupEntry& g : group) {
        if (spec.cap_t2 && (*usage)[rid2] >= spec.omega) break;
        if (spec.cap_t1 && (*usage)[g.rid] >= spec.omega) continue;
        if (!WindowOk(spec, g.date, row[kMergedDateCol])) continue;
        if (emitted >= spec.omega) break;  // padded slots per access
        EmitViewRow(proto, &result.rows, /*is_view=*/true, key, g.date,
                    row[kMergedDateCol], g.rid, rid2, seq);
        ++(*usage)[g.rid];
        ++(*usage)[rid2];
        ++emitted;
        ++result.real_count;
      }
    }
    for (uint32_t pad = emitted; pad < spec.omega; ++pad) {
      EmitViewRow(proto, &result.rows, /*is_view=*/false, 0, 0, 0, 0, 0, seq);
    }
  }
  // oblivious-ok-end

  INCSHRINK_CHECK_EQ(result.rows.size(), spec.omega * n);
  return result;
}

JoinResult TruncatedNestedLoopJoin(Protocol2PC* proto, SharedRows* t1,
                                   SharedRows* t2, size_t budget_col1,
                                   size_t budget_col2, const JoinSpec& spec,
                                   uint64_t* seq) {
  INCSHRINK_CHECK_LT(budget_col1, t1->width());
  INCSHRINK_CHECK_LT(budget_col2, t2->width());
  Rng* rng = proto->internal_rng();
  JoinResult result{SharedRows(kViewWidth), 0};

  const size_t n1 = t1->size();
  const size_t n2 = t2->size();
  // Per pair: budget checks + key equality + window + row mux + the muxed
  // budget decrement (Alg. 4 l.6-11). The decrement circuit runs for every
  // pair — a mux selects whether the decremented value is kept — so its cost
  // is charged unconditionally; charging it only on matching pairs would
  // make the simulated transcript data-dependent.
  proto->AccountAndGates(n1 * n2 * (7 + kViewWidth) * kWordBits);

  // Row scratch sized once; each pair re-reads its rows into it.
  std::vector<Word> outer_buf(t1->width());
  std::vector<Word> inner_buf(t2->width());
  for (size_t i = 0; i < n1; ++i) {
    const std::span<const Word> outer = t1->RecoverRowInto(i, outer_buf);
    Word outer_budget = outer[budget_col1];
    SharedRows block(kViewWidth);  // o_i in Algorithm 4
    uint64_t block_seq = 0;        // temporary in-block ordering
    for (size_t j = 0; j < n2; ++j) {
      const std::span<const Word> inner = t2->RecoverRowInto(j, inner_buf);
      const bool budgets_ok = outer_budget > 0 && inner[budget_col2] > 0;
      const bool match = budgets_ok && (outer[kSrcValidCol] & 1) &&
                         (inner[kSrcValidCol] & 1) &&
                         outer[kSrcKeyCol] == inner[kSrcKeyCol] &&
                         WindowOk(spec, outer[kSrcDateCol],
                                  inner[kSrcDateCol]);
      // oblivious-ok: ideal-functionality pair evaluation (Alg. 4) — the
      // full per-pair circuit incl. the muxed budget decrement is charged
      // unconditionally above; exactly one row is emitted per pair either way
      if (match) {
        EmitViewRow(proto, &block, true, outer[kSrcKeyCol],
                    outer[kSrcDateCol], inner[kSrcDateCol],
                    outer[kSrcRidCol], inner[kSrcRidCol], &block_seq);
        // consume_budget(tup1, tup2, 1): decrement and re-share in place
        // (circuit cost charged per pair above, match or not).
        --outer_budget;
        const WordShares fresh = ShareWord(inner[budget_col2] - 1, rng);
        proto->SetRowWord(t2, j, budget_col2, fresh);
      } else {
        EmitViewRow(proto, &block, false, 0, 0, 0, 0, 0, &block_seq);
      }
    }
    const WordShares fresh_outer = ShareWord(outer_budget, rng);
    proto->SetRowWord(t1, i, budget_col1, fresh_outer);

    // Alg. 4 lines 12-13: oblivious sort of o_i (real rows first), keep the
    // first omega entries.
    ObliviousSort(proto, &block, kViewSortKeyCol, /*ascending=*/false);
    block.Truncate(spec.omega);
    while (block.size() < spec.omega) {
      EmitViewRow(proto, &block, false, 0, 0, 0, 0, 0, &block_seq);
    }
    // Rewrite sort keys with the global FIFO sequence before caching.
    for (size_t r = 0; r < block.size(); ++r) {
      const Word is_view = block.RecoverAt(r, kViewIsViewCol) & 1;
      result.real_count += is_view;
      const Word sk = MakeCacheSortKey(is_view != 0, (*seq)++);
      const WordShares fresh = ShareWord(sk, rng);
      proto->SetRowWord(&block, r, kViewSortKeyCol, fresh);
    }
    result.rows.AppendAll(block);
  }

  INCSHRINK_CHECK_EQ(result.rows.size(), spec.omega * n1);
  return result;
}

uint32_t ObliviousJoinCountFull(Protocol2PC* proto, const SharedRows& t1,
                                const SharedRows& t2, const JoinSpec& spec,
                                const BatchExec& exec) {
  Rng* rng = proto->internal_rng();
  // Union + tag, as in the truncated join.
  SharedRows merged(kMergedWidth);
  merged.Reserve(t1.size() + t2.size());
  auto append_source = [&](const SharedRows& src, Word table_id) {
    std::vector<Word> buf(src.width());
    for (size_t r = 0; r < src.size(); ++r) {
      const std::span<const Word> row = src.RecoverRowInto(r, buf);
      std::array<Word, kMergedWidth> m{};
      m[kMergedSortCol] = (row[kSrcKeyCol] << 1) | table_id;
      m[kMergedTableCol] = table_id;
      m[kMergedKeyCol] = row[kSrcKeyCol];
      m[kMergedDateCol] = row[kSrcDateCol];
      m[kMergedRidCol] = row[kSrcRidCol];
      m[kMergedValidCol] = row[kSrcValidCol] & 1;
      merged.AppendSecretRow(m, rng);
    }
  };
  append_source(t1, 0);
  append_source(t2, 1);
  proto->AccountBytes(merged.TotalBytes());

  ObliviousSortLex(proto, &merged, kMergedSortCol, kMergedRidCol,
                   /*ascending=*/true, exec);

  // Oblivious pair counting over the sorted union: an O(n log n) prefix
  // aggregation circuit (per level, one adder + mux per element).
  const size_t n = merged.size();
  uint64_t levels = 1;
  while ((1ull << levels) < n) ++levels;
  proto->AccountAndGates(n * levels * 3 * kWordBits);

  uint32_t count = 0;
  std::vector<std::pair<Word, Word>> group;  // (date, unused) of T1 tuples
  Word group_key = 0;
  bool group_open = false;
  // oblivious-ok-begin: ideal-functionality pair count — the O(n log n)
  // prefix-aggregation circuit is charged up front (lines above); the scan
  // only computes the value that circuit would output
  std::array<Word, kMergedWidth> buf{};
  for (size_t r = 0; r < n; ++r) {
    const std::span<const Word> row = merged.RecoverRowInto(r, buf);
    if (!(row[kMergedValidCol] & 1)) continue;
    const Word key = row[kMergedKeyCol];
    if (!group_open || key != group_key) {
      group.clear();
      group_key = key;
      group_open = true;
    }
    if (row[kMergedTableCol] == 0) {
      group.push_back({row[kMergedDateCol], 0});
    } else {
      for (const auto& g : group) {
        if (WindowOk(spec, g.first, row[kMergedDateCol])) ++count;
      }
    }
  }
  // oblivious-ok-end
  return count;
}

uint32_t ReferenceTruncatedJoinCount(const std::vector<std::vector<Word>>& t1,
                                     const std::vector<std::vector<Word>>& t2,
                                     const JoinSpec& spec,
                                     uint32_t* untruncated_count) {
  // Mirrors the sort-merge scan exactly: merge, sort by (key, table-id) with
  // a stable sort (T1 before T2 on ties), then greedily match in scan order
  // under the per-record caps.
  struct Entry {
    Word key;
    Word table;
    Word date;
    Word rid;
  };
  std::vector<Entry> merged;
  for (const auto& a : t1) {
    if (a[kSrcValidCol] & 1)
      merged.push_back({a[kSrcKeyCol], 0, a[kSrcDateCol], a[kSrcRidCol]});
  }
  for (const auto& b : t2) {
    if (b[kSrcValidCol] & 1)
      merged.push_back({b[kSrcKeyCol], 1, b[kSrcDateCol], b[kSrcRidCol]});
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Entry& x, const Entry& y) {
                     if (x.key != y.key) return x.key < y.key;
                     if (x.table != y.table) return x.table < y.table;
                     return x.rid < y.rid;
                   });

  uint32_t truncated = 0;
  uint32_t full = 0;
  ContributionUsage usage;
  struct GroupEntry {
    Word date;
    Word rid;
  };
  std::vector<GroupEntry> group;
  Word group_key = 0;
  bool group_open = false;
  for (const Entry& e : merged) {
    if (!group_open || e.key != group_key) {
      group.clear();
      group_key = e.key;
      group_open = true;
    }
    if (e.table == 0) {
      group.push_back(GroupEntry{e.date, e.rid});
      continue;
    }
    uint32_t emitted = 0;
    for (GroupEntry& g : group) {
      if (WindowOk(spec, g.date, e.date)) ++full;
      if (spec.cap_t2 && usage[e.rid] >= spec.omega) continue;
      if (spec.cap_t1 && usage[g.rid] >= spec.omega) continue;
      if (!WindowOk(spec, g.date, e.date)) continue;
      if (emitted >= spec.omega) continue;
      ++usage[g.rid];
      ++usage[e.rid];
      ++emitted;
      ++truncated;
    }
  }
  if (untruncated_count != nullptr) *untruncated_count = full;
  return truncated;
}

}  // namespace incshrink
