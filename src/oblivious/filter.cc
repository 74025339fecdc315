#include "src/oblivious/filter.h"

#include "src/common/logging.h"

namespace incshrink {

void ObliviousSelect(Protocol2PC* proto, SharedRows* rows, size_t flag_col,
                     const ObliviousPredicate& pred) {
  const size_t w = rows->width();
  INCSHRINK_CHECK_LT(flag_col, w);
  INCSHRINK_CHECK(pred.FitsWidth(w));
  const size_t n = rows->size();
  // Per row: predicate circuit + one AND with the existing flag bit.
  proto->AccountAndGates(n * (pred.and_gates_per_row + 1));
  const Word* s0 = rows->shares0().data();
  const Word* s1 = rows->shares1().data();
  for (size_t r = 0; r < n; ++r) {
    // Row r's flag is rewritten only after its own select bit is read.
    const Word keep = pred.FlaggedMatch(s0 + r * w, s1 + r * w, flag_col);
    proto->SetRowWord(rows, r, flag_col,
                      ShareWord(keep, proto->internal_rng()));
  }
}

WordShares ObliviousCountWhere(Protocol2PC* proto, const SharedRows& rows,
                               size_t flag_col,
                               const ObliviousPredicate& pred) {
  // Single-task submission of the batched COUNT primitive: one aggregate
  // accounting event, one fresh-share draw — bit-identical to the old
  // per-call path (same gate charge, same ShareWord mask sequence).
  const CountWhereTask task{&rows, flag_col, &pred};
  WordShares out;
  proto->CountWhereBatch(&task, 1, &out);
  return out;
}

}  // namespace incshrink
