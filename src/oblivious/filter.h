#pragma once

#include "src/mpc/protocol.h"
#include "src/secret/shared_rows.h"

namespace incshrink {

// Both operators take an ObliviousPredicate (src/mpc/predicate.h): a closed
// conjunction of column-range terms with a per-term circuit cost.

/// \brief Oblivious selection (paper Appendix A.1.1).
///
/// Returns all input rows with `flag_col` rewritten to
/// `old_flag AND predicate(row)`; rows failing the predicate become dummy
/// tuples. The output size equals the input size, so selection leaks nothing
/// beyond the public cardinality. Every flag word is re-shared, one fresh
/// sharing per row in row order; each row is charged the predicate circuit
/// plus one AND with its flag, and only the flag and term columns are
/// decoded.
void ObliviousSelect(Protocol2PC* proto, SharedRows* rows, size_t flag_col,
                     const ObliviousPredicate& pred);

/// Obliviously counts rows whose `flag_col` is 1 AND that satisfy `pred`,
/// without revealing which rows matched. This is the view-based query
/// operator used to answer COUNT(*) requests over the materialized view.
WordShares ObliviousCountWhere(Protocol2PC* proto, const SharedRows& rows,
                               size_t flag_col,
                               const ObliviousPredicate& pred);

}  // namespace incshrink
