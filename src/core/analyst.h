#pragma once

#include <cstdint>

#include "src/oblivious/filter.h"
#include "src/relational/query.h"
#include "src/secret/share.h"

namespace incshrink {

/// \brief Analyst-facing logical queries over the growing join relation
/// (paper KI-1/KI-3: registered queries are *rewritten* into queries over
/// the materialized view and answered from the view object alone).
///
/// Beyond the standing COUNT(*) the evaluation uses, IncShrink supports a
/// rich class of selections over the view's columns — here: restrictions on
/// the T2-side event date (e.g. "returns recorded in the last 30 days") and
/// on the join key.
struct AnalystQuery {
  enum class Kind : uint8_t {
    kCountAll,        ///< COUNT(*) over the join relation
    kCountDateRange,  ///< ... WHERE lo <= T2.date <= hi
    kCountKeyEquals,  ///< ... WHERE key == `key`
  };
  Kind kind = Kind::kCountAll;
  Word lo = 0;
  Word hi = 0xFFFFFFFFu;
  Word key = 0;

  static AnalystQuery CountAll() { return AnalystQuery{}; }
  static AnalystQuery CountDateRange(Word lo, Word hi) {
    return AnalystQuery{Kind::kCountDateRange, lo, hi, 0};
  }
  static AnalystQuery CountKeyEquals(Word key) {
    return AnalystQuery{Kind::kCountKeyEquals, 0, 0, key};
  }
};

/// Rewrites the logical query into a predicate over view-format rows: the
/// server-side half of view-based query answering. The returned predicate
/// is evaluated obliviously (`ObliviousCountWhere`), so the server learns
/// nothing about which view rows matched.
ObliviousPredicate RewriteToViewPredicate(const AnalystQuery& query);

/// The exact logical answer to `query` over the join pairs `truth` has
/// counted: the evaluation-only ground truth of an ad-hoc query.
uint64_t AdHocJoinTruth(const WindowJoinCounter& truth,
                        const AnalystQuery& query);

}  // namespace incshrink
