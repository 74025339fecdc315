#include "src/core/analyst.h"

#include "src/oblivious/formats.h"

namespace incshrink {

ObliviousPredicate RewriteToViewPredicate(const AnalystQuery& query) {
  switch (query.kind) {
    case AnalystQuery::Kind::kCountAll:
      return ObliviousPredicate::True();
    case AnalystQuery::Kind::kCountDateRange:
      return ObliviousPredicate::ColumnBetween(kViewDate2Col, query.lo,
                                               query.hi);
    case AnalystQuery::Kind::kCountKeyEquals:
      return ObliviousPredicate::ColumnEquals(kViewKeyCol, query.key);
  }
  return ObliviousPredicate::True();
}

uint64_t AdHocJoinTruth(const WindowJoinCounter& truth,
                        const AnalystQuery& query) {
  constexpr Word kAny = 0xFFFFFFFFu;
  switch (query.kind) {
    case AnalystQuery::Kind::kCountAll:
      return truth.count();
    case AnalystQuery::Kind::kCountDateRange:
      return truth.CountPairsWithT2In(0, kAny, query.lo, query.hi);
    case AnalystQuery::Kind::kCountKeyEquals:
      return truth.CountPairsWithT2In(query.key, query.key, 0, kAny);
  }
  return 0;
}

}  // namespace incshrink
