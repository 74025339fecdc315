#pragma once

// Brute-force ground truth for the windowed join, for tests only: every
// (T1, T2) record pair is checked with WindowJoinQuery::Matches, so the
// oracle shares no index, order or date arithmetic with WindowJoinCounter.

#include <cstdint>
#include <vector>

#include "src/core/analyst.h"
#include "src/relational/query.h"

namespace incshrink {

/// One join pair: the T1 record and the T2 record it matches.
struct OraclePair {
  LogicalRecord t1;
  LogicalRecord t2;
};

/// Every matching pair of t1 x t2, in nested-loop order.
inline std::vector<OraclePair> OraclePairs(
    const WindowJoinQuery& query, const std::vector<LogicalRecord>& t1,
    const std::vector<LogicalRecord>& t2) {
  std::vector<OraclePair> pairs;
  for (const LogicalRecord& a : t1) {
    for (const LogicalRecord& b : t2) {
      if (query.Matches(a, b)) pairs.push_back({a, b});
    }
  }
  return pairs;
}

/// q(D): the pairs that pass an analyst query's filter on the join relation.
inline uint64_t OracleAdHocCount(const std::vector<OraclePair>& pairs,
                                 const AnalystQuery& query) {
  uint64_t n = 0;
  for (const OraclePair& pair : pairs) {
    switch (query.kind) {
      case AnalystQuery::Kind::kCountAll:
        ++n;
        break;
      case AnalystQuery::Kind::kCountDateRange:
        if (pair.t2.date >= query.lo && pair.t2.date <= query.hi) ++n;
        break;
      case AnalystQuery::Kind::kCountKeyEquals:
        if (pair.t2.key == query.key) ++n;
        break;
    }
  }
  return n;
}

/// Exact count of t1 x t2 join pairs from scratch.
inline uint64_t CountFull(const WindowJoinQuery& query,
                          const std::vector<LogicalRecord>& t1,
                          const std::vector<LogicalRecord>& t2) {
  return OraclePairs(query, t1, t2).size();
}

}  // namespace incshrink
