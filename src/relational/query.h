#pragma once

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/relational/growing_table.h"
#include "src/storage/checkpoint.h"

namespace incshrink {

/// \brief Logical windowed-join count query q_t(D_t).
///
/// Counts pairs (a in T1, b in T2) with a.key == b.key and
/// b.date - a.date in [window_lo, window_hi] over the snapshots at time t.
/// Both paper queries have this shape:
///   Q1: SELECT COUNT(*) FROM Sales s JOIN Returns r ON s.PID = r.PID
///       WHERE r.ReturnDate - s.SaleDate <= 10
///   Q2: SELECT COUNT(*) FROM Allegation a JOIN Award w ON officerID
///       WHERE w.Time - a.CaseEnd <= 10
struct WindowJoinQuery {
  uint32_t window_lo = 0;
  uint32_t window_hi = 10;
  bool use_window = true;

  bool Matches(const LogicalRecord& a, const LogicalRecord& b) const {
    if (a.key != b.key) return false;
    if (!use_window) return true;
    if (b.date < a.date) return false;
    const Word delta = b.date - a.date;
    return delta >= window_lo && delta <= window_hi;
  }
};

/// \brief Incremental ground-truth evaluator for a WindowJoinQuery over two
/// growing tables.
///
/// Each relation is an append-only list of per-step runs. A run holds one
/// step's arrivals as {key, date} pairs (8 bytes each) sorted by (key, date),
/// with its min and max date and `prefix_max`, the highest max date of it
/// and every earlier run; an empty step adds no run. A partner lookup skips,
/// by one binary search on `prefix_max`, every run that ends before the
/// partner date range starts, skips the later runs whose [min, max] misses
/// the range, and counts each remaining run with two binary searches. Where
/// dates grow with the step clock about a window's worth of runs survive the
/// skip; where they do not, the count is still exact, only slower.
class WindowJoinCounter {
 public:
  explicit WindowJoinCounter(WindowJoinQuery query) : query_(query) {}

  const WindowJoinQuery& query() const { return query_; }

  /// Ingests the records inserted at one step (both sides) and returns the
  /// updated total count.
  uint64_t Step(const std::vector<LogicalRecord>& new_t1,
                const std::vector<LogicalRecord>& new_t2);

  uint64_t count() const { return count_; }

  /// Join pairs whose T2 record has key in [key_lo, key_hi] and date in
  /// [date_lo, date_hi]: exact ground truth for the rewritten ad-hoc
  /// queries. An on-demand scan of T2, for evaluation only.
  uint64_t CountPairsWithT2In(Word key_lo, Word key_hi, Word date_lo,
                              Word date_hi) const;

  /// Checkpoint field order (src/storage/checkpoint.h): the count, then per
  /// relation the count-prefixed runs, each its count-prefixed {key, date}
  /// pairs in stored order. Run bounds are derived again on restore, which
  /// rejects an empty or unsorted run and a count other than a full recount
  /// of the restored runs. Restore into a scratch counter.
  template <class A>
  friend void Visit(A& a, FieldRef<A, WindowJoinCounter> counter);

 private:
  struct Arrival {
    Word key;
    Word date;
    bool operator<(const Arrival& o) const {
      return key != o.key ? key < o.key : date < o.date;
    }
  };
  struct Run {
    std::vector<Arrival> arrivals;  ///< sorted by (key, date), never empty
    Word min_date = 0;
    Word max_date = 0;
    Word prefix_max = 0;  ///< highest max_date of this and every earlier run
  };
  /// One relation's runs, in step order.
  struct Relation {
    std::vector<Run> runs;

    /// Sorts one step's records into a run (none if empty).
    void AppendStep(const std::vector<LogicalRecord>& recs);
    /// Derives run `i`'s date bounds from its arrivals and its prefix max
    /// from run i - 1's.
    void Bound(size_t i);
    /// Arrivals with `key` and a date in [lo, hi], clipped to the date
    /// range, across every run.
    uint64_t CountMatches(Word key, int64_t lo, int64_t hi) const;
  };

  /// Partners of a T2 record among T1 (dates [date2 - hi, date2 - lo]) and
  /// of a T1 record among T2 (dates [date1 + lo, date1 + hi]).
  uint64_t T1PartnersOf(Word key, Word date2) const;
  uint64_t T2PartnersOf(Word key, Word date1) const;

  WindowJoinQuery query_;
  Relation t1_;
  Relation t2_;
  uint64_t count_ = 0;
};

}  // namespace incshrink
