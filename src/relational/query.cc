#include "src/relational/query.h"

#include <algorithm>
#include <limits>

namespace incshrink {

constexpr Word kMaxWord = std::numeric_limits<Word>::max();

void WindowJoinCounter::Relation::AppendStep(
    const std::vector<LogicalRecord>& recs) {
  if (recs.empty()) return;
  std::vector<Arrival>& sorted = runs.emplace_back().arrivals;
  sorted.reserve(recs.size());
  for (const LogicalRecord& rec : recs) sorted.push_back({rec.key, rec.date});
  std::sort(sorted.begin(), sorted.end());
  Bound(runs.size() - 1);
}

void WindowJoinCounter::Relation::Bound(size_t i) {
  Run& run = runs[i];
  run.min_date = kMaxWord;
  run.max_date = 0;
  for (const Arrival& a : run.arrivals) {
    run.min_date = std::min(run.min_date, a.date);
    run.max_date = std::max(run.max_date, a.date);
  }
  run.prefix_max =
      i == 0 ? run.max_date : std::max(run.max_date, runs[i - 1].prefix_max);
}

uint64_t WindowJoinCounter::Relation::CountMatches(Word key, int64_t lo,
                                                   int64_t hi) const {
  if (lo < 0) lo = 0;
  if (hi > kMaxWord) hi = kMaxWord;
  if (lo > hi) return 0;
  const Arrival from_key{key, static_cast<Word>(lo)};
  const Arrival to_key{key, static_cast<Word>(hi)};
  // prefix_max is non-decreasing, so the runs that end before `lo` are a
  // prefix of the list.
  const auto first = std::partition_point(
      runs.begin(), runs.end(),
      [&](const Run& run) { return run.prefix_max < from_key.date; });
  uint64_t n = 0;
  for (auto it = first; it != runs.end(); ++it) {
    if (it->max_date < from_key.date || it->min_date > to_key.date) continue;
    const auto from =
        std::lower_bound(it->arrivals.begin(), it->arrivals.end(), from_key);
    n += static_cast<uint64_t>(
        std::upper_bound(from, it->arrivals.end(), to_key) - from);
  }
  return n;
}

uint64_t WindowJoinCounter::T1PartnersOf(Word key, Word date2) const {
  if (!query_.use_window) return t1_.CountMatches(key, 0, kMaxWord);
  return t1_.CountMatches(key, int64_t{date2} - query_.window_hi,
                          int64_t{date2} - query_.window_lo);
}

uint64_t WindowJoinCounter::T2PartnersOf(Word key, Word date1) const {
  if (!query_.use_window) return t2_.CountMatches(key, 0, kMaxWord);
  return t2_.CountMatches(key, int64_t{date1} + query_.window_lo,
                          int64_t{date1} + query_.window_hi);
}

uint64_t WindowJoinCounter::Step(const std::vector<LogicalRecord>& new_t1,
                                 const std::vector<LogicalRecord>& new_t2) {
  // New pairs are exactly: new_t2 x (old T1) plus new_t1 x (old T2 + new_t2);
  // appending new_t2's run first makes the two sums disjoint and complete.
  t2_.AppendStep(new_t2);
  for (const LogicalRecord& b : new_t2) count_ += T1PartnersOf(b.key, b.date);
  for (const LogicalRecord& a : new_t1) count_ += T2PartnersOf(a.key, a.date);
  t1_.AppendStep(new_t1);
  return count_;
}

uint64_t WindowJoinCounter::CountPairsWithT2In(Word key_lo, Word key_hi,
                                               Word date_lo,
                                               Word date_hi) const {
  uint64_t n = 0;
  for (const Run& run : t2_.runs) {
    if (run.max_date < date_lo || run.min_date > date_hi) continue;
    for (auto b = std::lower_bound(run.arrivals.begin(), run.arrivals.end(),
                                   Arrival{key_lo, 0});
         b != run.arrivals.end() && b->key <= key_hi; ++b) {
      if (b->date >= date_lo && b->date <= date_hi) {
        n += T1PartnersOf(b->key, b->date);
      }
    }
  }
  return n;
}

template <class A>
void Visit(A& a, FieldRef<A, WindowJoinCounter> counter) {
  a.U64(counter.count_);
  for (auto* rel : {&counter.t1_, &counter.t2_}) {
    VisitList(a, rel->runs, [&](auto& run) {
      VisitList(
          a, run.arrivals,
          [&](auto& arrival) {
            a.U32(arrival.key);
            a.U32(arrival.date);
          },
          [&](uint64_t size) {
            a.Check(size != 0, "snapshot ground-truth run is empty");
          });
      if constexpr (A::kRestoring) {
        a.Check(std::is_sorted(run.arrivals.begin(), run.arrivals.end()),
                "snapshot ground-truth run is not sorted");
      }
    });
    if constexpr (A::kRestoring) {
      for (size_t i = 0; i < rel->runs.size(); ++i) rel->Bound(i);
    }
    a.Expect("ground-truth runs");
  }
  if constexpr (A::kRestoring) {
    if (a.ok()) {
      a.Check(counter.CountPairsWithT2In(0, kMaxWord, 0, kMaxWord) ==
                  counter.count_,
              "snapshot ground-truth count disagrees with its runs");
    }
  }
}

template void Visit(CheckpointWriter&, const WindowJoinCounter&);
template void Visit(CheckpointReader&, WindowJoinCounter&);

}  // namespace incshrink
