#include "src/relational/query.h"

#include <algorithm>
#include <limits>

#include "src/storage/checkpoint.h"

namespace incshrink {

constexpr Word kMaxWord = std::numeric_limits<Word>::max();

void WindowJoinCounter::Relation::AppendStep(
    const std::vector<LogicalRecord>& recs) {
  if (recs.empty()) return;
  std::vector<Arrival> sorted;
  sorted.reserve(recs.size());
  for (const LogicalRecord& rec : recs) sorted.push_back({rec.key, rec.date});
  std::sort(sorted.begin(), sorted.end());
  Append(std::move(sorted));
}

void WindowJoinCounter::Relation::Append(std::vector<Arrival> sorted) {
  Run run{std::move(sorted), kMaxWord, 0, 0};
  for (const Arrival& a : run.arrivals) {
    run.min_date = std::min(run.min_date, a.date);
    run.max_date = std::max(run.max_date, a.date);
  }
  run.prefix_max = runs.empty()
                       ? run.max_date
                       : std::max(run.max_date, runs.back().prefix_max);
  runs.push_back(std::move(run));
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

void WindowJoinCounter::SaveTo(CheckpointWriter* writer) const {
  writer->U64(count_);
  for (const Relation* rel : {&t1_, &t2_}) {
    writer->U64(rel->runs.size());
    for (const Run& run : rel->runs) {
      writer->U64(run.arrivals.size());
      for (const Arrival& a : run.arrivals) {
        writer->U32(a.key);
        writer->U32(a.date);
      }
    }
  }
}

Status WindowJoinCounter::RestoreFrom(CheckpointReader* reader) {
  // Decode into a scratch counter; commit only after everything validated,
  // so a failed restore leaves this counter untouched.
  WindowJoinCounter restored(query_);
  const uint64_t count = reader->U64();
  for (Relation* rel : {&restored.t1_, &restored.t2_}) {
    const uint64_t num_runs = reader->U64();
    for (uint64_t r = 0; r < num_runs && reader->ok(); ++r) {
      const uint64_t size = reader->U64();
      if (reader->ok() && size == 0) {
        return Status::InvalidArgument("snapshot ground-truth run is empty");
      }
      std::vector<Arrival> arrivals;
      for (uint64_t i = 0; i < size && reader->ok(); ++i) {
        const Word key = reader->U32();
        const Word date = reader->U32();
        arrivals.push_back({key, date});
      }
      if (!reader->ok()) break;
      if (!std::is_sorted(arrivals.begin(), arrivals.end())) {
        return Status::InvalidArgument(
            "snapshot ground-truth run is not sorted");
      }
      rel->Append(std::move(arrivals));
    }
    INCSHRINK_RETURN_NOT_OK(reader->ExpectOk("ground-truth runs"));
  }
  if (restored.CountPairsWithT2In(0, kMaxWord, 0, kMaxWord) != count) {
    return Status::InvalidArgument(
        "snapshot ground-truth count disagrees with its runs");
  }
  restored.count_ = count;
  *this = std::move(restored);
  return Status::OK();
}

}  // namespace incshrink
