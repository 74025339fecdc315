#pragma once

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/secret/shared_rows.h"
#include "src/storage/checkpoint.h"

namespace incshrink {

/// \brief The outsourced data DS for one relation: the secret-shared,
/// dummy-padded batches uploaded by the owner, organized by upload step.
///
/// The per-step batch sizes are public (the owner uploads a fixed-size block
/// at predetermined intervals — paper Section 2.3), so exposing batches by
/// step index leaks nothing beyond the public update policy.
///
/// Retention: a truncated Transform reads a record for at most
/// EligibleSteps invocations, so the engine evicts every batch below a
/// public floor (TransformProtocol::RetainFrom) after each step. Only the
/// steps [first_retained(), steps()) are held; `steps()` and `total_rows()`
/// stay lifetime counters.
class OutsourcedTable {
 public:
  explicit OutsourcedTable(size_t row_width) : width_(row_width) {}

  size_t width() const { return width_; }

  /// Number of upload steps recorded so far (evicted ones included).
  uint64_t steps() const { return first_retained_ + batches_.size(); }

  /// Total shared rows ever appended (real + padding, evicted included).
  uint64_t total_rows() const { return total_rows_; }

  /// First step still held; every step below it has been evicted.
  uint64_t first_retained() const { return first_retained_; }

  /// Appends the batch uploaded at the next step. Returns its step index.
  uint64_t AppendBatch(SharedRows batch);

  /// The batch uploaded at `step` (0-based). CHECK-fails on an evicted or
  /// not-yet-uploaded step.
  const SharedRows& batch(uint64_t step) const;

  /// Concatenates the batches of steps [from, to] (inclusive, clamped) —
  /// the sliding-window input to Transform. Returns an empty table when the
  /// range is empty; CHECK-fails when a non-empty range reaches below
  /// first_retained().
  SharedRows ConcatRange(uint64_t from, uint64_t to) const;

  /// Concatenates every batch (the full DS, used by the NM baseline, whose
  /// floor is 0). CHECK-fails once anything was evicted.
  SharedRows ConcatAll() const;

  /// Drops every batch below `step` (a no-op when `step` is at or below
  /// first_retained()). `step` may not exceed steps().
  void EvictBefore(uint64_t step);

  /// Checkpoint field order (src/storage/checkpoint.h), as section `tag`: the
  /// first retained step, the lifetime row total, then the count-prefixed
  /// held batches. `steps` and `floor` are the upload count and retention
  /// floor the restored clock implies: restoring rejects any other first
  /// retained step or batch count before a batch is read, any batch whose
  /// width is not this table's, and a row total below the held rows.
  /// Restore into a scratch table.
  template <class A>
  friend void Visit(A& a, FieldRef<A, OutsourcedTable> table, uint32_t tag,
                    uint64_t steps, uint64_t floor);

 private:
  size_t width_;
  /// Steps [first_retained_, steps()). A vector, not a deque: eviction
  /// shifts at most EligibleSteps + 1 held batches per step, and an empty
  /// vector costs the engine constructor no allocation.
  std::vector<SharedRows> batches_;
  uint64_t first_retained_ = 0;
  uint64_t total_rows_ = 0;
};

}  // namespace incshrink
