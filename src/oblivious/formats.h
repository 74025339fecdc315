#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/secret/share.h"
#include "src/secret/shared_rows.h"

namespace incshrink {

/// Column conventions for secret-shared row blocks.
///
/// Two row formats flow through the system:
///
/// 1. **Source rows** — the outsourced encoding of one logical record
///    (a row of Sales/Returns/Allegation/Award). Uploaded by owners in
///    fixed-size, dummy-padded batches.
/// 2. **View rows** — entries of the secure cache and the materialized view,
///    produced by the truncated transformation (join/filter output).

// --- Source row columns -----------------------------------------------------
inline constexpr size_t kSrcValidCol = 0;    ///< 1 = real record, 0 = padding.
inline constexpr size_t kSrcKeyCol = 1;      ///< Join key.
inline constexpr size_t kSrcDateCol = 2;     ///< Event date (days).
inline constexpr size_t kSrcRidCol = 3;      ///< Unique record id.
inline constexpr size_t kSrcPayloadCol = 4;  ///< Opaque payload.
inline constexpr size_t kSrcWidth = 5;

// --- View/cache row columns --------------------------------------------------
inline constexpr size_t kViewIsViewCol = 0;   ///< 1 = real view entry.
inline constexpr size_t kViewSortKeyCol = 1;  ///< Cache ordering key.
inline constexpr size_t kViewKeyCol = 2;      ///< Join key of the pair.
inline constexpr size_t kViewDate1Col = 3;    ///< T1-side event date.
inline constexpr size_t kViewDate2Col = 4;    ///< T2-side event date.
inline constexpr size_t kViewRid1Col = 5;     ///< T1-side record id.
inline constexpr size_t kViewRid2Col = 6;     ///< T2-side record id.
inline constexpr size_t kViewWidth = 7;

/// Builds the cache ordering key for a view/dummy row. Sorting *descending*
/// by this key realizes the paper's Figure-3 cache read: all real tuples
/// move ahead of all dummies, and among real tuples older entries (smaller
/// insertion sequence) come first, so deferred data is synchronized FIFO.
///
/// The insertion sequence is 64-bit so the counter itself never wraps; a
/// dummy row's relative order is irrelevant, so dummies take the single
/// reserved key 0 and real rows map onto the full remaining 32-bit range
/// [1, 2^32 - 1], strictly decreasing in `seq`. Real rows therefore always
/// precede dummies, and FIFO among real rows is exact as long as fewer than
/// 2^32 - 1 rows coexist in (or are appended across the lifetime of) one
/// cache between full drains — the key cycles after 2^32 - 1 insertions.
/// (The previous uint32_t sequence both wrapped at 2^31 via its mask and
/// aliased outright once the counter overflowed at 2^32.)
inline Word MakeCacheSortKey(bool is_view, uint64_t seq) {
  if (!is_view) return 0;
  return 0xFFFFFFFFu - static_cast<Word>(seq % 0xFFFFFFFFull);
}

/// Appends a dummy (isView = 0) view-format row with random payload; used to
/// pad transform outputs up to their public size bound.
inline void AppendDummyViewRow(SharedRows* rows, Rng* rng, uint64_t* seq) {
  std::array<Word, kViewWidth> row{};
  row[kViewIsViewCol] = 0;
  row[kViewSortKeyCol] = MakeCacheSortKey(false, (*seq)++);
  for (size_t c = kViewKeyCol; c < kViewWidth; ++c) row[c] = rng->Next32();
  rows->AppendSecretRow(row, rng);
}

}  // namespace incshrink
