#include <gtest/gtest.h>

#include "src/mpc/party.h"
#include "src/mpc/protocol.h"
#include "src/oblivious/cache_ops.h"
#include "src/oblivious/formats.h"
#include "src/common/rng.h"
#include "src/storage/materialized_view.h"
#include "src/storage/outsourced_store.h"
#include "src/storage/secure_cache.h"
#include "src/storage/serialization.h"

namespace incshrink {
namespace {

SharedRows MakeBatch(Rng* rng, size_t width, const std::vector<Word>& firsts) {
  SharedRows batch(width);
  for (Word f : firsts) {
    std::vector<Word> row(width, 0);
    row[0] = f;
    batch.AppendSecretRow(row, rng);
  }
  return batch;
}

TEST(OutsourcedTableTest, BatchesByStep) {
  Rng rng(1);
  OutsourcedTable t(3);
  EXPECT_EQ(t.AppendBatch(MakeBatch(&rng, 3, {1, 2})), 0u);
  EXPECT_EQ(t.AppendBatch(MakeBatch(&rng, 3, {3})), 1u);
  EXPECT_EQ(t.AppendBatch(MakeBatch(&rng, 3, {4, 5, 6})), 2u);
  EXPECT_EQ(t.steps(), 3u);
  EXPECT_EQ(t.total_rows(), 6u);
  EXPECT_EQ(t.batch(1).size(), 1u);
  EXPECT_EQ(t.batch(1).RecoverAt(0, 0), 3u);
}

TEST(OutsourcedTableTest, ConcatRange) {
  Rng rng(2);
  OutsourcedTable t(1);
  for (Word s = 0; s < 5; ++s) t.AppendBatch(MakeBatch(&rng, 1, {s * 10}));
  const SharedRows mid = t.ConcatRange(1, 3);
  ASSERT_EQ(mid.size(), 3u);
  EXPECT_EQ(mid.RecoverAt(0, 0), 10u);
  EXPECT_EQ(mid.RecoverAt(2, 0), 30u);
  EXPECT_EQ(t.ConcatRange(4, 100).size(), 1u);  // clamps
  EXPECT_EQ(t.ConcatAll().size(), 5u);
}

TEST(OutsourcedTableTest, EmptyRanges) {
  OutsourcedTable t(2);
  EXPECT_EQ(t.ConcatAll().size(), 0u);
  EXPECT_EQ(t.ConcatRange(0, 5).size(), 0u);
}

TEST(OutsourcedTableTest, EvictionKeepsLifetimeCountersAndStepIndices) {
  Rng rng(3);
  OutsourcedTable t(1);
  for (Word s = 0; s < 5; ++s) t.AppendBatch(MakeBatch(&rng, 1, {s, s}));
  t.EvictBefore(3);
  EXPECT_EQ(t.first_retained(), 3u);
  EXPECT_EQ(t.steps(), 5u);        // lifetime counter
  EXPECT_EQ(t.total_rows(), 10u);  // lifetime counter
  EXPECT_EQ(t.batch(3).RecoverAt(0, 0), 3u);
  EXPECT_EQ(t.batch(4).RecoverAt(1, 0), 4u);
  EXPECT_EQ(t.ConcatRange(3, 100).size(), 4u);
  t.EvictBefore(1);  // below the floor: a no-op
  EXPECT_EQ(t.first_retained(), 3u);
  EXPECT_EQ(t.AppendBatch(MakeBatch(&rng, 1, {5})), 5u);
  t.EvictBefore(6);  // everything
  EXPECT_EQ(t.first_retained(), 6u);
  EXPECT_EQ(t.steps(), 6u);
  EXPECT_EQ(t.ConcatRange(6, 9).size(), 0u);
}

/// Writes a store section whose first retained step is 4, with the given
/// lifetime row total and held batches, and restores it into `out` through
/// the OutsourcedTable visit.
Status RestoreStore(uint64_t total_rows, const std::vector<SharedRows>& held,
                    OutsourcedTable* out) {
  const uint32_t tag = CheckpointTag('S', 'T', 'O', 'R');
  CheckpointWriter w;
  w.BeginSection(tag);
  w.U64(4);
  w.U64(total_rows);
  VisitList(w, held, [&](const SharedRows& rows) { Visit(w, rows); });
  w.EndSection();
  const std::vector<uint8_t> blob = w.Finish();
  Result<CheckpointReader> r = CheckpointReader::Open(blob);
  if (!r.ok()) return r.status();
  Visit(*r, *out, tag, 4 + held.size(), 4);
  return r->Finish();
}

TEST(OutsourcedTableTest, RestoreRejectsTotalBelowHeldRows) {
  Rng rng(4);
  std::vector<SharedRows> held;
  held.push_back(MakeBatch(&rng, 1, {1, 2}));
  OutsourcedTable rejected(1);
  EXPECT_EQ(RestoreStore(1, held, &rejected).code(),
            StatusCode::kInvalidArgument);
  OutsourcedTable t(1);
  ASSERT_EQ(RestoreStore(9, held, &t).code(), StatusCode::kOk);
  EXPECT_EQ(t.first_retained(), 4u);
  EXPECT_EQ(t.steps(), 5u);
  EXPECT_EQ(t.total_rows(), 9u);
  EXPECT_EQ(t.batch(4).size(), 2u);
}

TEST(OutsourcedTableDeathTest, ReadingAnEvictedStepFailsLoudly) {
  Rng rng(5);
  OutsourcedTable t(1);
  for (Word s = 0; s < 4; ++s) t.AppendBatch(MakeBatch(&rng, 1, {s}));
  t.EvictBefore(2);
  EXPECT_DEATH((void)t.batch(1), "CHECK failed");
  EXPECT_DEATH((void)t.ConcatRange(1, 3), "CHECK failed");
  EXPECT_DEATH((void)t.ConcatAll(), "CHECK failed");
  EXPECT_DEATH((void)t.batch(4), "CHECK failed");  // not uploaded yet
  EXPECT_DEATH(t.EvictBefore(5), "CHECK failed");
}

class SecureCacheTest : public ::testing::Test {
 protected:
  SecureCacheTest()
      : s0_(0, 5), s1_(1, 6), proto_(&s0_, &s1_, CostModel::EmpLikeLan()) {}
  Party s0_;
  Party s1_;
  Protocol2PC proto_;
};

TEST_F(SecureCacheTest, CounterStartsAtZeroShared) {
  SecureCache cache(&proto_);
  EXPECT_EQ(cache.RecoverCounterInside(&proto_), 0u);
  // The shared representation itself must not be the trivial (0, 0) pair.
  EXPECT_NE(cache.counter().s0, 0u);
}

TEST_F(SecureCacheTest, AddAndResetCounter) {
  SecureCache cache(&proto_);
  cache.AddToCounter(&proto_, 7);
  cache.AddToCounter(&proto_, 5);
  EXPECT_EQ(cache.RecoverCounterInside(&proto_), 12u);
  const WordShares before = cache.counter();
  cache.ResetCounter(&proto_);
  EXPECT_EQ(cache.RecoverCounterInside(&proto_), 0u);
  EXPECT_NE(cache.counter().s0, before.s0);  // fresh randomness
}

TEST_F(SecureCacheTest, CounterResharedEachUpdate) {
  SecureCache cache(&proto_);
  cache.AddToCounter(&proto_, 1);
  const Word share_a = cache.counter().s0;
  cache.AddToCounter(&proto_, 0);  // same value, new shares
  EXPECT_EQ(cache.RecoverCounterInside(&proto_), 1u);
  EXPECT_NE(cache.counter().s0, share_a);
}

TEST_F(SecureCacheTest, AppendGrowsRows) {
  SecureCache cache(&proto_);
  Rng rng(7);
  SharedRows delta(kViewWidth);
  uint64_t seq = 0;
  AppendDummyViewRow(&delta, &rng, &seq);
  AppendDummyViewRow(&delta, &rng, &seq);
  cache.Append(delta);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(*cache.seq(), 0u);  // engine-side seq is separate
}

TEST(CacheSortKeyTest, MonotoneAcrossOldWrapBoundaries) {
  // Regression: with a uint32_t sequence the FIFO key field wrapped at 2^31
  // (31-bit mask) and the counter itself aliased at 2^32. The 64-bit
  // sequence maps real rows onto [1, 2^32 - 1], strictly decreasing through
  // both old boundaries (the key cycles only after 2^32 - 1 insertions).
  const uint64_t kWindows[][2] = {
      {(1ull << 31) - 4, (1ull << 31) + 4},   // old mask-wrap boundary
      {(1ull << 32) - 8, (1ull << 32) - 2},   // old counter-overflow edge
  };
  for (const auto& w : kWindows) {
    for (uint64_t seq = w[0]; seq < w[1]; ++seq) {
      const Word newer = MakeCacheSortKey(true, seq + 1);
      const Word older = MakeCacheSortKey(true, seq);
      EXPECT_LT(newer, older) << "seq " << seq;
      EXPECT_GT(newer, MakeCacheSortKey(false, seq)) << "seq " << seq;
    }
  }
}

TEST_F(SecureCacheTest, FifoSurvivesTheOldWrapBoundary) {
  // End-to-end: rows appended with insertion sequences straddling 2^31 (the
  // old wrap point) come back in FIFO order from an oblivious cache read.
  SecureCache cache(&proto_);
  Rng rng(9);
  *cache.seq() = (1ull << 31) - 3;
  for (Word i = 0; i < 6; ++i) {
    std::vector<Word> row(kViewWidth, 0);
    row[kViewIsViewCol] = 1;
    row[kViewSortKeyCol] = MakeCacheSortKey(true, (*cache.seq())++);
    row[kViewKeyCol] = i;  // insertion rank
    cache.rows()->AppendSecretRow(row, &rng);
  }
  SharedRows out = ObliviousCacheRead(&proto_, cache.rows(), 6);
  ASSERT_EQ(out.size(), 6u);
  for (size_t r = 0; r < out.size(); ++r) {
    EXPECT_EQ(out.RecoverAt(r, kViewKeyCol), r) << "position " << r;
  }
}

TEST(MaterializedViewTest, AppendAndSize) {
  MaterializedView view;
  EXPECT_EQ(view.size(), 0u);
  EXPECT_DOUBLE_EQ(view.SizeMb(), 0.0);
  Rng rng(8);
  SharedRows batch(kViewWidth);
  uint64_t seq = 0;
  for (int i = 0; i < 100; ++i) AppendDummyViewRow(&batch, &rng, &seq);
  view.Append(batch);
  EXPECT_EQ(view.size(), 100u);
  // 100 rows * 7 words * 4 bytes * 2 servers.
  EXPECT_NEAR(view.SizeMb(), 100.0 * 7 * 4 * 2 / (1024.0 * 1024.0), 1e-12);
}


// ---------------------------------------------------------------------------
// Share-blob serialization hardening
// ---------------------------------------------------------------------------

// Builds the 20-byte ISR1 header claiming the given dimensions, with
// `payload_words` actual u32 words behind it.
std::vector<uint8_t> HostileBlobHeader(uint64_t width, uint64_t rows,
                                       size_t payload_words) {
  std::vector<uint8_t> bytes = {'I', 'S', 'R', '1'};
  for (int i = 0; i < 8; ++i) bytes.push_back((width >> (8 * i)) & 0xFF);
  for (int i = 0; i < 8; ++i) bytes.push_back((rows >> (8 * i)) & 0xFF);
  bytes.resize(bytes.size() + payload_words * 4, 0xAB);
  return bytes;
}

TEST(ShareBlobTest, OverflowingDimensionHeadersRejected) {
  // Regression: width = rows = 2^32 wraps width*rows to 0, so the hostile
  // 20-byte header used to pass the exact-size check and come back as a
  // blob claiming 2^64 dimensions with zero words.
  const uint64_t two32 = 1ull << 32;
  EXPECT_FALSE(ParseShareBlob(HostileBlobHeader(two32, two32, 0)).ok());
  // Regression: width = 1, rows = 2^62 wraps the expected byte count
  // (20 + 2^62*4) back to 20, again matching the bare header exactly.
  EXPECT_FALSE(ParseShareBlob(HostileBlobHeader(1, 1ull << 62, 0)).ok());
  // Zero width must not smuggle a nonzero row count through words == 0.
  EXPECT_FALSE(ParseShareBlob(HostileBlobHeader(0, 1ull << 62, 0)).ok());
  // Other wrap points around the u64 boundary.
  EXPECT_FALSE(ParseShareBlob(HostileBlobHeader(1ull << 33, 1ull << 31, 2)).ok());
  EXPECT_FALSE(ParseShareBlob(HostileBlobHeader(UINT64_MAX, UINT64_MAX, 1)).ok());
  // Honest dimensions still parse.
  const Result<ShareBlob> ok = ParseShareBlob(HostileBlobHeader(2, 3, 6));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->width, 2u);
  EXPECT_EQ(ok->rows, 3u);
  EXPECT_EQ(ok->words.size(), 6u);
}

TEST(ShareBlobTest, CombineOnHostileBlobsReturnsStatusNeverCrashes) {
  // CombineShareBlobs indexes words[r*width + c] for r < rows: a blob that
  // claimed huge dimensions with an empty words array would read (far) out
  // of bounds. Every hostile pairing must surface as a Status.
  Rng rng(17);
  SharedRows honest(3);
  std::vector<Word> row(3);
  for (int i = 0; i < 4; ++i) {
    for (Word& w : row) w = rng.Next32();
    honest.AppendSecretRow(row, &rng);
  }
  const std::vector<uint8_t> good0 = SerializeShares(honest, 0);
  const std::vector<uint8_t> good1 = SerializeShares(honest, 1);
  ASSERT_TRUE(CombineShareBlobs(good0, good1).ok());
  const std::vector<std::vector<uint8_t>> hostile = {
      HostileBlobHeader(1ull << 32, 1ull << 32, 0),
      HostileBlobHeader(1, 1ull << 62, 0),
      HostileBlobHeader(0, 5, 0),
  };
  for (const std::vector<uint8_t>& bad : hostile) {
    EXPECT_FALSE(CombineShareBlobs(bad, bad).ok());
    EXPECT_FALSE(CombineShareBlobs(good0, bad).ok());
    EXPECT_FALSE(CombineShareBlobs(bad, good1).ok());
  }
}

TEST(ShareBlobDeathTest, SerializeSharesRejectsUnknownServer) {
  Rng rng(5);
  SharedRows rows(2);
  rows.AppendSecretRow({1, 2}, &rng);
  // Any server other than 0/1 used to silently alias server 1's shares;
  // now it is a loud programming-error abort.
  EXPECT_DEATH(SerializeShares(rows, 2), "server");
  EXPECT_DEATH(SerializeShares(rows, -1), "server");
}

// ---------------------------------------------------------------------------
// Upload-frame wire format (transport serialization)
// ---------------------------------------------------------------------------

UploadFrame RandomFrame(Rng* rng, size_t width, size_t rows,
                        size_t arrivals) {
  UploadFrame frame;
  frame.owner_step = rng->Next64();
  frame.batch = SharedRows(width);
  std::vector<Word> row0(width), row1(width);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < width; ++c) {
      row0[c] = rng->Next32();
      row1[c] = rng->Next32();
    }
    frame.batch.AppendSharedRow(row0, row1);
  }
  for (size_t i = 0; i < arrivals; ++i) {
    frame.arrivals.push_back({rng->Next64(), rng->Next32(), rng->Next32(),
                              rng->Next32(), rng->Next32()});
  }
  return frame;
}

TEST(UploadFrameTest, RandomFramesRoundTripByteExactly) {
  Rng rng(4711);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t width = 1 + rng.Uniform(9);
    const size_t rows = rng.Uniform(40);
    const size_t arrivals = rng.Uniform(20);
    const UploadFrame frame = RandomFrame(&rng, width, rows, arrivals);
    const std::vector<uint8_t> bytes = EncodeUploadFrame(frame);
    const Result<UploadFrame> decoded = DecodeUploadFrame(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->owner_step, frame.owner_step);
    EXPECT_EQ(decoded->batch.width(), width);
    EXPECT_EQ(decoded->batch.size(), rows);
    EXPECT_EQ(decoded->batch.shares0(), frame.batch.shares0());
    EXPECT_EQ(decoded->batch.shares1(), frame.batch.shares1());
    ASSERT_EQ(decoded->arrivals.size(), arrivals);
    for (size_t i = 0; i < arrivals; ++i) {
      EXPECT_EQ(decoded->arrivals[i].step, frame.arrivals[i].step);
      EXPECT_EQ(decoded->arrivals[i].rid, frame.arrivals[i].rid);
      EXPECT_EQ(decoded->arrivals[i].key, frame.arrivals[i].key);
      EXPECT_EQ(decoded->arrivals[i].date, frame.arrivals[i].date);
      EXPECT_EQ(decoded->arrivals[i].payload, frame.arrivals[i].payload);
    }
    // Byte-exactness: re-encoding the decoded frame reproduces the original
    // buffer bit for bit (the format has one canonical encoding).
    EXPECT_EQ(EncodeUploadFrame(*decoded), bytes);
  }
}

TEST(UploadFrameTest, EveryTruncationReturnsStatusNotCrash) {
  Rng rng(99);
  const UploadFrame frame = RandomFrame(&rng, kSrcWidth, 7, 5);
  const std::vector<uint8_t> bytes = EncodeUploadFrame(frame);
  // Chop the frame at every possible length: all prefixes must decode to a
  // clean InvalidArgument, never crash or succeed.
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<uint8_t> truncated(bytes.begin(),
                                         bytes.begin() + len);
    const Result<UploadFrame> r = DecodeUploadFrame(truncated);
    EXPECT_FALSE(r.ok()) << "prefix of length " << len << " decoded";
  }
  ASSERT_TRUE(DecodeUploadFrame(bytes).ok());
}

TEST(UploadFrameTest, CorruptHeadersRejected) {
  Rng rng(7);
  const UploadFrame frame = RandomFrame(&rng, 3, 2, 1);
  std::vector<uint8_t> bytes = EncodeUploadFrame(frame);
  {
    std::vector<uint8_t> bad = bytes;
    bad[0] ^= 0xFF;  // magic
    EXPECT_FALSE(DecodeUploadFrame(bad).ok());
  }
  {
    std::vector<uint8_t> bad = bytes;
    bad[3] = 0x7F;  // unknown version
    EXPECT_FALSE(DecodeUploadFrame(bad).ok());
  }
  {
    std::vector<uint8_t> bad = bytes;
    bad.push_back(0);  // trailing garbage
    EXPECT_FALSE(DecodeUploadFrame(bad).ok());
  }
  {
    // A hostile row count far beyond the buffer must fail cleanly before
    // any allocation.
    std::vector<uint8_t> bad = bytes;
    for (int i = 0; i < 8; ++i) bad[20 + i] = 0xFF;  // rows field
    EXPECT_FALSE(DecodeUploadFrame(bad).ok());
  }
  {
    // width = 0 must not smuggle an unbounded row count past the
    // payload-fit check (zero-width rows carry no payload bytes): the
    // decode must reject immediately, not loop for 2^64 appends.
    std::vector<uint8_t> bad = bytes;
    for (int i = 0; i < 8; ++i) bad[12 + i] = 0;     // width field
    for (int i = 0; i < 8; ++i) bad[20 + i] = 0xFF;  // rows field
    EXPECT_FALSE(DecodeUploadFrame(bad).ok());
  }
}

}  // namespace
}  // namespace incshrink
