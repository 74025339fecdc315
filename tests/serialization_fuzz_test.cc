// Deterministic mutation-fuzz suite for the untrusted decoders: every byte
// sequence handed to ParseShareBlob / CombineShareBlobs / DecodeUploadFrame
// (and the wire-envelope FrameAssembler in front of them) must yield either
// a Status or a valid parse — never a crash, an abort, an OOM or an
// out-of-bounds access. All mutations are drawn from a seeded Rng, so a
// failing input reproduces from its seed alone. The suite is part of the
// ASan CI job, which is what turns "never an out-of-bounds access" from a
// hope into a check — including the historical ParseShareBlob
// width*rows / expected_words*4 overflow headers that used to crash.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/core/engine.h"
#include "src/core/fleet.h"
#include "src/core/owner_client.h"
#include "src/net/frame_codec.h"
#include "src/oblivious/formats.h"
#include "src/secret/shared_rows.h"
#include "src/storage/checkpoint.h"
#include "src/storage/serialization.h"
#include "src/workload/generators.h"

namespace incshrink {
namespace {

/// A small honest SharedRows batch to derive valid encodings from.
SharedRows SampleRows(size_t rows, Rng* rng) {
  SharedRows out(kSrcWidth);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Word> row(kSrcWidth);
    for (Word& w : row) w = rng->Next32();
    out.AppendSecretRow(row, rng);
  }
  return out;
}

std::vector<uint8_t> SampleFrameBytes(size_t rows, Rng* rng) {
  UploadFrame frame;
  frame.owner_step = rng->Uniform(1000);
  frame.batch = SampleRows(rows, rng);
  const size_t arrivals = rng->Uniform(4);
  for (size_t i = 0; i < arrivals; ++i) {
    frame.arrivals.push_back({frame.owner_step, rng->Next32(), rng->Next32(),
                              rng->Next32(), rng->Next32()});
  }
  return EncodeUploadFrame(frame);
}

/// Overwrites the little-endian u64 at `offset`.
void PutU64(std::vector<uint8_t>* bytes, size_t offset, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[offset + i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

/// Reads the little-endian u64 at `offset`.
uint64_t GetU64(const std::vector<uint8_t>& bytes, size_t offset) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(bytes[offset + i]) << (8 * i);
  }
  return value;
}

/// The hostile dimension values every header sweep draws from: the wrap
/// cases that used to crash ParseShareBlob, plus boundary neighbors.
const uint64_t kHostileDims[] = {0,
                                 1,
                                 2,
                                 5,
                                 (1ull << 31),
                                 (1ull << 32),
                                 (1ull << 32) + 1,
                                 (1ull << 33),
                                 (1ull << 62),
                                 (1ull << 63),
                                 UINT64_MAX - 1,
                                 UINT64_MAX};

// ---------------------------------------------------------------------------
// ParseShareBlob / CombineShareBlobs
// ---------------------------------------------------------------------------

TEST(ShareBlobFuzzTest, TruncationAtEveryPrefixYieldsStatusOrValid) {
  Rng rng(2024);
  const SharedRows rows = SampleRows(7, &rng);
  const std::vector<uint8_t> blob = SerializeShares(rows, 0);
  for (size_t len = 0; len <= blob.size(); ++len) {
    const std::vector<uint8_t> prefix(blob.begin(), blob.begin() + len);
    const Result<ShareBlob> parsed = ParseShareBlob(prefix);
    if (len == blob.size()) {
      ASSERT_TRUE(parsed.ok());
      EXPECT_EQ(parsed->rows, 7u);
      EXPECT_EQ(parsed->width, kSrcWidth);
    } else {
      EXPECT_FALSE(parsed.ok()) << "truncation to " << len << " parsed";
    }
  }
}

TEST(ShareBlobFuzzTest, SeededBitFlipsNeverCrash) {
  Rng rng(4242);
  const SharedRows rows = SampleRows(5, &rng);
  const std::vector<uint8_t> blob = SerializeShares(rows, 1);
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<uint8_t> mutated = blob;
    // 1-4 random bit flips anywhere, header included.
    const size_t flips = 1 + rng.Uniform(4);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.Uniform(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.Uniform(8));
    }
    const Result<ShareBlob> parsed = ParseShareBlob(mutated);
    if (parsed.ok()) {
      // A flip in the word section (or one that cancelled out) still parses
      // — then the parsed dimensions must be internally consistent.
      EXPECT_EQ(parsed->words.size(), parsed->width * parsed->rows);
    }
  }
}

TEST(ShareBlobFuzzTest, HostileDimensionHeaderSweepNeverCrashes) {
  Rng rng(7);
  const SharedRows rows = SampleRows(4, &rng);
  const std::vector<uint8_t> blob = SerializeShares(rows, 0);
  // Every (width, rows) pair from the hostile set, stamped over an
  // otherwise-valid blob: either the dimensions happen to match the payload
  // (the honest pair) or the parser must reject — never wrap, never
  // over-read, never allocate absurdly.
  for (uint64_t width : kHostileDims) {
    for (uint64_t rows_claim : kHostileDims) {
      std::vector<uint8_t> mutated = blob;
      PutU64(&mutated, 4, width);
      PutU64(&mutated, 12, rows_claim);
      const Result<ShareBlob> parsed = ParseShareBlob(mutated);
      const bool honest = width == kSrcWidth && rows_claim == 4;
      EXPECT_EQ(parsed.ok(), honest)
          << "width=" << width << " rows=" << rows_claim;
    }
  }
}

TEST(ShareBlobFuzzTest, RandomGarbageAlwaysRejected) {
  Rng rng(99);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> garbage(rng.Uniform(256));
    for (uint8_t& byte : garbage) byte = static_cast<uint8_t>(rng.Next32());
    // Random bytes essentially never carry the magic; when they do, the
    // parse must still be internally consistent. Either way: no crash.
    const Result<ShareBlob> parsed = ParseShareBlob(garbage);
    if (parsed.ok()) {
      EXPECT_EQ(parsed->words.size(), parsed->width * parsed->rows);
    }
  }
}

TEST(ShareBlobFuzzTest, CombineOnMutatedPairsNeverCrashes) {
  Rng rng(1234);
  const SharedRows rows = SampleRows(6, &rng);
  const std::vector<uint8_t> blob0 = SerializeShares(rows, 0);
  const std::vector<uint8_t> blob1 = SerializeShares(rows, 1);
  // Honest pair reassembles.
  ASSERT_TRUE(CombineShareBlobs(blob0, blob1).ok());
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> m0 = blob0;
    std::vector<uint8_t> m1 = blob1;
    // Mutate one side, the other, or both: flips, truncations, hostile
    // dimension stamps.
    for (std::vector<uint8_t>* target : {&m0, &m1}) {
      switch (rng.Uniform(4)) {
        case 0:
          break;  // leave honest
        case 1:
          (*target)[rng.Uniform(target->size())] ^=
              static_cast<uint8_t>(1u << rng.Uniform(8));
          break;
        case 2:
          target->resize(rng.Uniform(target->size() + 1));
          break;
        default:
          if (target->size() >= 20) {
            PutU64(target, 4, kHostileDims[rng.Uniform(12)]);
            PutU64(target, 12, kHostileDims[rng.Uniform(12)]);
          }
          break;
      }
    }
    const Result<SharedRows> combined = CombineShareBlobs(m0, m1);
    if (combined.ok()) {
      EXPECT_EQ(combined->width(), kSrcWidth);
    }
  }
}

// ---------------------------------------------------------------------------
// DecodeUploadFrame
// ---------------------------------------------------------------------------

/// Decodes `bytes` and checks that the listener's allocation-free
/// validation (ParseUploadFrame without a destination) returns exactly the
/// same Status: same code, same message, same acceptance.
Result<UploadFrame> DecodeAndValidate(const std::vector<uint8_t>& bytes) {
  Result<UploadFrame> decoded = DecodeUploadFrame(bytes);
  const Status validated = ParseUploadFrame(bytes, nullptr);
  EXPECT_EQ(validated.ToString(), decoded.status().ToString());
  return decoded;
}

TEST(UploadFrameFuzzTest, TruncationAtEveryPrefixYieldsStatusOrValid) {
  Rng rng(55);
  const std::vector<uint8_t> frame = SampleFrameBytes(5, &rng);
  for (size_t len = 0; len <= frame.size(); ++len) {
    const std::vector<uint8_t> prefix(frame.begin(), frame.begin() + len);
    const Result<UploadFrame> parsed = DecodeAndValidate(prefix);
    if (len == frame.size()) {
      ASSERT_TRUE(parsed.ok());
      EXPECT_EQ(parsed->batch.size(), 5u);
    } else {
      EXPECT_FALSE(parsed.ok()) << "truncation to " << len << " parsed";
    }
  }
}

TEST(UploadFrameFuzzTest, SeededBitFlipsNeverCrash) {
  Rng rng(777);
  const std::vector<uint8_t> frame = SampleFrameBytes(4, &rng);
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<uint8_t> mutated = frame;
    const size_t flips = 1 + rng.Uniform(4);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.Uniform(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.Uniform(8));
    }
    const Result<UploadFrame> parsed = DecodeAndValidate(mutated);
    if (parsed.ok()) {
      EXPECT_EQ(parsed->batch.width(), kSrcWidth);
    }
  }
}

TEST(UploadFrameFuzzTest, HostileDimensionHeaderSweepNeverCrashes) {
  Rng rng(31337);
  const std::vector<uint8_t> frame = SampleFrameBytes(3, &rng);
  // IUF layout: magic(3) + version(1) + owner_step(8) + width(8) + rows(8).
  for (uint64_t width : kHostileDims) {
    for (uint64_t rows_claim : kHostileDims) {
      std::vector<uint8_t> mutated = frame;
      PutU64(&mutated, 12, width);
      PutU64(&mutated, 20, rows_claim);
      const Result<UploadFrame> parsed = DecodeAndValidate(mutated);
      const bool honest = width == kSrcWidth && rows_claim == 3;
      EXPECT_EQ(parsed.ok(), honest)
          << "width=" << width << " rows=" << rows_claim;
    }
  }
  // The arrivals count is a header too: stamp hostile values over it (it
  // sits right after the two share sections in an honest frame).
  const size_t arrivals_offset = 28 + 2 * (3 * kSrcWidth) * 4;
  for (uint64_t count : kHostileDims) {
    std::vector<uint8_t> mutated = frame;
    PutU64(&mutated, arrivals_offset, count);
    const Result<UploadFrame> parsed = DecodeAndValidate(mutated);
    if (parsed.ok()) {
      EXPECT_EQ(parsed->arrivals.size(), count);
    }
  }
}

TEST(UploadFrameFuzzTest, ZeroRowAstronomicWidthDoesNotAllocate) {
  // words = width * 0 = 0 sails through every payload-fit check, so a
  // 36-byte frame claiming width = 2^62 must not translate into width-sized
  // scratch allocations (it used to allocate two 2^62-word vectors). The
  // frame itself is internally consistent — zero rows, zero payload — so it
  // parses; the engine's own width check rejects it after decode.
  std::vector<uint8_t> bytes(36, 0);  // owner_step = rows = num_arrivals = 0
  bytes[0] = 'I';
  bytes[1] = 'U';
  bytes[2] = 'F';
  bytes[3] = 1;
  PutU64(&bytes, 12, 1ull << 62);  // width
  const Result<UploadFrame> parsed = DecodeAndValidate(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->batch.size(), 0u);

  // Same shape through CombineShareBlobs: zero-row blobs claiming huge
  // widths combine without width-sized allocations.
  std::vector<uint8_t> blob(20, 0);
  blob[0] = 'I';
  blob[1] = 'S';
  blob[2] = 'R';
  blob[3] = '1';
  PutU64(&blob, 4, 1ull << 62);  // width, rows = 0, empty payload
  const Result<SharedRows> combined = CombineShareBlobs(blob, blob);
  ASSERT_TRUE(combined.ok());
  EXPECT_EQ(combined->size(), 0u);
}

TEST(UploadFrameFuzzTest, RandomGarbageAndMultiMutationNeverCrash) {
  Rng rng(60606);
  const std::vector<uint8_t> frame = SampleFrameBytes(6, &rng);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> mutated;
    if (rng.Uniform(2) == 0) {
      // Pure garbage of random length.
      mutated.resize(rng.Uniform(512));
      for (uint8_t& byte : mutated) byte = static_cast<uint8_t>(rng.Next32());
    } else {
      // Valid frame, then a random pipeline of truncation + flips + header
      // stamps, in random order.
      mutated = frame;
      const size_t ops = 1 + rng.Uniform(3);
      for (size_t op = 0; op < ops && !mutated.empty(); ++op) {
        switch (rng.Uniform(3)) {
          case 0:
            mutated.resize(rng.Uniform(mutated.size() + 1));
            break;
          case 1:
            mutated[rng.Uniform(mutated.size())] ^=
                static_cast<uint8_t>(1u << rng.Uniform(8));
            break;
          default:
            if (mutated.size() >= 28) {
              PutU64(&mutated, 12 + 8 * rng.Uniform(2),
                     kHostileDims[rng.Uniform(12)]);
            }
            break;
        }
      }
    }
    const Result<UploadFrame> parsed = DecodeAndValidate(mutated);
    if (parsed.ok()) {
      EXPECT_EQ(parsed->batch.width(), kSrcWidth);
    }
  }
}

// ---------------------------------------------------------------------------
// FrameAssembler (the envelope decoder in front of DecodeUploadFrame)
// ---------------------------------------------------------------------------

TEST(FrameAssemblerFuzzTest, MutatedStreamsInRandomChunksNeverCrash) {
  Rng rng(808);
  for (int iter = 0; iter < 800; ++iter) {
    // An honest stream of hello + a few frames...
    std::vector<uint8_t> stream = EncodeHello(static_cast<uint32_t>(
        rng.Uniform(4)));
    const size_t frames = 1 + rng.Uniform(3);
    for (size_t i = 0; i < frames; ++i) {
      AppendEnvelope(&stream, i + 1, SampleFrameBytes(rng.Uniform(3), &rng));
    }
    // ... mutated: flips and/or truncation.
    if (rng.Uniform(4) != 0) {
      const size_t flips = 1 + rng.Uniform(4);
      for (size_t f = 0; f < flips; ++f) {
        stream[rng.Uniform(stream.size())] ^=
            static_cast<uint8_t>(1u << rng.Uniform(8));
      }
    }
    if (rng.Uniform(3) == 0) {
      stream.resize(rng.Uniform(stream.size() + 1));
    }
    // Fed in random-sized chunks, drained after every feed: the assembler
    // must always either produce frames or poison — and once poisoned stay
    // poisoned — regardless of chunk boundaries.
    FrameAssembler assembler(1 << 20);
    uint32_t channel_id = 0;
    bool hello_done = false;
    bool poisoned = false;
    size_t fed = 0;
    while (fed < stream.size()) {
      const size_t chunk = 1 + rng.Uniform(64);
      const size_t n = chunk < stream.size() - fed ? chunk
                                                   : stream.size() - fed;
      assembler.Feed(stream.data() + fed, n);
      fed += n;
      if (!hello_done) {
        const Result<bool> hello = assembler.TakeHello(&channel_id);
        if (!hello.ok()) {
          poisoned = true;
          break;
        }
        hello_done = *hello;
        if (!hello_done) continue;
      }
      for (;;) {
        WireFrame frame;
        const Result<bool> got = assembler.TakeFrame(&frame);
        if (!got.ok()) {
          poisoned = true;
          break;
        }
        if (!*got) break;
        // Every extracted frame respects the envelope invariants.
        EXPECT_GT(frame.payload.size(), 0u);
        EXPECT_LE(frame.payload.size(), 1u << 20);
        EXPECT_EQ(frame.seq, assembler.last_seq());
      }
      if (poisoned) break;
    }
    if (poisoned) {
      // Poison is sticky through further feeds.
      const uint8_t more = 0xAB;
      assembler.Feed(&more, 1);
      WireFrame frame;
      EXPECT_FALSE(assembler.TakeFrame(&frame).ok());
      EXPECT_TRUE(assembler.poisoned());
    }
  }
}

// ---------------------------------------------------------------------------
// ICKP snapshot decoder (CheckpointReader + Engine::RestoreCheckpoint)
// ---------------------------------------------------------------------------

/// A realistic nested ICKP blob: a small engine run's full snapshot.
std::vector<uint8_t> SampleEngineSnapshot(const IncShrinkConfig& cfg,
                                          uint64_t steps = 4) {
  TpcDsParams p;
  p.steps = steps;
  p.seed = 5;
  const GeneratedWorkload w = GenerateTpcDs(p);
  SynchronousDeployment d(cfg);
  INCSHRINK_CHECK(d.Run(w.t1, w.t2).ok());
  Result<std::vector<uint8_t>> blob = d.engine().SaveCheckpoint();
  INCSHRINK_CHECK(blob.ok());
  return *blob;
}

IncShrinkConfig SnapshotFuzzConfig() {
  IncShrinkConfig cfg = DefaultTpcDsConfig();
  cfg.strategy = Strategy::kDpTimer;
  cfg.timer_T = 2;
  cfg.flush_interval = 3;
  cfg.flush_size = 4;
  return cfg;
}

/// Recomputes the trailing FNV-1a64 after a hostile in-body edit, so the
/// mutation models an adversarial forgery rather than a disk error — the
/// structural checks, not the checksum, must contain it.
void FixupChecksum(std::vector<uint8_t>* blob) {
  INCSHRINK_CHECK(blob->size() >= 13);
  PutU64(blob, blob->size() - 8, Fnv1a64(blob->data(), blob->size() - 8));
}

TEST(IckpFuzzTest, TruncationAtEveryPrefixIsRejected) {
  const IncShrinkConfig cfg = SnapshotFuzzConfig();
  const std::vector<uint8_t> blob = SampleEngineSnapshot(cfg);
  Engine victim(cfg);
  for (size_t len = 0; len < blob.size(); ++len) {
    const std::vector<uint8_t> prefix(blob.begin(), blob.begin() + len);
    EXPECT_FALSE(CheckpointReader::Open(prefix).ok())
        << "truncation to " << len << " opened";
    EXPECT_FALSE(victim.RestoreCheckpoint(prefix).ok())
        << "truncation to " << len << " restored";
  }
  EXPECT_TRUE(victim.RestoreCheckpoint(blob).ok());
}

TEST(IckpFuzzTest, SeededBitFlipsNeverCrashOrLoad) {
  const IncShrinkConfig cfg = SnapshotFuzzConfig();
  const std::vector<uint8_t> blob = SampleEngineSnapshot(cfg);
  Engine victim(cfg);
  Rng rng(515151);
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<uint8_t> mutated = blob;
    const size_t flips = 1 + rng.Uniform(4);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.Uniform(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.Uniform(8));
    }
    // The checksum trailer turns every flip into a clean rejection.
    EXPECT_FALSE(victim.RestoreCheckpoint(mutated).ok()) << "iter " << iter;
  }
}

TEST(IckpFuzzTest, HostileHeadersBehindValidChecksumsAreContained) {
  // An adversary who can re-stamp the checksum still cannot get a hostile
  // dimension header through: every count/length is validated against the
  // bytes actually present before any allocation or load happens.
  const IncShrinkConfig cfg = SnapshotFuzzConfig();
  const std::vector<uint8_t> blob = SampleEngineSnapshot(cfg);
  Engine victim(cfg);

  // The first section's length field lives at a fixed offset: magic+version
  // (5) + tag (4) = 9. Oversized claims over-run the body; undersized ones
  // leave unread bytes. Both must bounce.
  for (uint64_t dim : kHostileDims) {
    std::vector<uint8_t> mutated = blob;
    PutU64(&mutated, 9, dim);
    FixupChecksum(&mutated);
    const bool honest = dim == 8;  // 'CFG ' holds exactly one u64
    EXPECT_EQ(victim.RestoreCheckpoint(mutated).ok(), honest)
        << "section len " << dim;
  }

  // A forged Bytes length prefix: a hand-built container whose single
  // section claims a payload of up to 2^63 bytes. The reader must reject
  // before allocating (ASan/OOM would catch the alternative).
  for (uint64_t dim : kHostileDims) {
    CheckpointWriter w;
    w.BeginSection(CheckpointTag('F', 'U', 'Z', 'Z'));
    w.Bytes({1, 2, 3});
    w.EndSection();
    std::vector<uint8_t> crafted = w.Finish();
    // Layout: header(5) | tag(4) | section len(8) | bytes len(8) | payload.
    PutU64(&crafted, 17, dim);
    FixupChecksum(&crafted);
    Result<CheckpointReader> r = CheckpointReader::Open(crafted);
    ASSERT_TRUE(r.ok());
    r->BeginSection(CheckpointTag('F', 'U', 'Z', 'Z'));
    std::vector<uint8_t> payload;
    r->Bytes(payload);
    if (dim == 3) {
      EXPECT_TRUE(r->ok());
      EXPECT_EQ(payload.size(), 3u);
    } else if (dim < 3) {
      // An undersized claim reads a shorter prefix; the unread trailing
      // bytes are a structural error the moment the section closes.
      EXPECT_TRUE(r->ok());
      EXPECT_EQ(payload.size(), dim);
      r->EndSection();
      EXPECT_FALSE(r->ok()) << "bytes len " << dim;
    } else {
      // An oversized claim is caught against the bytes remaining BEFORE
      // any allocation happens.
      EXPECT_FALSE(r->ok()) << "bytes len " << dim;
      EXPECT_TRUE(payload.empty());
      EXPECT_FALSE(r->ExpectOk("fuzz").ok());
      EXPECT_FALSE(r->Finish().ok());
    }
  }

  // Wrong tag and unread trailing bytes are structural errors too.
  {
    CheckpointWriter w;
    w.BeginSection(CheckpointTag('A', 'B', 'C', 'D'));
    w.U64(7);
    w.EndSection();
    const std::vector<uint8_t> crafted = w.Finish();
    Result<CheckpointReader> r = CheckpointReader::Open(crafted);
    ASSERT_TRUE(r.ok());
    r->BeginSection(CheckpointTag('X', 'Y', 'Z', 'W'));
    EXPECT_FALSE(r->ok());
  }
  {
    CheckpointWriter w;
    w.BeginSection(CheckpointTag('A', 'B', 'C', 'D'));
    w.U64(7);
    w.U64(8);
    w.EndSection();
    const std::vector<uint8_t> crafted = w.Finish();
    Result<CheckpointReader> r = CheckpointReader::Open(crafted);
    ASSERT_TRUE(r.ok());
    r->BeginSection(CheckpointTag('A', 'B', 'C', 'D'));
    uint64_t first = 0;
    r->U64(first);
    EXPECT_EQ(first, 7u);
    r->EndSection();  // 8 bytes unread -> structural failure
    EXPECT_FALSE(r->ok());
  }
}

/// Offset of the payload of the top-level section `tag` in an ICKP blob
/// (header: magic + version = 5 bytes; section: u32 tag | u64 len | body).
size_t SectionPayloadOffset(const std::vector<uint8_t>& blob, uint32_t tag) {
  size_t off = 5;
  while (off + 12 <= blob.size() - 8) {
    const uint32_t got = static_cast<uint32_t>(GetU64(blob, off));
    if (got == tag) return off + 12;
    off += 12 + GetU64(blob, off + 4);
  }
  ADD_FAILURE() << "section not found";
  return 0;
}

TEST(IckpFuzzTest, HostileStoreFieldsBehindValidChecksumsAreRejected) {
  // The v2 store section is first_retained | total_rows | count | batches.
  // A forger who re-stamps the checksum still cannot make a restore hold a
  // window other than the restored clock's retention floor, or a row total
  // other than the logged upload sizes: every forgery bounces atomically.
  const IncShrinkConfig cfg = SnapshotFuzzConfig();
  const std::vector<uint8_t> blob = SampleEngineSnapshot(cfg, /*steps=*/12);
  const uint64_t eligible = TransformProtocol::EligibleSteps(cfg);
  ASSERT_LT(eligible, 12u) << "the sample must have evicted something";
  const uint64_t floor = 12 - eligible;
  Engine victim(cfg);
  ASSERT_TRUE(victim.RestoreCheckpoint(blob).ok());

  for (const uint32_t tag : {CheckpointTag('S', 'T', 'R', '1'),
                             CheckpointTag('S', 'T', 'R', '2')}) {
    const size_t at = SectionPayloadOffset(blob, tag);
    ASSERT_EQ(GetU64(blob, at), floor);
    const uint64_t total = GetU64(blob, at + 8);
    ASSERT_EQ(GetU64(blob, at + 16), eligible);
    struct Forgery {
      size_t field;  ///< 0 first_retained, 8 total_rows, 16 batch count
      uint64_t value;
    };
    const Forgery forgeries[] = {
        {0, 13},             // first_retained > t
        {0, 12},             // floor mismatch: nothing retained
        {0, floor - 1},      // floor mismatch: one evicted step claimed
        {0, floor + 1},      // floor mismatch: one readable step dropped
        {0, 0},              // floor mismatch: the pre-retention layout
        {0, UINT64_MAX},
        {16, eligible - 1},  // wrong batch count
        {16, eligible + 1},
        {16, 0},
        {16, UINT64_MAX},
        {8, 0},              // total_rows below the retained rows
        {8, total - 1},      // total_rows disagrees with the upload log
        {8, total + 1},
        {8, UINT64_MAX},
    };
    for (const Forgery& f : forgeries) {
      std::vector<uint8_t> mutated = blob;
      PutU64(&mutated, at + f.field, f.value);
      FixupChecksum(&mutated);
      EXPECT_FALSE(victim.RestoreCheckpoint(mutated).ok())
          << "field +" << f.field << " = " << f.value;
    }
  }
  // Every bounced forgery left the victim on the pristine state.
  Result<std::vector<uint8_t>> again = victim.SaveCheckpoint();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(blob, *again);

  // A v1 header (the pre-retention layout) is rejected up front: there is
  // no v1 decode path.
  std::vector<uint8_t> v1 = blob;
  v1[4] = 1;
  FixupChecksum(&v1);
  const Result<CheckpointReader> opened = CheckpointReader::Open(v1);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().ToString().find("unsupported snapshot version"),
            std::string::npos);
  EXPECT_FALSE(victim.RestoreCheckpoint(v1).ok());
}

/// The v3 ground-truth section, decoded: the pair count, then per relation
/// its runs of {key, date} arrivals.
struct TruthSection {
  uint64_t count = 0;
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> runs[2];
};

uint32_t GetU32(const std::vector<uint8_t>& bytes, size_t offset) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(bytes[offset + i]) << (8 * i);
  }
  return value;
}

void AppendLe(std::vector<uint8_t>* out, uint64_t value, int width) {
  for (int i = 0; i < width; ++i) {
    out->push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

const uint32_t kTagTruth = CheckpointTag('T', 'R', 'U', 'T');

TruthSection DecodeTruth(const std::vector<uint8_t>& blob) {
  size_t at = SectionPayloadOffset(blob, kTagTruth);
  TruthSection truth;
  truth.count = GetU64(blob, at);
  at += 8;
  for (auto& runs : truth.runs) {
    const uint64_t num_runs = GetU64(blob, at);
    at += 8;
    for (uint64_t r = 0; r < num_runs; ++r) {
      const uint64_t size = GetU64(blob, at);
      at += 8;
      runs.emplace_back();
      for (uint64_t i = 0; i < size; ++i, at += 8) {
        runs.back().push_back({GetU32(blob, at), GetU32(blob, at + 4)});
      }
    }
  }
  return truth;
}

std::vector<uint8_t> EncodeTruth(const TruthSection& truth) {
  std::vector<uint8_t> payload;
  AppendLe(&payload, truth.count, 8);
  for (const auto& runs : truth.runs) {
    AppendLe(&payload, runs.size(), 8);
    for (const auto& run : runs) {
      AppendLe(&payload, run.size(), 8);
      for (const auto& [key, date] : run) {
        AppendLe(&payload, key, 4);
        AppendLe(&payload, date, 4);
      }
    }
  }
  return payload;
}

/// `blob` with the ground-truth section's payload replaced and the section
/// length and checksum re-stamped: a forgery only the decoder can catch.
std::vector<uint8_t> WithTruthPayload(const std::vector<uint8_t>& blob,
                                      const std::vector<uint8_t>& payload) {
  const size_t at = SectionPayloadOffset(blob, kTagTruth);
  const size_t old_end = at + GetU64(blob, at - 8);
  std::vector<uint8_t> out(blob.begin(), blob.begin() + at);
  PutU64(&out, at - 8, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  out.insert(out.end(), blob.begin() + old_end, blob.end());
  FixupChecksum(&out);
  return out;
}

TEST(IckpFuzzTest, HostileTruthRunsBehindValidChecksumsAreRejected) {
  // The v3 truth section is count | per relation: run count, then per run
  // its size and sorted {key, date} pairs. Every forgery below must bounce
  // with InvalidArgument and leave the victim on its own, different state.
  const IncShrinkConfig cfg = SnapshotFuzzConfig();
  const std::vector<uint8_t> blob = SampleEngineSnapshot(cfg, /*steps=*/12);
  const std::vector<uint8_t> before = SampleEngineSnapshot(cfg);
  Engine victim(cfg);
  ASSERT_TRUE(victim.RestoreCheckpoint(before).ok());
  const TruthSection truth = DecodeTruth(blob);
  ASSERT_EQ(EncodeTruth(truth).size(),
            GetU64(blob, SectionPayloadOffset(blob, kTagTruth) - 8));
  ASSERT_EQ(WithTruthPayload(blob, EncodeTruth(truth)), blob);
  ASSERT_GT(truth.count, 0u);

  struct Forgery {
    std::string name;
    std::vector<uint8_t> payload;
    const char* reason;  ///< expected in the rejection message
  };
  std::vector<Forgery> forgeries;
  for (int side = 0; side < 2; ++side) {
    const std::string name = side == 0 ? "T1 " : "T2 ";
    ASSERT_FALSE(truth.runs[side].empty());
    // Unsorted: reverse the first run with two distinct arrivals.
    TruthSection unsorted = truth;
    bool reversed = false;
    for (auto& run : unsorted.runs[side]) {
      if (run.front() != run.back()) {
        std::reverse(run.begin(), run.end());
        reversed = true;
        break;
      }
    }
    ASSERT_TRUE(reversed) << name << "has no run to unsort";
    forgeries.push_back(
        {name + "unsorted run", EncodeTruth(unsorted), "not sorted"});
    // Empty: a run of size 0 ahead of the others.
    TruthSection empty = truth;
    empty.runs[side].emplace(empty.runs[side].begin());
    forgeries.push_back({name + "empty run", EncodeTruth(empty), "empty"});
  }
  for (const int64_t delta : {-1, 1}) {
    TruthSection miscounted = truth;
    miscounted.count += static_cast<uint64_t>(delta);
    forgeries.push_back({"count " + std::to_string(delta),
                         EncodeTruth(miscounted), "disagrees"});
  }
  // Truncated: the final run loses its last pair (or half of it) while its
  // size still claims it.
  for (const size_t cut : {4, 8}) {
    std::vector<uint8_t> payload = EncodeTruth(truth);
    payload.resize(payload.size() - cut);
    forgeries.push_back(
        {"truncated by " + std::to_string(cut), payload, "ground-truth runs"});
  }

  for (const Forgery& f : forgeries) {
    const Status st =
        victim.RestoreCheckpoint(WithTruthPayload(blob, f.payload));
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << f.name;
    EXPECT_NE(st.ToString().find(f.reason), std::string::npos)
        << f.name << ": " << st.ToString();
  }
  // A v2 header (the pair-log truth layout) is rejected as an unsupported
  // version: there is no v2 decode path.
  std::vector<uint8_t> v2 = blob;
  v2[4] = 2;
  FixupChecksum(&v2);
  const Status st = victim.RestoreCheckpoint(v2);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("unsupported snapshot version"),
            std::string::npos);

  // Every bounced forgery left the victim where it was; the honest blob
  // still loads.
  Result<std::vector<uint8_t>> again = victim.SaveCheckpoint();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(before, *again);
  EXPECT_TRUE(victim.RestoreCheckpoint(blob).ok());
}

/// OWN1/OWN2 payload layout: policy RngState (4 + 1 u64 words and a bool
/// byte) | queue count u64 | 24-byte queued records | has_svt u8 | ...
constexpr size_t kRngStateBytes = 41;
constexpr size_t kQueuedRecordBytes = 24;

constexpr char kOwnerShapeMismatch[] =
    "snapshot upload-policy shape disagrees with this uploader's config";

/// An envelope blob with one owner section forged behind a re-stamped
/// checksum, and the InvalidArgument message its restore must return.
struct OwnerForgery {
  std::string name;
  std::vector<uint8_t> blob;
  std::string message;
};

/// The four owner-section forgeries of `blob` for each of OWN1 and OWN2:
/// has_svt = 2, an SVT flag that disagrees with the config, a queue count
/// of UINT64_MAX, and the last queued record truncated by 4 bytes (with the
/// section length re-stamped too). The truncated record's last field
/// swallows the SVT flag, so the flag is read from a shifted byte and the
/// shape check fires before the section runs out.
std::vector<OwnerForgery> ForgeOwnerSections(const std::vector<uint8_t>& blob,
                                             bool has_svt) {
  std::vector<OwnerForgery> out;
  for (const uint32_t tag : {CheckpointTag('O', 'W', 'N', '1'),
                             CheckpointTag('O', 'W', 'N', '2')}) {
    const std::string owner = tag == CheckpointTag('O', 'W', 'N', '1')
                                  ? "OWN1 "
                                  : "OWN2 ";
    const size_t at = SectionPayloadOffset(blob, tag);
    const size_t count_at = at + kRngStateBytes;
    const uint64_t queued = GetU64(blob, count_at);
    EXPECT_GT(queued, 0u) << owner << "needs a queued record to truncate";
    const size_t flag_at = count_at + 8 + queued * kQueuedRecordBytes;
    EXPECT_EQ(blob[flag_at], has_svt ? 1 : 0);

    std::vector<uint8_t> flag2 = blob;
    flag2[flag_at] = 2;
    FixupChecksum(&flag2);
    out.push_back({owner + "has_svt = 2", flag2, kOwnerShapeMismatch});

    std::vector<uint8_t> flipped = blob;
    flipped[flag_at] = has_svt ? 0 : 1;
    FixupChecksum(&flipped);
    out.push_back({owner + "SVT flag disagrees with the config", flipped,
                   kOwnerShapeMismatch});

    std::vector<uint8_t> huge = blob;
    PutU64(&huge, count_at, UINT64_MAX);
    FixupChecksum(&huge);
    out.push_back({owner + "queue count UINT64_MAX", huge,
                   "malformed snapshot: owner uploader state"});

    std::vector<uint8_t> cut = blob;
    cut.erase(cut.begin() + flag_at - 4, cut.begin() + flag_at);
    PutU64(&cut, at - 8, GetU64(blob, at - 8) - 4);
    FixupChecksum(&cut);
    out.push_back({owner + "last record truncated by 4 bytes", cut,
                   kOwnerShapeMismatch});
  }
  return out;
}

TEST(IckpFuzzTest, HostileOwnerSectionsBehindValidChecksumsAreRejected) {
  TpcDsParams p;
  p.steps = 12;
  p.seed = 9;
  const GeneratedWorkload w = GenerateTpcDs(p);

  // A deployment whose owners run the DP-ANT (SVT) upload policy with
  // records still queued.
  IncShrinkConfig ant = SnapshotFuzzConfig();
  for (UploadPolicyConfig* policy :
       {&ant.upload_policy1, &ant.upload_policy2}) {
    policy->kind = UploadPolicyKind::kDpAntSync;
    policy->sync_theta = 30;
  }
  SynchronousDeployment deployment(ant);
  ASSERT_TRUE(deployment.Run(w.t1, w.t2).ok());
  Result<std::vector<uint8_t>> deployment_blob = deployment.SaveCheckpoint();
  ASSERT_TRUE(deployment_blob.ok());

  // A fleet tenant whose owners run the DP-Timer upload policy (no SVT),
  // checkpointed between two syncs so its queues are not empty.
  IncShrinkConfig timer = SnapshotFuzzConfig();
  for (UploadPolicyConfig* policy :
       {&timer.upload_policy1, &timer.upload_policy2}) {
    policy->kind = UploadPolicyKind::kDpTimerSync;
    policy->sync_interval = 4;
  }
  std::vector<DeploymentFleet::TenantSpec> specs(1);
  specs[0].name = "timer-sync";
  specs[0].config = timer;
  specs[0].workload = &w;
  DeploymentFleet::Options opts;
  opts.num_threads = 1;
  DeploymentFleet fleet(specs, opts);
  for (int r = 0; r < 7; ++r) fleet.StepAll();
  Result<std::vector<uint8_t>> tenant_blob = fleet.CheckpointTenant(0);
  ASSERT_TRUE(tenant_blob.ok());

  // Every forgery bounces with its exact status, and the victim still
  // re-saves the pristine bytes.
  for (const OwnerForgery& f :
       ForgeOwnerSections(*deployment_blob, /*has_svt=*/true)) {
    const Status st = deployment.RestoreCheckpoint(f.blob);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << f.name;
    EXPECT_EQ(st.message(), f.message) << f.name;
    Result<std::vector<uint8_t>> again = deployment.SaveCheckpoint();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*deployment_blob, *again) << f.name;
  }
  for (const OwnerForgery& f :
       ForgeOwnerSections(*tenant_blob, /*has_svt=*/false)) {
    const Status st = fleet.RestoreTenant(0, f.blob);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << f.name;
    EXPECT_EQ(st.message(), f.message) << f.name;
    Result<std::vector<uint8_t>> again = fleet.CheckpointTenant(0);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*tenant_blob, *again) << f.name;
  }
  // The honest blobs still load.
  EXPECT_TRUE(deployment.RestoreCheckpoint(*deployment_blob).ok());
  EXPECT_TRUE(fleet.RestoreTenant(0, *tenant_blob).ok());
}

TEST(IckpFuzzTest, RandomGarbageNeverOpens) {
  Rng rng(616161);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> garbage(rng.Uniform(512));
    for (uint8_t& byte : garbage) byte = static_cast<uint8_t>(rng.Next32());
    // Random bytes carry neither the magic nor a matching checksum.
    EXPECT_FALSE(CheckpointReader::Open(garbage).ok());
  }
}

TEST(IckpFuzzTest, RepeatedFailedRestoresLeaveEngineUsable) {
  const IncShrinkConfig cfg = SnapshotFuzzConfig();
  const std::vector<uint8_t> blob = SampleEngineSnapshot(cfg);
  Engine victim(cfg);
  Rng rng(717171);
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<uint8_t> mutated = blob;
    switch (rng.Uniform(3)) {
      case 0:
        mutated.resize(rng.Uniform(mutated.size()));
        break;
      case 1:
        mutated[rng.Uniform(mutated.size())] ^=
            static_cast<uint8_t>(1u << rng.Uniform(8));
        break;
      default:
        PutU64(&mutated, 9, kHostileDims[rng.Uniform(12)]);
        FixupChecksum(&mutated);
        break;
    }
    EXPECT_FALSE(victim.RestoreCheckpoint(mutated).ok());
  }
  // Four hundred bounced forgeries later, the pristine snapshot loads and
  // round-trips bit for bit.
  ASSERT_TRUE(victim.RestoreCheckpoint(blob).ok());
  Result<std::vector<uint8_t>> again = victim.SaveCheckpoint();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(blob, *again);
}

}  // namespace
}  // namespace incshrink
