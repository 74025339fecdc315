#include "src/storage/serialization.h"

#include <cstring>
#include <utility>

#include "src/common/logging.h"

namespace incshrink {

namespace {

constexpr uint8_t kMagic[4] = {'I', 'S', 'R', '1'};
constexpr size_t kBlobHeaderBytes = 20;

/// Parses one ISR1 blob spanning all of `bytes`.
Result<ShareBlob> ParseBlob(std::span<const uint8_t> bytes) {
  if (bytes.size() < kBlobHeaderBytes) {
    return Status::InvalidArgument("blob too short");
  }
  ByteReader r(bytes);
  if (std::memcmp(r.Take(4), kMagic, 4) != 0) {
    return Status::InvalidArgument("bad magic");
  }
  ShareBlob blob;
  blob.width = r.U64();
  blob.rows = r.U64();
  // The payload must hold exactly width*rows words.
  uint64_t words = 0;
  switch (CheckMatrixFit(blob.width, blob.rows, 4, r.remaining(), &words)) {
    case MatrixFit::kZeroWidth:
      return Status::InvalidArgument("blob dimensions invalid");
    case MatrixFit::kOverflow:
      return Status::InvalidArgument("blob dimensions overflow");
    case MatrixFit::kTooLarge:
      return Status::InvalidArgument("blob size does not match dimensions");
    case MatrixFit::kOk:
      break;
  }
  if (r.remaining() != words * 4) {
    return Status::InvalidArgument("blob size does not match dimensions");
  }
  blob.words.resize(words);
  r.U32Block(blob.words.data(), words);
  return blob;
}

}  // namespace

void AppendShareBlob(ByteWriter* w, const SharedRows& rows, int server) {
  // Only servers 0 and 1 exist; silently mapping any other value onto
  // server 1's shares would hand a caller the wrong half of the secret.
  INCSHRINK_CHECK(server == 0 || server == 1);
  const std::vector<Word>& words =
      server == 0 ? rows.shares0() : rows.shares1();
  w->Reserve(kBlobHeaderBytes + words.size() * 4);
  w->Raw(kMagic);
  w->U64(rows.width());
  w->U64(rows.size());
  w->U32Block(words.data(), words.size());
}

std::vector<uint8_t> SerializeShares(const SharedRows& rows, int server) {
  ByteWriter w;
  AppendShareBlob(&w, rows, server);
  return w.Take();
}

Result<ShareBlob> ParseShareBlob(const std::vector<uint8_t>& bytes) {
  return ParseBlob(bytes);
}

Result<SharedRows> CombineShareBlobs(std::span<const uint8_t> server0,
                                     std::span<const uint8_t> server1) {
  INCSHRINK_ASSIGN_OR_RETURN(ShareBlob b0, ParseBlob(server0));
  INCSHRINK_ASSIGN_OR_RETURN(ShareBlob b1, ParseBlob(server1));
  if (b0.width != b1.width || b0.rows != b1.rows) {
    return Status::InvalidArgument("share blobs disagree on dimensions");
  }
  return SharedRows(b0.width, std::move(b0.words), std::move(b1.words));
}

namespace {

constexpr uint8_t kFrameMagic[3] = {'I', 'U', 'F'};
constexpr uint8_t kFrameVersion = 1;
/// u64 step + u32 rid, key, date, payload.
constexpr size_t kArrivalBytes = 24;

}  // namespace

std::vector<uint8_t> EncodeUploadFrame(const UploadFrame& frame) {
  const SharedRows& batch = frame.batch;
  ByteWriter w;
  w.Reserve(36 + batch.size() * batch.width() * 8 +
            frame.arrivals.size() * kArrivalBytes);
  w.Raw(kFrameMagic);
  w.U8(kFrameVersion);
  w.U64(frame.owner_step);
  w.U64(batch.width());
  w.U64(batch.size());
  w.U32Block(batch.shares0().data(), batch.shares0().size());
  w.U32Block(batch.shares1().data(), batch.shares1().size());
  w.U64(frame.arrivals.size());
  for (const LogicalRecord& rec : frame.arrivals) {
    w.U64(rec.step);
    w.U32(rec.rid);
    w.U32(rec.key);
    w.U32(rec.date);
    w.U32(rec.payload);
  }
  return w.Take();
}

Status ParseUploadFrame(std::span<const uint8_t> bytes, UploadFrame* out) {
  if (bytes.size() < 4) return Status::InvalidArgument("frame too short");
  if (std::memcmp(bytes.data(), kFrameMagic, 3) != 0) {
    return Status::InvalidArgument("bad frame magic");
  }
  if (bytes[3] != kFrameVersion) {
    return Status::InvalidArgument("unsupported frame version");
  }
  ByteReader r(bytes);
  r.Take(4);
  const uint64_t owner_step = r.U64();
  const uint64_t width = r.U64();
  const uint64_t rows = r.U64();
  if (!r.ok()) return Status::InvalidArgument("truncated frame header");
  // Both share halves must fit before anything is allocated (a hostile
  // header must not OOM the server).
  uint64_t words = 0;
  switch (CheckMatrixFit(width, rows, 8, r.remaining(), &words)) {
    case MatrixFit::kZeroWidth:
      return Status::InvalidArgument("frame dimensions invalid");
    case MatrixFit::kOverflow:
      return Status::InvalidArgument("frame dimensions overflow");
    case MatrixFit::kTooLarge:
      return Status::InvalidArgument("truncated frame share section");
    case MatrixFit::kOk:
      break;
  }
  if (out != nullptr) {
    out->owner_step = owner_step;
    std::vector<Word> share0(words);
    std::vector<Word> share1(words);
    r.U32Block(share0.data(), words);
    r.U32Block(share1.data(), words);
    out->batch = SharedRows(width, std::move(share0), std::move(share1));
  } else {
    r.Take(words * 8);
  }
  const uint64_t num_arrivals = r.U64();
  if (!r.ok() || !r.Fits(num_arrivals, kArrivalBytes)) {
    return Status::InvalidArgument("truncated frame arrival section");
  }
  if (out != nullptr) {
    out->arrivals.resize(num_arrivals);
    for (LogicalRecord& rec : out->arrivals) {
      rec.step = r.U64();
      rec.rid = r.U32();
      rec.key = r.U32();
      rec.date = r.U32();
      rec.payload = r.U32();
    }
  } else {
    r.Take(num_arrivals * kArrivalBytes);
  }
  if (!r.ok()) return Status::InvalidArgument("truncated frame");
  if (r.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes after frame");
  }
  return Status::OK();
}

Result<UploadFrame> DecodeUploadFrame(const std::vector<uint8_t>& bytes) {
  UploadFrame frame;
  INCSHRINK_RETURN_NOT_OK(ParseUploadFrame(bytes, &frame));
  return frame;
}

}  // namespace incshrink
