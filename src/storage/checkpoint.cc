#include "src/storage/checkpoint.h"

#include <cassert>
#include <cstring>
#include <string>

#include "src/storage/serialization.h"

namespace incshrink {

namespace {

constexpr uint8_t kVersion = 3;
constexpr uint8_t kMagic[4] = {'I', 'C', 'K', 'P'};
constexpr size_t kHeaderSize = 5;   // "ICKP" + version byte
constexpr size_t kTrailerSize = 8;  // fnv1a64

}  // namespace

// --- CheckpointWriter -------------------------------------------------------

CheckpointWriter::CheckpointWriter() {
  w_.Raw(kMagic);
  w_.U8(kVersion);
}

void CheckpointWriter::BeginSection(uint32_t tag) {
  w_.U32(tag);
  open_sections_.push_back(w_.BeginLength());
}

void CheckpointWriter::EndSection() {
  assert(!open_sections_.empty() && "EndSection without BeginSection");
  w_.EndLength(open_sections_.back());
  open_sections_.pop_back();
}

void CheckpointWriter::WriteRng(const RngState& state) {
  for (uint64_t word : state.s) U64(word);
  U64(state.cached_normal_bits);
  U8(state.have_cached_normal ? 1 : 0);
}

void CheckpointWriter::WriteStats(const CircuitStats& stats) {
  U64(stats.and_gates);
  U64(stats.xor_gates);
  U64(stats.bytes);
  U64(stats.rounds);
}

void CheckpointWriter::WriteWordShares(const WordShares& shares) {
  U32(shares.s0);
  U32(shares.s1);
}

void CheckpointWriter::WriteRecord(const LogicalRecord& rec) {
  U64(rec.step);
  U32(rec.rid);
  U32(rec.key);
  U32(rec.date);
  U32(rec.payload);
}

void CheckpointWriter::WriteSharedRows(const SharedRows& rows) {
  for (const int server : {0, 1}) {
    const size_t len_at = w_.BeginLength();
    AppendShareBlob(&w_, rows, server);
    w_.EndLength(len_at);
  }
}

std::vector<uint8_t> CheckpointWriter::Finish() {
  assert(open_sections_.empty() && "Finish with open sections");
  w_.U64(Fnv1a64(w_.data(), w_.size()));
  return w_.Take();
}

// --- CheckpointReader -------------------------------------------------------

Result<CheckpointReader> CheckpointReader::Open(
    const std::vector<uint8_t>& bytes) {
  if (bytes.size() < kHeaderSize + kTrailerSize) {
    return Status::InvalidArgument(
        "snapshot too short to hold an ICKP header and checksum");
  }
  if (std::memcmp(bytes.data(), kMagic, 4) != 0) {
    return Status::InvalidArgument("bad snapshot magic (want \"ICKP\")");
  }
  if (bytes[4] != kVersion) {
    return Status::InvalidArgument("unsupported snapshot version");
  }
  const size_t body_end = bytes.size() - kTrailerSize;
  const uint64_t want = Fnv1a64(bytes.data(), body_end);
  const uint64_t got = LoadU64(bytes.data() + body_end);
  if (want != got) {
    return Status::InvalidArgument(
        "snapshot checksum mismatch (torn write or corruption)");
  }
  ByteReader r(bytes.data(), body_end);
  r.Take(kHeaderSize);
  return CheckpointReader(std::move(r));
}

void CheckpointReader::BeginSection(uint32_t tag) {
  const uint32_t got = U32();
  const uint64_t len = U64();
  if (got != tag) r_.Fail();
  r_.BeginScope(len);
}

void CheckpointReader::EndSection() {
  // Unread trailing bytes inside a section mean the blob was not produced
  // by this decoder's writer; reject rather than silently skipping.
  r_.EndScope();
}

RngState CheckpointReader::ReadRng() {
  RngState state;
  for (uint64_t& word : state.s) word = U64();
  state.cached_normal_bits = U64();
  const uint8_t flag = U8();
  if (flag > 1) r_.Fail();  // canonical bool encoding only
  state.have_cached_normal = flag == 1;
  return state;
}

CircuitStats CheckpointReader::ReadStats() {
  CircuitStats stats;
  stats.and_gates = U64();
  stats.xor_gates = U64();
  stats.bytes = U64();
  stats.rounds = U64();
  return stats;
}

WordShares CheckpointReader::ReadWordShares() {
  WordShares shares;
  shares.s0 = U32();
  shares.s1 = U32();
  return shares;
}

LogicalRecord CheckpointReader::ReadRecord() {
  LogicalRecord rec;
  rec.step = U64();
  rec.rid = U32();
  rec.key = U32();
  rec.date = U32();
  rec.payload = U32();
  return rec;
}

Result<SharedRows> CheckpointReader::ReadSharedRows() {
  const std::span<const uint8_t> blob0 = r_.Bytes();
  const std::span<const uint8_t> blob1 = r_.Bytes();
  INCSHRINK_RETURN_NOT_OK(ExpectOk("snapshot share blobs"));
  // CombineShareBlobs re-validates dimensions, overflow and trailing bytes —
  // the same hardened path hostile upload frames go through — reading each
  // blob in place.
  return CombineShareBlobs(blob0, blob1);
}

Status CheckpointReader::ExpectOk(const char* what) const {
  if (r_.ok()) return Status::OK();
  return Status::InvalidArgument(std::string("malformed snapshot: ") + what);
}

Status CheckpointReader::Finish() const {
  if (!r_.ok()) return Status::InvalidArgument("malformed snapshot");
  if (r_.open_scopes() != 0) {
    return Status::InvalidArgument("snapshot decoder left a section open");
  }
  if (r_.remaining() != 0) {
    return Status::InvalidArgument("snapshot carries trailing bytes");
  }
  return Status::OK();
}

}  // namespace incshrink
