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

void CheckpointWriter::BeginContainer() {
  open_containers_.push_back(w_.BeginLength());
  w_.Raw(kMagic);
  w_.U8(kVersion);
}

size_t CheckpointWriter::EndContainer() {
  assert(!open_containers_.empty() && "EndContainer without BeginContainer");
  const size_t at = open_containers_.back();
  assert((open_sections_.empty() || open_sections_.back() < at) &&
         "EndContainer with sections open inside it");
  open_containers_.pop_back();
  const size_t start = at + 8;
  w_.U64(Fnv1a64(w_.data() + start, w_.size() - start));
  w_.EndLength(at);
  return w_.size() - start;
}

void CheckpointWriter::Rows(const SharedRows& rows) {
  for (const int server : {0, 1}) {
    const size_t len_at = w_.BeginLength();
    AppendShareBlob(&w_, rows, server);
    w_.EndLength(len_at);
  }
}

std::vector<uint8_t> CheckpointWriter::Finish() {
  assert(open_sections_.empty() && open_containers_.empty() &&
         "Finish with open sections");
  w_.U64(Fnv1a64(w_.data(), w_.size()));
  return w_.Take();
}

// --- CheckpointReader -------------------------------------------------------

Result<CheckpointReader> CheckpointReader::Open(
    std::span<const uint8_t> bytes) {
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
  const uint32_t got = r_.U32();
  const uint64_t len = r_.U64();
  if (got != tag) r_.Fail();
  r_.BeginScope(len);
}

void CheckpointReader::EndSection() {
  // Unread trailing bytes inside a section mean the blob was not produced
  // by this decoder's writer; reject rather than silently skipping.
  r_.EndScope();
}

void CheckpointReader::Rows(SharedRows& rows) {
  const std::span<const uint8_t> blob0 = r_.Bytes();
  const std::span<const uint8_t> blob1 = r_.Bytes();
  Expect("snapshot share blobs");
  if (!ok()) return;
  // CombineShareBlobs re-validates dimensions, overflow and trailing bytes —
  // the same hardened path hostile upload frames go through — reading each
  // blob in place.
  Result<SharedRows> combined = CombineShareBlobs(blob0, blob1);
  if (!combined.ok()) {
    Reject(combined.status());
    return;
  }
  rows = std::move(combined).value();
}

void CheckpointReader::Expect(const char* what) {
  if (!ok()) Reject(ExpectOk(what));
}

void CheckpointReader::Reject(Status st) {
  if (rejected_.ok()) rejected_ = std::move(st);
  r_.Fail();
}

Status CheckpointReader::ExpectOk(const char* what) const {
  if (!rejected_.ok()) return rejected_;
  if (r_.ok()) return Status::OK();
  return Status::InvalidArgument(std::string("malformed snapshot: ") + what);
}

Status CheckpointReader::Finish() const {
  if (!rejected_.ok()) return rejected_;
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
