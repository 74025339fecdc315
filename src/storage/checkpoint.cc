#include "src/storage/checkpoint.h"

#include <cassert>
#include <cstring>

#include "src/storage/serialization.h"

namespace incshrink {

namespace {

constexpr uint8_t kVersion = 3;
constexpr char kMagic[4] = {'I', 'C', 'K', 'P'};

void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back((v >> (8 * i)) & 0xFF);
}

void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back((v >> (8 * i)) & 0xFF);
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

uint64_t Fnv1a64(const uint8_t* data, size_t size, uint64_t h) {
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= kFnvPrime64;
  }
  return h;
}

// --- CheckpointWriter -------------------------------------------------------

CheckpointWriter::CheckpointWriter() {
  buf_.assign(kMagic, kMagic + 4);
  buf_.push_back(kVersion);
}

void CheckpointWriter::BeginSection(uint32_t tag) {
  AppendU32(&buf_, tag);
  open_sections_.push_back(buf_.size());
  AppendU64(&buf_, 0);  // patched by EndSection
}

void CheckpointWriter::EndSection() {
  assert(!open_sections_.empty() && "EndSection without BeginSection");
  const size_t len_at = open_sections_.back();
  open_sections_.pop_back();
  const uint64_t len = buf_.size() - (len_at + 8);
  for (int i = 0; i < 8; ++i) buf_[len_at + i] = (len >> (8 * i)) & 0xFF;
}

void CheckpointWriter::U8(uint8_t v) { buf_.push_back(v); }
void CheckpointWriter::U32(uint32_t v) { AppendU32(&buf_, v); }
void CheckpointWriter::U64(uint64_t v) { AppendU64(&buf_, v); }

void CheckpointWriter::F64(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(&buf_, bits);
}

void CheckpointWriter::Bytes(const std::vector<uint8_t>& bytes) {
  AppendU64(&buf_, bytes.size());
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void CheckpointWriter::WriteRng(const RngState& state) {
  for (uint64_t word : state.s) AppendU64(&buf_, word);
  AppendU64(&buf_, state.cached_normal_bits);
  U8(state.have_cached_normal ? 1 : 0);
}

void CheckpointWriter::WriteStats(const CircuitStats& stats) {
  AppendU64(&buf_, stats.and_gates);
  AppendU64(&buf_, stats.xor_gates);
  AppendU64(&buf_, stats.bytes);
  AppendU64(&buf_, stats.rounds);
}

void CheckpointWriter::WriteWordShares(const WordShares& shares) {
  AppendU32(&buf_, shares.s0);
  AppendU32(&buf_, shares.s1);
}

void CheckpointWriter::WriteRecord(const LogicalRecord& rec) {
  AppendU64(&buf_, rec.step);
  AppendU32(&buf_, rec.rid);
  AppendU32(&buf_, rec.key);
  AppendU32(&buf_, rec.date);
  AppendU32(&buf_, rec.payload);
}

void CheckpointWriter::WriteSharedRows(const SharedRows& rows) {
  Bytes(SerializeShares(rows, 0));
  Bytes(SerializeShares(rows, 1));
}

std::vector<uint8_t> CheckpointWriter::Finish() {
  assert(open_sections_.empty() && "Finish with open sections");
  const uint64_t checksum = Fnv1a64(buf_.data(), buf_.size());
  AppendU64(&buf_, checksum);
  std::vector<uint8_t> out;
  out.swap(buf_);
  return out;
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
  return CheckpointReader(bytes.data(), body_end);
}

void CheckpointReader::BeginSection(uint32_t tag) {
  const uint32_t got = U32();
  const uint64_t len = U64();
  if (!ok_) return;
  if (got != tag || len > Limit() - pos_) {
    ok_ = false;
    return;
  }
  ends_.push_back(pos_ + static_cast<size_t>(len));
}

void CheckpointReader::EndSection() {
  if (!ok_) return;
  if (ends_.empty() || pos_ != ends_.back()) {
    // Unread trailing bytes inside a section mean the blob was not produced
    // by this decoder's writer; reject rather than silently skipping.
    ok_ = false;
    return;
  }
  ends_.pop_back();
}

uint8_t CheckpointReader::U8() {
  if (!Take(1)) return 0;
  return data_[pos_++];
}

uint32_t CheckpointReader::U32() {
  if (!Take(4)) return 0;
  const uint32_t v = LoadU32(data_ + pos_);
  pos_ += 4;
  return v;
}

uint64_t CheckpointReader::U64() {
  if (!Take(8)) return 0;
  const uint64_t v = LoadU64(data_ + pos_);
  pos_ += 8;
  return v;
}

double CheckpointReader::F64() {
  const uint64_t bits = U64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::vector<uint8_t> CheckpointReader::Bytes() {
  const uint64_t len = U64();
  // The length is bounded by the bytes actually present in scope before any
  // allocation, so a hostile header cannot request an astronomic buffer.
  if (!ok_ || len > Limit() - pos_) {
    ok_ = false;
    return {};
  }
  std::vector<uint8_t> out(data_ + pos_, data_ + pos_ + len);
  pos_ += static_cast<size_t>(len);
  return out;
}

RngState CheckpointReader::ReadRng() {
  RngState state;
  for (uint64_t& word : state.s) word = U64();
  state.cached_normal_bits = U64();
  const uint8_t flag = U8();
  if (flag > 1) ok_ = false;  // canonical bool encoding only
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
  const std::vector<uint8_t> blob0 = Bytes();
  const std::vector<uint8_t> blob1 = Bytes();
  INCSHRINK_RETURN_NOT_OK(ExpectOk("snapshot share blobs"));
  // CombineShareBlobs re-validates dimensions, overflow and trailing bytes —
  // the same hardened path hostile upload frames go through.
  return CombineShareBlobs(blob0, blob1);
}

Status CheckpointReader::ExpectOk(const char* what) const {
  if (ok_) return Status::OK();
  return Status::InvalidArgument(std::string("malformed snapshot: ") + what);
}

Status CheckpointReader::Finish() const {
  if (!ok_) return Status::InvalidArgument("malformed snapshot");
  if (!ends_.empty()) {
    return Status::InvalidArgument("snapshot decoder left a section open");
  }
  if (pos_ != body_end_) {
    return Status::InvalidArgument("snapshot carries trailing bytes");
  }
  return Status::OK();
}

}  // namespace incshrink
