#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

namespace incshrink {

/// \brief The one little-endian byte codec under every wire and at-rest
/// format: ISR1 share blobs and IUF upload frames (storage/serialization.h),
/// the IUH1 socket envelope (net/frame_codec.h), ICKP snapshots
/// (storage/checkpoint.h) and the config fingerprint (core/config.h).
///
/// Pure byte shuffling: no randomness, no clock, no syscalls
/// (tools/check_no_hidden_entropy.sh enforces that here as for src/net/),
/// because hostile upload frames are decoded through it.

/// FNV-1a 64-bit over `size` bytes, continuing from `h` (pass the offset
/// basis for a fresh hash). Each absorbed byte applies a bijection to the
/// hash state, so any single-byte corruption is detected deterministically.
inline constexpr uint64_t kFnvOffsetBasis64 = 0xCBF29CE484222325ull;
inline constexpr uint64_t kFnvPrime64 = 0x100000001B3ull;
uint64_t Fnv1a64(const uint8_t* data, size_t size,
                 uint64_t h = kFnvOffsetBasis64);

// The library's only little-endian loads and stores.
constexpr uint32_t LoadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

constexpr uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

constexpr void StoreU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

constexpr void StoreU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

/// Outcome of checking a hostile `width` x `rows` matrix header.
enum class MatrixFit { kOk, kZeroWidth, kOverflow, kTooLarge };

/// Checks a `width` x `rows` matrix of `cell_bytes`-byte cells against the
/// `available` bytes before anything is allocated: a zero width must not
/// carry rows, width * rows must not wrap (width = rows = 2^32 would wrap to
/// 0), and the cells must fit. On kOk, *cells = width * rows. A zero-row
/// header passes with any width, so decoders must never allocate per-row
/// scratch of `width` words.
MatrixFit CheckMatrixFit(uint64_t width, uint64_t rows, size_t cell_bytes,
                         size_t available, uint64_t* cells);

/// \brief Appends little-endian fields to an owned byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Continues appending after the bytes already in `bytes`.
  explicit ByteWriter(std::vector<uint8_t> bytes) : buf_(std::move(bytes)) {}

  /// Capacity for `n` more bytes.
  void Reserve(size_t n) { buf_.reserve(buf_.size() + n); }

  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) { StoreU32(Grow(4), v); }
  void U64(uint64_t v) { StoreU64(Grow(8), v); }
  /// Doubles travel as raw IEEE-754 bit patterns so decoding is bit-exact.
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  /// Unprefixed bytes (magics, opaque payloads).
  void Raw(std::span<const uint8_t> bytes) {
    if (!bytes.empty()) {
      std::memcpy(Grow(bytes.size()), bytes.data(), bytes.size());
    }
  }
  /// u64 length prefix, then the bytes.
  void Bytes(std::span<const uint8_t> bytes) {
    U64(bytes.size());
    Raw(bytes);
  }
  /// `n` u32 words back to back.
  void U32Block(const uint32_t* words, size_t n) {
    uint8_t* p = Grow(n * 4);
    for (size_t i = 0; i < n; ++i) StoreU32(p + 4 * i, words[i]);
  }

  /// Reserves a u64 length field and returns its offset; EndLength(at)
  /// back-patches it with the number of bytes written after it.
  size_t BeginLength() {
    const size_t at = buf_.size();
    U64(0);
    return at;
  }
  void EndLength(size_t at) {
    StoreU64(buf_.data() + at, buf_.size() - (at + 8));
  }

  size_t size() const { return buf_.size(); }
  const uint8_t* data() const { return buf_.data(); }
  /// Yields the buffer and leaves the writer empty.
  std::vector<uint8_t> Take() {
    std::vector<uint8_t> out;
    out.swap(buf_);
    return out;
  }

 private:
  uint8_t* Grow(size_t n) {
    const size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  std::vector<uint8_t> buf_;
};

/// \brief Bounds-checked little-endian reader over a borrowed buffer, which
/// must outlive it.
///
/// A read that would cross the end of the innermost open scope (or of the
/// buffer) flips the sticky ok-flag and returns a zero value instead of
/// over-reading; callers check `ok()` once per record or section. Scopes
/// nest and can never extend past their parent, and every length or count
/// is compared against the bytes remaining before anything is allocated.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), end_(size) {}
  explicit ByteReader(std::span<const uint8_t> bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  bool ok() const { return ok_; }
  void Fail() { ok_ = false; }
  /// Bytes left before the end of the innermost scope.
  size_t remaining() const { return Limit() - pos_; }
  size_t open_scopes() const { return ends_.size(); }

  /// Borrows the next `n` bytes; nullptr (and !ok) if fewer remain.
  const uint8_t* Take(size_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return nullptr;
    }
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  uint8_t U8() {
    const uint8_t* p = Take(1);
    return p ? *p : 0;
  }
  uint32_t U32() {
    const uint8_t* p = Take(4);
    return p ? LoadU32(p) : 0;
  }
  uint64_t U64() {
    const uint8_t* p = Take(8);
    return p ? LoadU64(p) : 0;
  }
  double F64() { return std::bit_cast<double>(U64()); }
  /// A u64-length-prefixed byte string, borrowed from the buffer (empty and
  /// !ok if the length exceeds the bytes in scope).
  std::span<const uint8_t> Bytes();
  /// Reads `n` u32 words into `out` with one bounds check for the block.
  void U32Block(uint32_t* out, size_t n);

  /// True if `count` elements of at least `min_bytes` each can still fit in
  /// scope; flips ok() otherwise.
  bool Fits(uint64_t count, size_t min_bytes);

  /// Narrows reads to the next `len` bytes (flips ok() if they do not fit).
  void BeginScope(uint64_t len);
  /// Leaves the innermost scope; flips ok() unless it was fully consumed.
  void EndScope();

 private:
  size_t Limit() const { return ends_.empty() ? end_ : ends_.back(); }

  const uint8_t* data_;
  size_t end_;
  size_t pos_ = 0;
  std::vector<size_t> ends_;  // enclosing scope end offsets
  bool ok_ = true;
};

}  // namespace incshrink
