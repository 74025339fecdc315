#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/result.h"

namespace incshrink {

/// \brief Wire envelope of the socket transport (src/net/socket_transport.h).
///
/// A connection carries one owner→server upload stream:
///
///   hello   : magic "IUH1" | u32 channel_id            (once, at connect)
///   frame   : u32 payload_len | u64 seq | payload[payload_len]
///
/// all little-endian, through the one codec in src/common/bytes.h. `payload`
/// is an opaque IUF upload frame (storage/serialization.h) — this layer
/// never interprets it. `seq` starts
/// at 1 and increments by exactly 1 per frame on a connection, so the
/// receiver detects dropped, reordered, duplicated or injected frames at the
/// transport level before the payload decoder ever runs; the engine's
/// deterministic drain order is derived from these public stamps and queue
/// depths only, never from arrival timing.
///
/// Everything here is pure byte shuffling: no randomness, no clock, no
/// syscalls (the pattern rules in tools/lint/secret_api.toml statically
/// enforce that for all of src/net/), so hostile-input behavior is
/// exhaustively testable without a socket in sight.

/// Size of the connection hello ("IUH1" + u32 channel id).
inline constexpr size_t kHelloBytes = 8;
/// Size of the per-frame envelope header (u32 length + u64 sequence stamp).
inline constexpr size_t kEnvelopeBytes = 12;

/// Encodes the connection hello for `channel_id`.
std::vector<uint8_t> EncodeHello(uint32_t channel_id);

/// Appends the envelope header + payload for sequence stamp `seq` to *out.
/// `payload` must be non-empty (a zero-length payload is not expressible on
/// the wire; the smallest legal payload is a zero-row IUF frame).
void AppendEnvelope(std::vector<uint8_t>* out, uint64_t seq,
                    const std::vector<uint8_t>& payload);

/// One complete frame extracted from a connection's byte stream.
struct WireFrame {
  uint64_t seq = 0;
  std::vector<uint8_t> payload;
};

/// \brief Incremental, bounds-checked parser over one connection's inbound
/// byte stream: feed raw bytes as they arrive, take hellos/frames out as
/// they complete.
///
/// The assembler enforces the transport-level hardening rules itself —
/// payload lengths in (0, max_frame_bytes], sequence stamps strictly
/// consecutive from 1 — and poisons the stream (every later call returns the
/// same Status) on the first violation, because a framing error leaves no
/// way to resynchronize a length-prefixed stream.
class FrameAssembler {
 public:
  explicit FrameAssembler(uint32_t max_frame_bytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends `n` raw bytes from the connection.
  void Feed(const uint8_t* data, size_t n);

  /// Extracts the hello. Returns true and sets *channel_id once kHelloBytes
  /// have arrived; false while bytes are still missing; a Status forever
  /// after a bad magic.
  Result<bool> TakeHello(uint32_t* channel_id);

  /// Extracts the next complete frame into *out. Returns true when a frame
  /// was extracted, false when more bytes are needed, a Status forever after
  /// a malformed envelope (oversized/zero length, sequence break).
  Result<bool> TakeFrame(WireFrame* out);

  /// Bytes buffered but not yet consumed by TakeHello/TakeFrame.
  size_t buffered_bytes() const { return buf_.size() - pos_; }
  /// Sequence stamp of the last extracted frame (0 before the first).
  uint64_t last_seq() const { return next_seq_ - 1; }
  bool poisoned() const { return !poison_.ok(); }

 private:
  /// Drops consumed bytes once they dominate the buffer (amortized O(1)).
  void Compact();

  uint32_t max_frame_bytes_;
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
  uint64_t next_seq_ = 1;
  Status poison_ = Status::OK();
};

}  // namespace incshrink
