#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/relational/growing_table.h"
#include "src/secret/shared_rows.h"

namespace incshrink {

/// \brief Snapshot serialization for secret-shared tables.
///
/// Servers must be able to persist and restore their halves of the secure
/// objects (outsourced stores, cache, materialized view) across restarts.
/// Each server serializes *only its own share array*; the wire format is
/// deliberately share-local so a serialized blob from one server reveals
/// nothing (it is a uniformly random word stream plus public dimensions).
///
/// Format (little-endian, through the one codec in src/common/bytes.h):
///   magic "ISR1" | u64 width | u64 rows | width*rows u32 words

/// Serializes one server's share of `rows` (`server` is 0 or 1).
std::vector<uint8_t> SerializeShares(const SharedRows& rows, int server);
/// The same blob, appended to `w` (a checkpoint writes it in place).
void AppendShareBlob(ByteWriter* w, const SharedRows& rows, int server);

/// Parses a share blob; returns (width, rows, words).
struct ShareBlob {
  uint64_t width = 0;
  uint64_t rows = 0;
  std::vector<Word> words;
};
Result<ShareBlob> ParseShareBlob(const std::vector<uint8_t>& bytes);

/// Reassembles a SharedRows from the two servers' blobs, read in place
/// (a checkpoint borrows them from its buffer). Fails unless both blobs
/// agree on dimensions.
Result<SharedRows> CombineShareBlobs(std::span<const uint8_t> server0,
                                     std::span<const uint8_t> server1);

// --- Owner upload frames (transport wire format) ---------------------------

/// \brief One owner upload step on the wire: the secret-shared batch plus
/// transport metadata, as carried by an UploadChannel (src/net/).
///
/// The in-process transport bundles both servers' share halves into one
/// frame (a real network deployment would split them onto two sockets; the
/// framing below keeps the halves in separable contiguous sections for
/// exactly that reason). The `arrivals` section is evaluation-only ground
/// truth — the plaintext records contained in the batch, used by the engine
/// to maintain q_t(D_t) for error metrics. Servers in a real deployment
/// would never receive it; it rides the frame so the simulated pipeline
/// stays a single stream.
///
/// Wire format v1 (little-endian, through src/common/bytes.h):
///   magic "IUF" | u8 version (1) | u64 owner_step | u64 width | u64 rows |
///   rows*width u32 share0 words | rows*width u32 share1 words |
///   u64 num_arrivals | per arrival: u64 step, u32 rid, key, date, payload
///
/// The version byte gates future evolution (compression, MACs, per-server
/// split frames) without breaking decoders.
struct UploadFrame {
  uint64_t owner_step = 0;      ///< owner logical clock at emission
  SharedRows batch{0};          ///< secret-shared, dummy-padded upload batch
  std::vector<LogicalRecord> arrivals;  ///< eval-only: this step's plaintext
};

/// Serializes a frame into its wire bytes.
std::vector<uint8_t> EncodeUploadFrame(const UploadFrame& frame);

/// The one IUF parser. Any truncation, bad magic, unknown version or
/// dimension mismatch returns an InvalidArgument Status — never crashes —
/// so a malformed peer cannot take the server down. With `out` set, the
/// frame is decoded into it (left unspecified on error); with `out` null,
/// the share and arrival sections are only bounds-checked and skipped, so
/// validation allocates nothing and returns exactly the Status decoding
/// would.
Status ParseUploadFrame(std::span<const uint8_t> bytes, UploadFrame* out);

/// Decodes wire bytes into a new frame (ParseUploadFrame with a
/// destination).
Result<UploadFrame> DecodeUploadFrame(const std::vector<uint8_t>& bytes);

}  // namespace incshrink
