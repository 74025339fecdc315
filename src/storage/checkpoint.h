#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/mpc/cost_model.h"
#include "src/relational/growing_table.h"
#include "src/secret/share.h"
#include "src/secret/shared_rows.h"

namespace incshrink {

/// \brief ICKP v3: the versioned, bounds-checked snapshot container.
///
/// Every resumable object in the system (engines, owner clients, fleet
/// tenants) serializes into this format, through the same byte codec as the
/// IUF upload frames (src/common/bytes.h): a magic + version header, a flat
/// sequence of tagged length-prefixed sections, reads that can never step
/// outside their section, allocation guards that compare every element count
/// against the bytes actually remaining before reserving, and a trailing
/// FNV-1a64 checksum over everything that precedes it. A torn write (any
/// strict prefix), a bit flip anywhere, or a hostile dimension header is
/// rejected with a Status — the decoder never loads a partial state and never
/// exhibits UB. Version 2 stored only the retained window of each
/// outsourced store (src/core/engine.cc); version 3 stores the ground-truth
/// counter as its count plus per-step sorted {key, date} runs
/// (src/relational/query.h). Older blobs are rejected as an unsupported
/// version.
///
/// Layout (little-endian):
///   magic "ICKP" | u8 version (3) |
///   sections: (u32 tag | u64 len | len payload bytes)* |
///   u64 fnv1a64 over all preceding bytes
///
/// Leakage contract: a snapshot may contain only public state — logical
/// clocks, ledgers, RNG cursors (functions of public seeds), and share
/// arrays. Share arrays are serialized exclusively through the ISR1
/// share-blob path (WriteSharedRows), which keeps the two servers' halves in
/// separable contiguous sections; each half alone is a uniformly random word
/// stream. The oblivious-leakage linter treats every CheckpointWriter field
/// write as a sink (tools/lint/secret_api.toml), so recovered secrets cannot
/// silently reach a snapshot.

/// Builds a section tag from four printable characters.
constexpr uint32_t CheckpointTag(char a, char b, char c, char d) {
  const uint8_t bytes[4] = {static_cast<uint8_t>(a), static_cast<uint8_t>(b),
                            static_cast<uint8_t>(c), static_cast<uint8_t>(d)};
  return LoadU32(bytes);
}

/// \brief Appends typed fields into an ICKP v3 byte stream: a ByteWriter
/// plus section framing.
///
/// Usage: BeginSection(tag) ... field writes ... EndSection(), repeated, then
/// Finish() stamps the checksum and yields the blob. Sections may nest; the
/// writer back-patches each section's length when it closes.
class CheckpointWriter {
 public:
  CheckpointWriter();

  void BeginSection(uint32_t tag);
  void EndSection();

  void U8(uint8_t v) { w_.U8(v); }
  void U32(uint32_t v) { w_.U32(v); }
  void U64(uint64_t v) { w_.U64(v); }
  /// Doubles travel as raw IEEE-754 bit patterns so restore is bit-exact.
  void F64(double v) { w_.F64(v); }
  /// Length-prefixed opaque byte string.
  void Bytes(const std::vector<uint8_t>& bytes) { w_.Bytes(bytes); }

  /// Composite helpers, paired with the CheckpointReader equivalents.
  void WriteRng(const RngState& state);
  void WriteStats(const CircuitStats& stats);
  void WriteWordShares(const WordShares& shares);
  /// Plaintext evaluation-only record (owner queues).
  void WriteRecord(const LogicalRecord& rec);
  /// Secret-shared tables go through the ISR1 share-blob path only: two
  /// length-prefixed per-server blobs, written in place, halves never
  /// interleaved.
  void WriteSharedRows(const SharedRows& rows);

  /// Closes the container: all sections must be ended. Returns the final
  /// blob (header + sections + checksum) and leaves the writer empty.
  std::vector<uint8_t> Finish();

 private:
  ByteWriter w_;
  std::vector<size_t> open_sections_;  // offsets of length fields to patch
};

/// \brief Bounds-checked reader over an ICKP v3 byte stream: a ByteReader
/// whose scopes are the sections.
///
/// Open() validates magic, version, minimum size and the checksum trailer up
/// front, so by the time field reads happen the bytes are known to be exactly
/// what some writer produced (or an adversarial forgery, which the structural
/// checks below still contain). Field accessors follow the ByteReader
/// ok-flag idiom: a read that would cross the current section boundary (or
/// the end of the body) flips `ok()` and returns a zero value instead of
/// over-reading. Callers check `ExpectOk()` at section granularity and
/// `Finish()` at the end, which also demands every byte was consumed.
///
/// The reader borrows the byte buffer; it must outlive the reader.
class CheckpointReader {
 public:
  /// Validates the container framing. Returns InvalidArgument on any
  /// truncation, bad magic, unknown version, or checksum mismatch.
  static Result<CheckpointReader> Open(const std::vector<uint8_t>& bytes);

  /// Enters the next section, which must carry `tag`; flips ok() otherwise.
  void BeginSection(uint32_t tag);
  /// Leaves the current section; flips ok() if bytes remain unread in it.
  void EndSection();

  uint8_t U8() { return r_.U8(); }
  uint32_t U32() { return r_.U32(); }
  uint64_t U64() { return r_.U64(); }
  double F64() { return r_.F64(); }
  /// Length-prefixed byte string. The length is checked against the bytes
  /// actually remaining in scope before any allocation happens, so a hostile
  /// length cannot trigger an allocation bomb.
  std::vector<uint8_t> Bytes() {
    const std::span<const uint8_t> bytes = r_.Bytes();
    return {bytes.begin(), bytes.end()};
  }

  RngState ReadRng();
  CircuitStats ReadStats();
  WordShares ReadWordShares();
  LogicalRecord ReadRecord();
  Result<SharedRows> ReadSharedRows();

  bool ok() const { return r_.ok(); }
  /// InvalidArgument naming `what` if any prior read failed, OK otherwise.
  Status ExpectOk(const char* what) const;
  /// Terminal check: ok, no open sections, every body byte consumed.
  Status Finish() const;

 private:
  explicit CheckpointReader(ByteReader r) : r_(std::move(r)) {}

  ByteReader r_;
};

}  // namespace incshrink
