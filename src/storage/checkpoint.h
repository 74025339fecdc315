#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
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
/// Two archives, one field order: CheckpointWriter and CheckpointReader
/// take the same field calls, `const T&` (or a value) when writing and `T&`
/// when reading — FieldRef<A, T> names that parameter for archive A. Each
/// stateful type writes its field order once, as a function template
/// `Visit(A& a, FieldRef<A, T> value)` instantiated for both: saving visits
/// the live object by const reference, copying no share array, frame or
/// run; restoring visits a scratch object, which the caller commits by
/// moves once the whole container has validated. The restore-only checks
/// sit in the same template where the decoder reaches them; the writer
/// compiles them to nothing.
///
/// Leakage contract: a snapshot may contain only public state — logical
/// clocks, ledgers, RNG cursors (functions of public seeds), and share
/// arrays. Share arrays are serialized exclusively through the ISR1
/// share-blob path (Visit on a SharedRows), which keeps the two servers'
/// halves in separable contiguous sections; each half alone is a uniformly
/// random word stream. The oblivious-leakage linter treats every
/// U8/U32/U64/F64/Bytes field call as a sink (tools/lint/secret_api.toml),
/// so recovered secrets cannot silently reach a snapshot.

/// Builds a section tag from four printable characters.
constexpr uint32_t CheckpointTag(char a, char b, char c, char d) {
  const uint8_t bytes[4] = {static_cast<uint8_t>(a), static_cast<uint8_t>(b),
                            static_cast<uint8_t>(c), static_cast<uint8_t>(d)};
  return LoadU32(bytes);
}

/// The field parameter of archive `A`: `const T&` for a CheckpointWriter,
/// `T&` for a CheckpointReader.
template <class A, class T>
using FieldRef = std::conditional_t<A::kRestoring, T&, const T&>;

/// \brief Appends typed fields into an ICKP v3 byte stream: a ByteWriter
/// plus section framing.
///
/// Usage: construct, then BeginSection(tag), Visit(w, value) or field calls,
/// EndSection(), repeated; Finish() stamps the checksum and yields the
/// blob. Sections may nest; the writer back-patches each section's length
/// when it closes. The restore-side checks (ok/Fail/Expect/Check/Reject)
/// do nothing here.
class CheckpointWriter {
 public:
  static constexpr bool kRestoring = false;

  CheckpointWriter();

  void BeginSection(uint32_t tag);
  void EndSection();

  /// Opens a container nested as a byte string of the current section,
  /// written in place: the same bytes as Bytes() of it built alone.
  void BeginContainer();
  /// Closes the innermost nested container; returns its size in bytes.
  size_t EndContainer();

  void U8(uint8_t v) { w_.U8(v); }
  /// A bool as its canonical byte, which is returned.
  uint8_t U8(bool v) {
    w_.U8(v ? 1 : 0);
    return v ? 1 : 0;
  }
  void U32(uint32_t v) { w_.U32(v); }
  void U64(uint64_t v) { w_.U64(v); }
  /// Doubles travel as raw IEEE-754 bit patterns so restore is bit-exact.
  void F64(double v) { w_.F64(v); }
  /// Length-prefixed opaque byte string.
  void Bytes(const std::vector<uint8_t>& bytes) { w_.Bytes(bytes); }
  /// Secret-shared tables go through the ISR1 share-blob path only: two
  /// length-prefixed per-server blobs, written in place, halves never
  /// interleaved.
  void Rows(const SharedRows& rows);

  bool ok() const { return true; }
  void Fail() {}
  void Expect(const char*) {}
  void Check(bool, const char*) {}
  void Reject(const Status&) {}

  /// Closes the container: all sections must be ended. Returns the final
  /// blob (header + sections + checksum) and leaves the writer empty.
  std::vector<uint8_t> Finish();

 private:
  ByteWriter w_;
  std::vector<size_t> open_sections_;    // offsets of length fields to patch
  std::vector<size_t> open_containers_;  // same, for nested containers
};

/// \brief Bounds-checked reader over an ICKP v3 byte stream: a ByteReader
/// whose scopes are the sections.
///
/// Usage: Open(bytes), then the same calls as the writer — Visit(r, scratch)
/// inside BeginSection/EndSection — then Finish(). Open() validates magic,
/// version, minimum size and the checksum trailer up front, so field reads
/// see exactly what some writer produced (or an adversarial forgery, which
/// the structural checks still contain). A read that would cross the
/// current section boundary flips `ok()` and yields zero instead of
/// over-reading. The reader keeps the first rejection it records; after it
/// every read yields zero and every count-prefixed loop stops, so a visit
/// runs to its end harmlessly and Finish() reports that first Status, code
/// and message, as an early return at that point would.
///
/// The reader borrows the byte buffer; it must outlive the reader.
class CheckpointReader {
 public:
  static constexpr bool kRestoring = true;

  /// Validates the container framing, in place. Returns InvalidArgument on
  /// any truncation, bad magic, unknown version, or checksum mismatch.
  static Result<CheckpointReader> Open(std::span<const uint8_t> bytes);

  /// Enters the next section, which must carry `tag`; flips ok() otherwise.
  void BeginSection(uint32_t tag);
  /// Leaves the current section; flips ok() if bytes remain unread in it.
  void EndSection();

  uint64_t U64() { return r_.U64(); }
  /// Length-prefixed byte string. The length is checked against the bytes
  /// actually remaining in scope before any allocation happens, so a hostile
  /// length cannot trigger an allocation bomb.
  std::vector<uint8_t> Bytes() {
    const std::span<const uint8_t> bytes = r_.Bytes();
    return {bytes.begin(), bytes.end()};
  }

  void U8(uint8_t& v) { v = r_.U8(); }
  /// Reads a bool (true iff the byte is 1) and returns the raw byte, so the
  /// caller can reject a non-canonical one with its own message.
  uint8_t U8(bool& v) {
    const uint8_t byte = r_.U8();
    v = byte == 1;
    return byte;
  }
  void U32(uint32_t& v) { v = r_.U32(); }
  void U64(uint64_t& v) { v = r_.U64(); }
  void F64(double& v) { v = r_.F64(); }
  void Bytes(std::vector<uint8_t>& out) { out = Bytes(); }
  /// Borrows the byte string from the buffer instead of copying it.
  void Bytes(std::span<const uint8_t>& out) { out = r_.Bytes(); }
  /// Combines the two ISR1 blobs, read in place, through the validation
  /// hostile upload frames go through.
  void Rows(SharedRows& rows);

  bool ok() const { return r_.ok(); }
  /// Flips ok() without recording a message: the next Expect names it.
  void Fail() { r_.Fail(); }
  /// Records InvalidArgument("malformed snapshot: <what>") if a read failed.
  void Expect(const char* what);
  /// Records InvalidArgument(msg) if the reads so far are ok and `cond`
  /// does not hold.
  void Check(bool cond, const char* msg) {
    if (!cond && ok()) Reject(Status::InvalidArgument(msg));
  }
  /// Records `st` unless a rejection is already recorded, and stops reads.
  void Reject(Status st);

  /// The first recorded rejection; else InvalidArgument naming `what` if any
  /// prior read failed; else OK.
  Status ExpectOk(const char* what) const;
  /// Terminal check: no rejection, ok, no open sections, every body byte
  /// consumed.
  Status Finish() const;

 private:
  explicit CheckpointReader(ByteReader r) : r_(std::move(r)) {}

  ByteReader r_;
  Status rejected_;
};

// --- Composite values: one field order for both archives --------------------

template <class A>
void Visit(A& a, FieldRef<A, RngState> s) {
  for (auto& word : s.s) a.U64(word);
  a.U64(s.cached_normal_bits);
  if (a.U8(s.have_cached_normal) > 1) a.Fail();  // canonical bools only
}

/// An Rng by its stream cursor. Restoring overwrites the cursor and never
/// draws; restore into a scratch generator only.
template <class A>
void Visit(A& a, FieldRef<A, Rng> rng) {
  if constexpr (A::kRestoring) {
    RngState state;
    Visit(a, state);
    rng.RestoreState(state);
  } else {
    Visit(a, rng.ExportState());
  }
}

template <class A>
void Visit(A& a, FieldRef<A, CircuitStats> s) {
  a.U64(s.and_gates);
  a.U64(s.xor_gates);
  a.U64(s.bytes);
  a.U64(s.rounds);
}

template <class A>
void Visit(A& a, FieldRef<A, WordShares> s) {
  a.U32(s.s0);
  a.U32(s.s1);
}

/// Plaintext evaluation-only record (owner queues).
template <class A>
void Visit(A& a, FieldRef<A, LogicalRecord> rec) {
  a.U64(rec.step);
  a.U32(rec.rid);
  a.U32(rec.key);
  a.U32(rec.date);
  a.U32(rec.payload);
}

template <class A>
void Visit(A& a, FieldRef<A, SharedRows> rows) {
  a.Rows(rows);
}

/// No restore-time check on a list's count.
struct AnyCount {
  void operator()(uint64_t) const {}
};

/// A u64 count, then each element through `visit_item`. Reading runs
/// `check_count(count)` first, then appends and visits one element at a
/// time only while the reader is ok(), so a hostile count stops at the end
/// of its section.
template <class A, class List, class F, class C = AnyCount>
void VisitList(A& a, List& items, F&& visit_item, C&& check_count = {}) {
  using Item = typename std::remove_const_t<List>::value_type;
  if constexpr (A::kRestoring) {
    uint64_t count = 0;
    a.U64(count);
    check_count(count);
    for (uint64_t i = 0; i < count && a.ok(); ++i) {
      // SharedRows has no default; its ISR1 read replaces the width anyway.
      if constexpr (std::is_same_v<Item, SharedRows>) {
        visit_item(items.emplace_back(0));
      } else {
        visit_item(items.emplace_back());
      }
    }
  } else {
    a.U64(items.size());
    for (const Item& item : items) visit_item(item);
  }
}

/// Section `tag` holding one visited value.
template <class A, class T>
void VisitSection(A& a, uint32_t tag, T&& value) {
  a.BeginSection(tag);
  Visit(a, value);
  a.EndSection();
}

/// A section holding one config fingerprint. Restoring names a malformed
/// section `what` and rejects any fingerprint but `want` with
/// FailedPrecondition(`mismatch`).
template <class A>
void VisitFingerprint(A& a, uint32_t tag, uint64_t want, const char* what,
                      const char* mismatch) {
  uint64_t got = want;
  a.BeginSection(tag);
  a.U64(got);
  a.EndSection();
  a.Expect(what);
  if (a.ok() && got != want) a.Reject(Status::FailedPrecondition(mismatch));
}

}  // namespace incshrink
