#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/net/frame_codec.h"
#include "src/net/upload_channel.h"

namespace incshrink {

/// \brief Real TCP transport behind the UploadChannel interface.
///
/// SocketListener is the engine-side endpoint: it accepts owner connections
/// on a loopback/LAN TCP port, reassembles length-prefixed IUF v1 frames
/// (frame_codec.h) and delivers them into the engine's bounded
/// UploadChannels — the exact same queues the in-process transport uses, so
/// nothing above the channel can tell the difference. SocketSender is the
/// owner-side endpoint: connect with bounded retries, non-blocking
/// backpressure-aware sends, reconnect.
///
/// Threat model: the listener trusts nothing it reads. Every byte goes
/// through the bounds-checked FrameAssembler (envelope hardening: length
/// limits, strictly consecutive sequence stamps) and — by default — the
/// bounds-checked IUF parser ParseUploadFrame (payload hardening: hostile
/// dimension headers, truncations), so a malformed peer costs one closed
/// connection and a public reject counter, never a crash, an OOM or an
/// out-of-bounds read. Connections are isolated: one hostile or dead owner
/// cannot perturb another tenant's stream.
///
/// Determinism contract: this layer moves opaque bytes and counts public
/// events; it draws no randomness and never reads a clock
/// (the pattern rules in tools/lint/secret_api.toml statically enforce both,
/// the clock ban for all of src/). The only timing anywhere is the integer millisecond timeout
/// handed to poll(2)/epoll_wait(2) — clearly marked plumbing that bounds a
/// blocking wait and feeds nothing back into behavior. Frames arrive on a
/// connection in FIFO order (TCP) carrying their sequence stamps, each
/// connection feeds exactly the channel its hello named, and the engine
/// drains channels in its fixed public merge order — so *when* bytes arrive
/// never changes *what* any deployment computes, and a socket-fed engine
/// reproduces the in-process transport bit for bit
/// (tests/socket_transport_test.cc).

// ---------------------------------------------------------------------------
// Engine side: listener
// ---------------------------------------------------------------------------

struct SocketListenerOptions {
  /// Upper bound on a single frame payload; a hostile length prefix beyond
  /// this is rejected before any allocation.
  uint32_t max_frame_bytes = 1u << 20;
  /// Check every payload with ParseUploadFrame (no destination) before
  /// delivery, rejecting malformed/hostile frames at the door. Costs one
  /// allocation-free walk per frame; disable only for trusted in-process
  /// benchmarking of raw byte movement.
  bool validate_frames = true;
  /// Use epoll(7) when available (Linux); false forces the portable poll(2)
  /// path (also used automatically on non-Linux platforms).
  bool use_epoll = true;
  /// Millisecond timeout of one Poll() sweep's wait: 0 = non-blocking sweep.
  /// Timeout plumbing only — bounds the wait, never feeds into behavior.
  int poll_timeout_ms = 0;
  /// Evict a connection after this many consecutive Poll() sweeps without a
  /// byte from it (0 = never). Idleness is measured in poll rounds, not wall
  /// time, so eviction stays a deterministic function of the driver's
  /// schedule; a dead owner just reconnects.
  uint32_t idle_poll_limit = 0;
  /// Accept at most this many concurrent connections; further accepts are
  /// closed immediately (counted publicly).
  size_t max_connections = 4096;
};

/// Public per-connection transport statistics (reject counters are part of
/// the observable surface: operators must see hostile peers).
struct ConnectionStats {
  uint64_t conn_id = 0;       ///< accept-order id, unique per listener
  uint32_t channel_id = 0;    ///< engine channel the hello named
  bool hello_done = false;
  bool open = false;
  uint64_t frames_delivered = 0;
  uint64_t frames_rejected = 0;   ///< malformed envelope/payload events
  uint64_t bytes_received = 0;
  uint64_t last_seq = 0;          ///< last accepted sequence stamp
  uint64_t idle_polls = 0;        ///< consecutive byte-less Poll() sweeps
  std::string last_error;         ///< public reason of the last reject/close
};

class SocketListener {
 public:
  /// \param channels engine-side destination queues, indexed by the
  ///        channel_id connections name in their hello; non-owning, must
  ///        outlive the listener.
  SocketListener(std::vector<UploadChannel*> channels,
                 const SocketListenerOptions& options);
  ~SocketListener();

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  /// Binds and listens on 127.0.0.1:`port` (0 = ephemeral). Call once.
  Status Bind(uint16_t port = 0);
  /// The bound port (valid after Bind).
  uint16_t port() const { return port_; }

  /// One event-loop sweep: accepts pending connections, reads every ready
  /// socket, reassembles/validates frames and delivers them into the
  /// channels. A frame whose channel is full stays buffered and pauses
  /// reads from its connection (TCP backpressure propagates to the owner);
  /// delivery is retried on the next sweep. Returns frames delivered this
  /// sweep.
  size_t Poll();

  /// Closes the listening socket and every connection.
  void Close();

  // Public aggregate counters.
  uint64_t connections_accepted() const { return accepted_; }
  uint64_t connections_closed() const { return closed_; }
  uint64_t connections_refused() const { return refused_; }
  uint64_t frames_delivered() const { return delivered_; }
  uint64_t frames_rejected() const { return rejected_; }
  size_t open_connections() const;

  /// Per-connection stats, accept order, closed connections included.
  std::vector<ConnectionStats> Stats() const;

 private:
  struct Conn;

  void AcceptPending();
  /// Reads every available byte from the connection, then delivers.
  void HandleReadable(Conn* conn);
  /// Parses and delivers as many buffered frames as channel space allows.
  void DeliverBuffered(Conn* conn);
  /// Records `why`, counts a reject and closes the connection.
  void RejectConn(Conn* conn, const Status& why);
  void CloseConn(Conn* conn);
  size_t PollOnce();

  std::vector<UploadChannel*> channels_;
  SocketListenerOptions options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Conn>> conns_;
  uint64_t accepted_ = 0;
  uint64_t closed_ = 0;
  uint64_t refused_ = 0;
  uint64_t delivered_ = 0;
  uint64_t rejected_ = 0;
};

// ---------------------------------------------------------------------------
// Owner side: sender
// ---------------------------------------------------------------------------

struct SocketSenderOptions {
  /// Millisecond bound on one connect attempt (timeout plumbing only).
  int connect_timeout_ms = 1000;
  /// Connect attempts before Connect()/Reconnect() gives up.
  int connect_attempts = 10;
  /// --- Round-driven reconnect (ReconnectRound) -----------------------------
  /// Backoff is counted in *poll rounds* — calls to ReconnectRound by the
  /// owner's drive loop — never in wall time, so reconnect schedules stay a
  /// deterministic function of the driver's round count and src/net stays
  /// clock-free. After a failed re-dial the sender waits
  /// `reconnect_backoff_rounds` rounds, doubling per failure up to
  /// `reconnect_backoff_max_rounds`.
  uint32_t reconnect_backoff_rounds = 1;
  uint32_t reconnect_backoff_max_rounds = 64;
  /// Re-dial attempts per outage before ReconnectRound gives up for good
  /// (a fresh explicit Connect() resets the outage). Must be >= 1.
  uint32_t reconnect_max_attempts = 8;
};

/// \brief Owner-side connection: dials the listener, sends the hello, then
/// streams sequence-stamped frames with non-blocking backpressure-aware
/// flushes.
///
/// QueueFrame stages one frame's bytes; Flush pushes staged bytes into the
/// kernel until it would block. When the engine side pauses reads (its
/// channel is full), the kernel buffers fill and Flush stops making
/// progress — the caller sees `!fully_flushed()` and refrains from queueing
/// more, which is exactly the probe-before-build discipline OwnerClient's
/// NoteBackpressure contract wants (src/core/socket_deployment.h wires it
/// up).
class SocketSender {
 public:
  explicit SocketSender(const SocketSenderOptions& options = {});
  ~SocketSender();

  SocketSender(const SocketSender&) = delete;
  SocketSender& operator=(const SocketSender&) = delete;
  SocketSender(SocketSender&& other) noexcept;
  SocketSender& operator=(SocketSender&& other) noexcept;

  /// Dials host:port with bounded retries and queues the hello for
  /// `channel_id`. Sequence stamps (re)start at 1.
  Status Connect(const std::string& host, uint16_t port, uint32_t channel_id);
  /// Closes and re-dials the same endpoint. The new connection is a fresh
  /// stream: stamps restart at 1.
  Status Reconnect();
  void CloseConn();
  bool connected() const { return fd_ >= 0; }

  /// One round of the bounded deterministic reconnect schedule. Call once
  /// per driver poll round while disconnected: a round either burns one
  /// backoff round, or spends one re-dial attempt (one Reconnect() call).
  /// Failed attempts back off exponentially in rounds (see
  /// SocketSenderOptions); after `reconnect_max_attempts` failed attempts in
  /// one outage the sender gives up permanently (`reconnect_gave_up()`)
  /// until an explicit Connect() starts a fresh outage cycle. Returns true
  /// when connected after this round. Already-connected rounds are no-ops.
  bool ReconnectRound();

  /// Public retry statistics (operators must see flapping links).
  uint64_t reconnect_attempts() const { return reconnect_attempts_; }
  uint64_t reconnect_successes() const { return reconnect_successes_; }
  uint64_t reconnect_rounds_waited() const { return reconnect_rounds_waited_; }
  bool reconnect_gave_up() const { return reconnect_gave_up_; }

  /// Stages one opaque frame payload (envelope + stamp added here).
  /// Fails if not connected.
  Status QueueFrame(const std::vector<uint8_t>& payload);

  /// Non-blocking: writes staged bytes to the socket until done or the
  /// kernel would block. Returns bytes written; a hard socket error (peer
  /// reset) closes the connection and surfaces as a Status.
  Result<size_t> Flush();

  /// True when every queued byte has reached the kernel.
  bool fully_flushed() const { return outbuf_.size() == out_pos_; }
  /// Bytes staged but not yet written.
  size_t pending_bytes() const { return outbuf_.size() - out_pos_; }

  uint64_t frames_queued() const { return frames_queued_; }
  /// Stamp the next QueueFrame will carry.
  uint64_t next_seq() const { return next_seq_; }

 private:
  void ResetStream();

  SocketSenderOptions options_;
  int fd_ = -1;
  std::string host_;
  uint16_t port_ = 0;
  uint32_t channel_id_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t frames_queued_ = 0;
  std::vector<uint8_t> outbuf_;
  size_t out_pos_ = 0;
  // Round-driven reconnect state (ReconnectRound).
  uint64_t reconnect_attempts_ = 0;
  uint64_t reconnect_successes_ = 0;
  uint64_t reconnect_rounds_waited_ = 0;
  uint32_t attempts_this_outage_ = 0;
  uint32_t backoff_rounds_left_ = 0;
  uint32_t next_backoff_rounds_ = 0;
  bool reconnect_gave_up_ = false;
};

}  // namespace incshrink
