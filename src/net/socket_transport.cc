#include "src/net/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/logging.h"
#include "src/storage/serialization.h"

#if defined(__linux__)
#include <sys/epoll.h>
#define INCSHRINK_HAVE_EPOLL 1
#else
#define INCSHRINK_HAVE_EPOLL 0
#endif

namespace incshrink {

namespace {

/// Marks a socket non-blocking (the whole transport is non-blocking; the
/// only waits are the poll/epoll timeouts).
Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal("fcntl(O_NONBLOCK) failed");
  }
  return Status::OK();
}

void SetNoDelay(int fd) {
  int one = 1;
  // Best effort: latency tuning only, never correctness.
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in LoopbackAddr(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

// ---------------------------------------------------------------------------
// SocketListener
// ---------------------------------------------------------------------------

struct SocketListener::Conn {
  Conn(uint64_t conn_id, int fd_in, uint32_t max_frame_bytes)
      : fd(fd_in), assembler(max_frame_bytes) {
    stats.conn_id = conn_id;
    stats.open = true;
  }

  int fd;
  ConnectionStats stats;
  FrameAssembler assembler;
  /// Frame extracted from the assembler whose channel was full; delivery is
  /// retried each sweep, and reads stay paused until it drains (this is how
  /// engine-side backpressure reaches the owner's socket).
  bool has_staged = false;
  WireFrame staged;
  UploadChannel* channel = nullptr;  ///< resolved from the hello
  bool in_event_set = false;         ///< registered for readiness events
  bool peer_closed = false;          ///< EOF seen; drain-then-close
  bool got_bytes_this_sweep = false;
};

SocketListener::SocketListener(std::vector<UploadChannel*> channels,
                               const SocketListenerOptions& options)
    : channels_(std::move(channels)), options_(options) {
  INCSHRINK_CHECK(!channels_.empty());
  for (UploadChannel* ch : channels_) INCSHRINK_CHECK(ch != nullptr);
#if !INCSHRINK_HAVE_EPOLL
  options_.use_epoll = false;
#endif
}

SocketListener::~SocketListener() { Close(); }

Status SocketListener::Bind(uint16_t port) {
  INCSHRINK_CHECK(listen_fd_ < 0);
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Internal("socket() failed");
  INCSHRINK_RETURN_NOT_OK(SetNonBlocking(listen_fd_));
  int one = 1;
  (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = LoopbackAddr(port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::Internal("bind() failed");
  }
  if (listen(listen_fd_, 1024) != 0) return Status::Internal("listen() failed");
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Status::Internal("getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
#if INCSHRINK_HAVE_EPOLL
  if (options_.use_epoll) {
    epoll_fd_ = epoll_create1(0);
    if (epoll_fd_ < 0) return Status::Internal("epoll_create1() failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = UINT64_MAX;  // sentinel: the listening socket
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
      return Status::Internal("epoll_ctl(listen) failed");
    }
  }
#endif
  return Status::OK();
}

void SocketListener::Close() {
  for (std::unique_ptr<Conn>& conn : conns_) {
    if (conn->fd >= 0) CloseConn(conn.get());
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

size_t SocketListener::open_connections() const {
  size_t n = 0;
  for (const std::unique_ptr<Conn>& conn : conns_) {
    if (conn->fd >= 0) ++n;
  }
  return n;
}

std::vector<ConnectionStats> SocketListener::Stats() const {
  std::vector<ConnectionStats> out;
  out.reserve(conns_.size());
  for (const std::unique_ptr<Conn>& conn : conns_) out.push_back(conn->stats);
  return out;
}

void SocketListener::AcceptPending() {
  for (;;) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // EAGAIN: drained the accept queue. Anything else: transient; the
      // next sweep retries.
      return;
    }
    if (open_connections() >= options_.max_connections) {
      ::close(fd);
      ++refused_;
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      ++refused_;
      continue;
    }
    SetNoDelay(fd);
    ++accepted_;
    conns_.push_back(
        std::make_unique<Conn>(accepted_, fd, options_.max_frame_bytes));
    Conn* conn = conns_.back().get();
#if INCSHRINK_HAVE_EPOLL
    if (epoll_fd_ >= 0) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = conns_.size() - 1;
      if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0) {
        conn->in_event_set = true;
      }
    } else {
      conn->in_event_set = true;
    }
#else
    conn->in_event_set = true;
#endif
  }
}

void SocketListener::CloseConn(Conn* conn) {
  if (conn->fd < 0) return;
#if INCSHRINK_HAVE_EPOLL
  if (epoll_fd_ >= 0 && conn->in_event_set) {
    (void)epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  }
#endif
  conn->in_event_set = false;
  ::close(conn->fd);
  conn->fd = -1;
  conn->stats.open = false;
  ++closed_;
}

void SocketListener::RejectConn(Conn* conn, const Status& why) {
  ++conn->stats.frames_rejected;
  ++rejected_;
  conn->stats.last_error = why.ToString();
  conn->has_staged = false;
  CloseConn(conn);
}

void SocketListener::DeliverBuffered(Conn* conn) {
  // Hello first: the connection names its destination channel before any
  // frame may flow.
  if (!conn->stats.hello_done) {
    uint32_t channel_id = 0;
    const Result<bool> hello = conn->assembler.TakeHello(&channel_id);
    if (!hello.ok()) {
      RejectConn(conn, hello.status());
      return;
    }
    if (!*hello) return;  // hello bytes still in flight
    if (channel_id >= channels_.size()) {
      RejectConn(conn, Status::InvalidArgument("unknown channel id"));
      return;
    }
    conn->stats.hello_done = true;
    conn->stats.channel_id = channel_id;
    conn->channel = channels_[channel_id];
  }
  for (;;) {
    if (conn->has_staged) {
      // Probe-before-push keeps the channel's own reject counter a pure
      // owner-side observable, exactly as in the in-process transport.
      if (conn->channel->full()) return;  // still paused
      INCSHRINK_CHECK(conn->channel->TryPush(std::move(conn->staged.payload)));
      conn->has_staged = false;
      conn->stats.last_seq = conn->staged.seq;
      ++conn->stats.frames_delivered;
      ++delivered_;
    }
    WireFrame frame;
    const Result<bool> got = conn->assembler.TakeFrame(&frame);
    if (!got.ok()) {
      RejectConn(conn, got.status());
      return;
    }
    if (!*got) break;  // need more bytes
    if (options_.validate_frames) {
      // The payload parser is the bounds-checked IUF ParseUploadFrame, run
      // without a destination (nothing is allocated; the engine decodes at
      // drain): any truncation, hostile dimension header or trailing
      // garbage surfaces here as a Status and costs the peer its
      // connection.
      const Status valid = ParseUploadFrame(frame.payload, nullptr);
      if (!valid.ok()) {
        RejectConn(conn, valid);
        return;
      }
    }
    conn->staged = std::move(frame);
    conn->has_staged = true;
  }
  // EOF after every buffered frame drained: a clean close, unless the peer
  // died mid-frame.
  if (conn->peer_closed && !conn->has_staged) {
    if (conn->assembler.buffered_bytes() > 0) {
      RejectConn(conn,
                 Status::InvalidArgument("connection closed mid-frame"));
    } else {
      CloseConn(conn);
    }
  }
}

void SocketListener::HandleReadable(Conn* conn) {
  uint8_t buf[65536];
  for (;;) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->got_bytes_this_sweep = true;
      conn->stats.bytes_received += static_cast<uint64_t>(n);
      conn->assembler.Feed(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      conn->peer_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    // Hard socket error (peer reset): close; not a protocol reject.
    conn->stats.last_error = "socket read error";
    CloseConn(conn);
    return;
  }
  DeliverBuffered(conn);
}

size_t SocketListener::PollOnce() {
  const uint64_t delivered_before = delivered_;
  // Retry paused deliveries first: channel space freed since the last sweep
  // is the only way a paused connection makes progress. (A connection with
  // an undrained staged frame keeps its fd open, even after peer EOF, until
  // the frame lands.)
  for (std::unique_ptr<Conn>& conn : conns_) {
    if (conn->fd >= 0 &&
        (conn->has_staged || conn->assembler.buffered_bytes() > 0 ||
         conn->peer_closed)) {
      DeliverBuffered(conn.get());
    }
    conn->got_bytes_this_sweep = false;
  }

#if INCSHRINK_HAVE_EPOLL
  if (epoll_fd_ >= 0) {
    // Paused connections (a staged frame waiting on channel space) leave
    // the event set so backpressure reaches the peer's kernel buffers;
    // everyone else (re)joins.
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn* conn = conns_[i].get();
      if (conn->fd < 0) continue;
      const bool want = !conn->has_staged;
      if (want && !conn->in_event_set) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = i;
        if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &ev) == 0) {
          conn->in_event_set = true;
        }
      } else if (!want && conn->in_event_set) {
        (void)epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
        conn->in_event_set = false;
      }
    }
    epoll_event events[128];
    for (;;) {
      const int n = epoll_wait(epoll_fd_, events, 128,
                               options_.poll_timeout_ms);  // net-timeout-ok
      if (n < 0 && errno == EINTR) continue;
      for (int i = 0; i < n; ++i) {
        if (events[i].data.u64 == UINT64_MAX) {
          AcceptPending();
        } else {
          Conn* conn = conns_[events[i].data.u64].get();
          if (conn->fd >= 0 && !conn->has_staged) HandleReadable(conn);
        }
      }
      break;
    }
  } else {
#endif
    std::vector<pollfd> fds;
    std::vector<Conn*> fd_conns;
    fds.push_back({listen_fd_, POLLIN, 0});
    fd_conns.push_back(nullptr);
    for (std::unique_ptr<Conn>& conn : conns_) {
      if (conn->fd >= 0 && !conn->has_staged) {
        fds.push_back({conn->fd, POLLIN, 0});
        fd_conns.push_back(conn.get());
      }
    }
    for (;;) {
      const int n = poll(fds.data(), fds.size(),
                         options_.poll_timeout_ms);  // net-timeout-ok
      if (n < 0 && errno == EINTR) continue;
      if (n > 0) {
        for (size_t i = 0; i < fds.size(); ++i) {
          if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
          if (fd_conns[i] == nullptr) {
            AcceptPending();
          } else if (fd_conns[i]->fd >= 0) {
            HandleReadable(fd_conns[i]);
          }
        }
      }
      break;
    }
#if INCSHRINK_HAVE_EPOLL
  }
#endif

  // Idle accounting: consecutive byte-less sweeps, a deterministic function
  // of the driver's Poll schedule (never wall time). Paused connections are
  // exempt — they are waiting on the engine, not dead.
  if (options_.idle_poll_limit > 0) {
    for (std::unique_ptr<Conn>& conn : conns_) {
      if (conn->fd < 0) continue;
      if (conn->got_bytes_this_sweep || conn->has_staged) {
        conn->stats.idle_polls = 0;
      } else if (++conn->stats.idle_polls >= options_.idle_poll_limit) {
        conn->stats.last_error = "idle poll limit exceeded";
        CloseConn(conn.get());
      }
    }
  }
  return static_cast<size_t>(delivered_ - delivered_before);
}

size_t SocketListener::Poll() {
  INCSHRINK_CHECK(listen_fd_ >= 0);
  return PollOnce();
}

// ---------------------------------------------------------------------------
// SocketSender
// ---------------------------------------------------------------------------

SocketSender::SocketSender(const SocketSenderOptions& options)
    : options_(options),
      next_backoff_rounds_(options.reconnect_backoff_rounds) {}

SocketSender::~SocketSender() { CloseConn(); }

SocketSender::SocketSender(SocketSender&& other) noexcept
    : options_(other.options_),
      fd_(other.fd_),
      host_(std::move(other.host_)),
      port_(other.port_),
      channel_id_(other.channel_id_),
      next_seq_(other.next_seq_),
      frames_queued_(other.frames_queued_),
      outbuf_(std::move(other.outbuf_)),
      out_pos_(other.out_pos_),
      reconnect_attempts_(other.reconnect_attempts_),
      reconnect_successes_(other.reconnect_successes_),
      reconnect_rounds_waited_(other.reconnect_rounds_waited_),
      attempts_this_outage_(other.attempts_this_outage_),
      backoff_rounds_left_(other.backoff_rounds_left_),
      next_backoff_rounds_(other.next_backoff_rounds_),
      reconnect_gave_up_(other.reconnect_gave_up_) {
  other.fd_ = -1;
}

SocketSender& SocketSender::operator=(SocketSender&& other) noexcept {
  if (this == &other) return *this;
  CloseConn();
  options_ = other.options_;
  fd_ = other.fd_;
  host_ = std::move(other.host_);
  port_ = other.port_;
  channel_id_ = other.channel_id_;
  next_seq_ = other.next_seq_;
  frames_queued_ = other.frames_queued_;
  outbuf_ = std::move(other.outbuf_);
  out_pos_ = other.out_pos_;
  reconnect_attempts_ = other.reconnect_attempts_;
  reconnect_successes_ = other.reconnect_successes_;
  reconnect_rounds_waited_ = other.reconnect_rounds_waited_;
  attempts_this_outage_ = other.attempts_this_outage_;
  backoff_rounds_left_ = other.backoff_rounds_left_;
  next_backoff_rounds_ = other.next_backoff_rounds_;
  reconnect_gave_up_ = other.reconnect_gave_up_;
  other.fd_ = -1;
  return *this;
}

void SocketSender::ResetStream() {
  next_seq_ = 1;
  outbuf_.clear();
  out_pos_ = 0;
}

void SocketSender::CloseConn() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status SocketSender::Connect(const std::string& host, uint16_t port,
                             uint32_t channel_id) {
  host_ = host;
  port_ = port;
  channel_id_ = channel_id;
  // An explicit dial starts a fresh outage cycle: the round-driven schedule
  // forgets any give-up verdict and backs off from the configured base again.
  attempts_this_outage_ = 0;
  backoff_rounds_left_ = 0;
  next_backoff_rounds_ = options_.reconnect_backoff_rounds;
  reconnect_gave_up_ = false;
  return Reconnect();
}

bool SocketSender::ReconnectRound() {
  if (connected()) return true;
  if (reconnect_gave_up_) return false;
  if (backoff_rounds_left_ > 0) {
    --backoff_rounds_left_;
    ++reconnect_rounds_waited_;
    return false;
  }
  ++reconnect_attempts_;
  ++attempts_this_outage_;
  if (Reconnect().ok()) {
    ++reconnect_successes_;
    attempts_this_outage_ = 0;
    next_backoff_rounds_ = options_.reconnect_backoff_rounds;
    return true;
  }
  if (attempts_this_outage_ >= options_.reconnect_max_attempts) {
    reconnect_gave_up_ = true;
    return false;
  }
  backoff_rounds_left_ = next_backoff_rounds_;
  const uint64_t doubled = static_cast<uint64_t>(next_backoff_rounds_) * 2;
  next_backoff_rounds_ = static_cast<uint32_t>(
      doubled > options_.reconnect_backoff_max_rounds
          ? options_.reconnect_backoff_max_rounds
          : doubled);
  return false;
}

Status SocketSender::Reconnect() {
  CloseConn();
  ResetStream();
  sockaddr_in addr = LoopbackAddr(port_);
  if (inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host address");
  }
  Status last = Status::Internal("connect never attempted");
  for (int attempt = 0; attempt < options_.connect_attempts; ++attempt) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      last = Status::Internal("socket() failed");
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      last = Status::Internal("fcntl(O_NONBLOCK) failed");
      continue;
    }
    int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      for (;;) {
        rc = poll(&pfd, 1, options_.connect_timeout_ms);  // net-timeout-ok
        if (rc < 0 && errno == EINTR) continue;
        break;
      }
      if (rc == 1) {
        int err = 0;
        socklen_t len = sizeof(err);
        rc = (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) == 0 &&
              err == 0)
                 ? 0
                 : -1;
      } else {
        rc = -1;  // timeout
      }
    }
    if (rc != 0) {
      ::close(fd);
      last = Status::Internal("connect attempt failed");
      continue;
    }
    SetNoDelay(fd);
    fd_ = fd;
    // The hello rides the front of the stream; Flush sends it with the
    // first frame bytes.
    const std::vector<uint8_t> hello = EncodeHello(channel_id_);
    outbuf_.insert(outbuf_.end(), hello.begin(), hello.end());
    return Status::OK();
  }
  return last;
}

Status SocketSender::QueueFrame(const std::vector<uint8_t>& payload) {
  if (fd_ < 0) return Status::FailedPrecondition("sender not connected");
  AppendEnvelope(&outbuf_, next_seq_, payload);
  ++next_seq_;
  ++frames_queued_;
  return Status::OK();
}

Result<size_t> SocketSender::Flush() {
  if (fd_ < 0) return Status::FailedPrecondition("sender not connected");
  size_t written = 0;
  while (out_pos_ < outbuf_.size()) {
    const ssize_t n = send(fd_, outbuf_.data() + out_pos_,
                           outbuf_.size() - out_pos_, MSG_NOSIGNAL);
    if (n > 0) {
      out_pos_ += static_cast<size_t>(n);
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConn();
    return Status::Internal("socket write failed (peer closed?)");
  }
  if (out_pos_ == outbuf_.size()) {
    outbuf_.clear();
    out_pos_ = 0;
  } else if (out_pos_ > 65536 && out_pos_ * 2 > outbuf_.size()) {
    outbuf_.erase(outbuf_.begin(),
                  outbuf_.begin() + static_cast<ptrdiff_t>(out_pos_));
    out_pos_ = 0;
  }
  return written;
}

}  // namespace incshrink
