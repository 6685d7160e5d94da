// One non-blocking TCP connection carrying wire-codec frames.
//
// The connection owns its fd, a read buffer and a chunked send queue.
// Reads are drained into the read buffer and handed to the owner as
// non-owning wire::FrameViews — zero copies, no per-message allocation;
// the view aliases the read buffer and is valid only until the handler
// returns (the buffer is compacted and reused afterwards). Writes append
// encoded frames to the send queue; by default every send flushes
// immediately, but an owner that installs a flush scheduler coalesces all
// frames queued during one loop tick into a single writev() (see
// TcpTransport's tick-end hook). EPOLLOUT is armed only while a connect is
// pending or after a flush hit EAGAIN, never for bytes a flush already
// armed will send. An owner-installed send barrier runs before every flush
// that moves bytes, whichever path triggers it (tick end, the bypass flush,
// EPOLLOUT); timedc-server commits its write-ahead log there. Backpressure
// is per connection: when the unsent output exceeds the high watermark the
// connection stops reading (no new requests are accepted from a peer we
// cannot answer) until the queue drains below the low watermark.
//
// All methods are loop-thread only. A Connection never deletes itself; the
// owner (TcpTransport) decides its lifetime from the close callback.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/event_loop.hpp"
#include "net/send_queue.hpp"
#include "net/wire.hpp"

namespace timedc::net {

struct ConnectionStats {
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t frames_decoded = 0;
  std::uint64_t frames_sent = 0;
  /// writev()/send() calls that moved at least one byte: frames_sent /
  /// flush_syscalls is the coalescing factor the batching layer achieves.
  std::uint64_t flush_syscalls = 0;
  /// epoll_ctl(MOD) calls since start(): EPOLLOUT toggles after EAGAIN,
  /// backpressure pauses and a completed connect. Request/reply traffic
  /// that never fills the socket makes none.
  std::uint64_t interest_changes = 0;
};

class Connection {
 public:
  /// Frames are handed to the owner as validated (kOk) header views; the
  /// owner decodes the body on demand (wire::decode_frame_view). The view
  /// aliases the connection's read buffer and dies when the handler
  /// returns.
  using FrameHandler = std::function<void(Connection&, const wire::FrameView&)>;
  /// Fired exactly once, on EOF, socket error, decode error or close().
  using CloseHandler = std::function<void(Connection&, const char* reason)>;
  /// Fired once when an in-progress non-blocking connect() completes
  /// successfully (never for already-connected fds; see set_connected_handler).
  using ConnectedHandler = std::function<void(Connection&)>;
  /// Installed by an owner that batch-flushes: called (once per quiet
  /// period) when this connection has queued bytes and wants a flush at
  /// the end of the current loop tick.
  using FlushScheduler = std::function<void(Connection&)>;
  /// Runs before any queued byte leaves the process: once per flush that
  /// has bytes to send, ahead of its first sendmsg. It must not call back
  /// into the connection, and it should allocate nothing.
  using SendBarrier = std::function<void()>;

  static constexpr std::size_t kHighWatermark = 4u << 20;
  static constexpr std::size_t kLowWatermark = 512u << 10;
  /// In batched mode, a tick that queues this much output flushes
  /// immediately anyway: overlapping the kernel send with the rest of the
  /// tick beats strict once-per-tick coalescing for bulk responses.
  static constexpr std::size_t kFlushBypassBytes = 256u << 10;

  /// Takes ownership of `fd` (already non-blocking). `connecting` marks an
  /// in-progress non-blocking connect(): writes buffer until it completes.
  Connection(EventLoop& loop, int fd, bool connecting);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Register with the loop and start delivering frames.
  void start(FrameHandler on_frame, CloseHandler on_close);

  /// Observe successful completion of a non-blocking connect(). Only
  /// meaningful on connections constructed with connecting=true; must be
  /// set before the connect can complete (i.e. right after start()).
  void set_connected_handler(ConnectedHandler on_connected) {
    on_connected_ = std::move(on_connected);
  }

  /// Switch to batched writes: sends enqueue only, and `scheduler` is
  /// invoked (at most once until the next flush) so the owner can flush
  /// this connection at the end of the loop tick via flush_batched().
  void set_flush_scheduler(FlushScheduler scheduler) {
    flush_scheduler_ = std::move(scheduler);
  }

  /// Flush everything queued (the owner's tick-end path). Re-arms the
  /// scheduler for the next tick.
  void flush_batched();

  /// Gate every flush behind `barrier` (null = none). The barrier is not
  /// copied: it must outlive the connection or be reset first.
  void set_send_barrier(const SendBarrier* barrier) {
    send_barrier_ = barrier;
  }

  /// Queue one frame built by `encode(args..., buf)`, where `encode` is a
  /// wire::encode_*frame function; flushes as far as the socket allows
  /// (immediately, or at tick end in batched mode). The encoder is a
  /// template argument, so the call is direct and the send path stays
  /// allocation-free: the frame is built in a reused scratch buffer.
  template <auto encode, typename... Args>
  void send_encoded(const Args&... args) {
    if (closed()) return;
    scratch_.clear();
    encode(args..., scratch_);
    send_raw_frame(scratch_);
  }

  /// Queue one protocol frame carrying `m`.
  void send_frame(SiteId from, SiteId to, const Message& m) {
    send_encoded<wire::encode_frame>(from, to, m);
  }

  /// Queue a complete, already-encoded frame verbatim (the relay path:
  /// these bytes were peeked off another connection and keep their original
  /// header).
  void send_raw_frame(std::span<const std::uint8_t> frame);

  /// Deregister and close the fd; fires the close handler (once).
  void close(const char* reason);

  /// Owner-reported body-decode failure. Connection only validates frame
  /// headers (peek_frame); when the owner's decode_frame_view hits a
  /// body-stage error it reports it here, which records the status, logs
  /// the offending bytes and closes — exactly as header-stage errors do.
  void fail_decode(wire::DecodeStatus status);

  /// Detach for steering: deregister from the loop WITHOUT closing the fd
  /// or firing the close handler, move every unprocessed read byte
  /// (starting at the frame currently being dispatched) into `leftover`,
  /// and return the fd. The caller re-homes both on another reactor's
  /// transport (TcpTransport::adopt_steered). Only legal from inside the
  /// frame handler; the connection is dead afterwards.
  int release(std::vector<std::uint8_t>& leftover);

  /// Seed the read buffer with bytes that arrived before adoption (the
  /// steered connection's leftover) and decode them as if just read.
  /// Call after start().
  void inject(std::vector<std::uint8_t> data);

  bool closed() const { return fd_ < 0; }
  bool released() const { return released_; }
  bool connecting() const { return connecting_; }
  bool reading_paused() const { return reading_paused_; }
  std::size_t pending_write_bytes() const { return out_.pending_bytes(); }
  const ConnectionStats& stats() const { return stats_; }
  int fd() const { return fd_; }

  /// Non-kOk iff the connection was torn down by a codec error (the typed
  /// DecodeStatus the close reason string names).
  wire::DecodeStatus decode_failure() const { return decode_failure_; }

 private:
  void handle_events(std::uint32_t events);
  void handle_readable();
  void handle_writable();
  void decode_buffered();
  void log_decode_failure(wire::DecodeStatus status,
                          std::span<const std::uint8_t> bad) const;
  void flush();
  void update_interest();
  void after_enqueue();

  EventLoop& loop_;
  int fd_;
  bool connecting_;
  bool released_ = false;
  bool reading_paused_ = false;
  bool flush_armed_ = false;  // scheduler notified, flush_batched() pending
  /// The last flush hit EAGAIN with bytes still queued: EPOLLOUT stays
  /// armed until a flush drains the queue.
  bool write_blocked_ = false;
  std::uint32_t interest_ = 0;

  /// Read buffer: bytes [0, rlen_) are received, [rlen_, size()) is spare
  /// room recv() writes into. The size only grows, so the zero-fill of
  /// vector::resize is paid once per growth instead of on every read.
  std::vector<std::uint8_t> rbuf_;
  std::size_t rlen_ = 0;
  std::size_t rconsumed_ = 0;  // decoded prefix of rbuf_, compacted lazily
  SendQueue out_;
  /// Per-send encode scratch; cleared (capacity kept) around every encode,
  /// so steady-state sends never allocate.
  std::vector<std::uint8_t> scratch_;

  FrameHandler on_frame_;
  CloseHandler on_close_;
  ConnectedHandler on_connected_;
  FlushScheduler flush_scheduler_;
  const SendBarrier* send_barrier_ = nullptr;
  ConnectionStats stats_;
  wire::DecodeStatus decode_failure_ = wire::DecodeStatus::kOk;
};

}  // namespace timedc::net
