#include "net/connection.hpp"

#include <errno.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "common/assert.hpp"

namespace timedc::net {
namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

}  // namespace

Connection::Connection(EventLoop& loop, int fd, bool connecting)
    : loop_(loop), fd_(fd), connecting_(connecting) {
  TIMEDC_ASSERT(fd_ >= 0);
}

Connection::~Connection() {
  if (fd_ >= 0) {
    // Destroyed without close(): silent teardown (owner is shutting down),
    // no callback.
    loop_.remove_fd(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

void Connection::start(FrameHandler on_frame, CloseHandler on_close) {
  on_frame_ = std::move(on_frame);
  on_close_ = std::move(on_close);
  interest_ = connecting_ ? EPOLLOUT : EPOLLIN;
  loop_.add_fd(fd_, interest_, [this](std::uint32_t ev) { handle_events(ev); });
}

void Connection::update_interest() {
  if (closed()) return;
  std::uint32_t want = 0;
  if (!connecting_ && !reading_paused_) want |= EPOLLIN;
  // Queued bytes alone never arm EPOLLOUT: every path that queues them
  // either flushes at once or has a flush armed (the tick-end hook), and a
  // flush leaves the queue empty unless the socket said EAGAIN. So a
  // request/reply tick costs no epoll_ctl; only a full socket does.
  if (connecting_ || write_blocked_) want |= EPOLLOUT;
  if (want != interest_) {
    interest_ = want;
    ++stats_.interest_changes;
    loop_.modify_fd(fd_, want);
  }
}

void Connection::close(const char* reason) {
  if (closed()) return;
  loop_.remove_fd(fd_);
  ::close(fd_);
  fd_ = -1;
  if (on_close_) {
    // Move the handler out: it may destroy captured state including this
    // function object.
    CloseHandler h = std::move(on_close_);
    on_close_ = nullptr;
    h(*this, reason);
  }
}

int Connection::release(std::vector<std::uint8_t>& leftover) {
  TIMEDC_ASSERT(!closed());
  leftover.assign(rbuf_.begin() + static_cast<std::ptrdiff_t>(rconsumed_),
                  rbuf_.begin() + static_cast<std::ptrdiff_t>(rlen_));
  loop_.remove_fd(fd_);
  const int fd = fd_;
  fd_ = -1;
  released_ = true;
  // Neither handler may ever fire again: the fd lives on under a new owner.
  on_close_ = nullptr;
  on_frame_ = nullptr;
  on_connected_ = nullptr;
  flush_scheduler_ = nullptr;
  send_barrier_ = nullptr;
  rbuf_.clear();
  rlen_ = 0;
  rconsumed_ = 0;
  out_.clear();
  return fd;
}

void Connection::inject(std::vector<std::uint8_t> data) {
  if (closed() || data.empty()) return;
  // These bytes were already counted by the releasing connection's
  // bytes_read; only the decode is replayed here.
  rbuf_.resize(rlen_);  // drop the spare room (shrinking fills nothing)
  if (rbuf_.empty()) {
    rbuf_ = std::move(data);
  } else {
    rbuf_.insert(rbuf_.end(), data.begin(), data.end());
  }
  rlen_ = rbuf_.size();
  decode_buffered();
}

void Connection::handle_events(std::uint32_t events) {
  if (closed()) return;
  if (events & (EPOLLERR | EPOLLHUP)) {
    // Flush any readable remainder first so a peer that wrote-then-closed
    // still gets its last frames processed.
    if (events & EPOLLIN) handle_readable();
    if (!closed() && !released_) close("socket error/hangup");
    return;
  }
  if (events & EPOLLOUT) handle_writable();
  if (closed()) return;
  if (events & EPOLLIN) handle_readable();
  if (closed() || released_) return;
  update_interest();
}

void Connection::handle_writable() {
  if (connecting_) {
    int err = 0;
    socklen_t len = sizeof(err);
    getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      close("connect failed");
      return;
    }
    connecting_ = false;
    if (on_connected_) {
      ConnectedHandler h = std::move(on_connected_);
      on_connected_ = nullptr;
      h(*this);
      if (closed()) return;
    }
  }
  flush();
}

void Connection::flush() {
  if (closed() || connecting_) return;
  // Once per flush is enough: nothing runs between the barrier and the
  // sendmsg calls below that could queue new bytes or log new writes.
  if (send_barrier_ != nullptr && !out_.empty()) (*send_barrier_)();
  while (!out_.empty()) {
    struct iovec iov[SendQueue::kMaxIov];
    const std::size_t iovcnt = out_.gather(iov);
    struct msghdr mh {};
    mh.msg_iov = iov;
    mh.msg_iovlen = iovcnt;
    // Gather write: one syscall moves every queued frame (sendmsg is
    // writev plus MSG_NOSIGNAL). Up to kMaxIov chunks per call; the loop
    // continues while more is queued.
    const ssize_t n = ::sendmsg(fd_, &mh, MSG_NOSIGNAL);
    if (n > 0) {
      // A short count is normal (socket buffer filled mid-gather): consume
      // the sent prefix — the queue advances its cursor, nothing is
      // copied — and retry; if the buffer is truly full the next call says
      // EAGAIN.
      out_.consume(static_cast<std::size_t>(n));
      stats_.bytes_written += static_cast<std::uint64_t>(n);
      ++stats_.flush_syscalls;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    close("write error");
    return;
  }
  // The loop ends with the queue drained or the socket full (EAGAIN); only
  // the latter needs EPOLLOUT to finish the job.
  write_blocked_ = !out_.empty();
  if (reading_paused_ && pending_write_bytes() < kLowWatermark) {
    reading_paused_ = false;
  }
  update_interest();
}

void Connection::flush_batched() {
  flush_armed_ = false;
  flush();
}

void Connection::send_raw_frame(std::span<const std::uint8_t> frame) {
  if (closed()) return;
  out_.append(frame.data(), frame.size());
  ++stats_.frames_sent;
  after_enqueue();
}

void Connection::after_enqueue() {
  if (flush_scheduler_ && !connecting_) {
    if (pending_write_bytes() >= kFlushBypassBytes) {
      // Enough queued that overlapping the kernel send with the rest of
      // the tick beats waiting for the tick-end flush.
      flush();
    } else if (!flush_armed_) {
      flush_armed_ = true;
      flush_scheduler_(*this);
    }
  } else {
    flush();
  }
  if (pending_write_bytes() > kHighWatermark && !reading_paused_) {
    // Backpressure: stop accepting input from a peer we cannot answer.
    reading_paused_ = true;
    update_interest();
  }
}

void Connection::handle_readable() {
  for (;;) {
    if (rbuf_.size() < rlen_ + kReadChunk) rbuf_.resize(rlen_ + kReadChunk);
    const ssize_t n = ::recv(fd_, rbuf_.data() + rlen_, kReadChunk, 0);
    if (n > 0) {
      rlen_ += static_cast<std::size_t>(n);
      stats_.bytes_read += static_cast<std::uint64_t>(n);
      if (static_cast<std::size_t>(n) < kReadChunk) break;
      continue;
    }
    if (n == 0) {
      decode_buffered();
      if (!closed() && !released_) close("peer closed");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close("read error");
    return;
  }
  decode_buffered();
}

void Connection::decode_buffered() {
  while (!closed() && rconsumed_ < rlen_) {
    const std::span<const std::uint8_t> pending(rbuf_.data() + rconsumed_,
                                                rlen_ - rconsumed_);
    const wire::FrameView view = wire::peek_frame(pending);
    if (view.status == wire::DecodeStatus::kNeedMore) break;
    if (!view.ok()) {
      fail_decode(view.status);
      return;
    }
    ++stats_.frames_decoded;
    if (on_frame_) on_frame_(*this, view);
    // The handler may have closed us (body-decode failure, protocol
    // decision) or released the fd for steering; either way the buffer —
    // current frame included — is no longer ours to advance.
    if (closed() || released_) return;
    rconsumed_ += view.consumed;
  }
  if (closed() || released_) return;
  if (rconsumed_ == rlen_) {
    rlen_ = 0;
    rconsumed_ = 0;
  } else if (rconsumed_ > kReadChunk) {
    std::memmove(rbuf_.data(), rbuf_.data() + rconsumed_, rlen_ - rconsumed_);
    rlen_ -= rconsumed_;
    rconsumed_ = 0;
  }
}

void Connection::fail_decode(wire::DecodeStatus status) {
  if (closed()) return;
  decode_failure_ = status;
  log_decode_failure(status,
                     {rbuf_.data() + rconsumed_, rlen_ - rconsumed_});
  close(wire::to_cstring(status));
}

void Connection::log_decode_failure(wire::DecodeStatus status,
                                    std::span<const std::uint8_t> bad) const {
  // Best-effort header fields from whatever bytes are present; a decode
  // failure closes the connection, so this fires at most once per
  // connection. The values are read defensively — they may be garbage,
  // that is the point of printing them.
  auto u16_at = [&](std::size_t at) -> unsigned {
    return bad.size() >= at + 2
        ? static_cast<unsigned>(bad[at]) | static_cast<unsigned>(bad[at + 1]) << 8
        : 0u;
  };
  auto u32_at = [&](std::size_t at) -> unsigned long {
    if (bad.size() < at + 4) return 0;
    unsigned long v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<unsigned long>(bad[at + i]) << (8 * i);
    return v;
  };
  std::fprintf(stderr,
               "timedc-net: fd %d decode error %s "
               "(magic=0x%04x version=%u type=%u from=%lu to=%lu body_len=%lu "
               "buffered=%zu)\n",
               fd_, wire::to_cstring(status), u16_at(0),
               bad.size() >= 3 ? static_cast<unsigned>(bad[2]) : 0u,
               bad.size() >= 4 ? static_cast<unsigned>(bad[3]) : 0u,
               u32_at(4), u32_at(8), u32_at(12), bad.size());
}

}  // namespace timedc::net
