// The batched write path's three contracts, over real sockets:
//
// 1. Robust flush: a Connection whose peer socket has a tiny SO_SNDBUF and
//    a deliberately slow reader dribbles its queue out through many short
//    sendmsg() calls (with a signal storm peppering the loop thread so
//    EINTR returns are in play) and still delivers every frame
//    byte-identically, in order.
// 2. Coalescing: frames enqueued under a flush scheduler and flushed once
//    by flush_batched() produce the exact byte stream per-frame immediate
//    flushes produce, while using fewer sendmsg() calls than frames.
// 3. Reactor sharding: against a ReactorGroup of 1, 2 and 8 reactors with
//    echo servers, a pipelined burst per connection comes back complete,
//    in order, and byte-identical to the per-frame reference encoding —
//    steering and tick-end batch flushing never reorder or corrupt.
// 4. Send barrier: the owner's barrier runs before every sendmsg that moves
//    bytes, on each path that flushes — the tick-end flush, the 256 KiB
//    bypass inside a send, and an EPOLLOUT flush after EAGAIN — so a
//    write-ahead log committed there is in the kernel before any reply.
// 5. Interest: request/reply traffic through a batched connection never
//    calls epoll_ctl; only a flush that hits EAGAIN arms EPOLLOUT, and the
//    flush that drains the queue disarms it.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/reactor_group.hpp"
#include "net/wire.hpp"
#include "protocol/messages.hpp"

namespace timedc {
namespace {

/// Runs `fn` on the loop thread and returns its value (the loop must be
/// running on another thread).
template <typename F>
auto on_loop(net::EventLoop& loop, F fn) -> decltype(fn()) {
  std::promise<decltype(fn())> result;
  auto fut = result.get_future();
  loop.post([&] { result.set_value(fn()); });
  return fut.get();
}

/// Polls `pred` on the loop thread every millisecond for up to 5 s.
template <typename F>
bool eventually_on(net::EventLoop& loop, F pred) {
  for (int i = 0; i < 5000; ++i) {
    if (on_loop(loop, pred)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

Message test_message(Rng& rng, std::uint64_t seq) {
  // A FetchReply with multi-entry plausible timestamps: large enough that
  // a handful of frames overflows a tiny socket buffer.
  PlausibleTimestamp ts({rng.next_u64() >> 8, rng.next_u64() >> 8, seq},
                        SiteId{3});
  ObjectCopy copy{ObjectId{static_cast<std::uint32_t>(seq % 100)},
                  Value{static_cast<std::int64_t>(seq)},
                  seq,
                  SimTime::micros(10),
                  SimTime::micros(500),
                  SimTime::micros(100),
                  ts,
                  ts};
  return Message{FetchReply{copy, seq}};
}

void no_op_handler(int) {}

TEST(BatchedFlush, DribblesWholeQueueThroughTinySndbufUnderSignals) {
  // sv[0] is the Connection's side; sv[1] is a slow reader.
  int sv[2] = {-1, -1};
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
  const int sndbuf = 4 * 1024;
  ASSERT_EQ(setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf)),
            0);

  // SIGUSR1 with SA_RESTART cleared: any syscall the storm interrupts
  // returns EINTR instead of restarting, which is exactly the path flush()
  // must absorb.
  struct sigaction sa {};
  sa.sa_handler = no_op_handler;
  sa.sa_flags = 0;
  ASSERT_EQ(sigaction(SIGUSR1, &sa, nullptr), 0);

  net::EventLoop loop;
  std::thread loop_thread([&] { loop.run(); });
  const pthread_t loop_tid = loop_thread.native_handle();

  // Expected byte stream: the exact frames, in enqueue order.
  Rng rng(42);
  const int kFrames = 300;
  std::vector<Message> msgs;
  std::vector<std::uint8_t> expected;
  for (int i = 0; i < kFrames; ++i) {
    msgs.push_back(test_message(rng, static_cast<std::uint64_t>(i + 1)));
    wire::encode_frame(SiteId{1}, SiteId{2}, msgs.back(), expected);
  }

  std::unique_ptr<net::Connection> conn;
  on_loop(loop, [&] {
    conn = std::make_unique<net::Connection>(loop, sv[0], false);
    conn->start([](net::Connection&, const wire::FrameView&) {},
                [](net::Connection&, const char*) {});
    for (const Message& m : msgs) conn->send_frame(SiteId{1}, SiteId{2}, m);
    return true;
  });

  std::atomic<bool> storm{true};
  std::thread signal_storm([&] {
    while (storm.load(std::memory_order_relaxed)) {
      pthread_kill(loop_tid, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // Drain slowly in small bites so the kernel buffer stays nearly full and
  // every flush() pass moves only a short prefix of the gather list.
  std::vector<std::uint8_t> received;
  std::vector<std::uint8_t> bite(512);
  while (received.size() < expected.size()) {
    const ssize_t n = read(sv[1], bite.data(), bite.size());
    if (n > 0) {
      received.insert(received.end(), bite.begin(), bite.begin() + n);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    } else {
      ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EINTR))
          << "reader saw errno " << errno;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  storm.store(false, std::memory_order_relaxed);
  signal_storm.join();

  ASSERT_EQ(received.size(), expected.size());
  EXPECT_TRUE(received == expected) << "delivered bytes differ";
  // Short sends actually happened: the queue could never fit in one call.
  EXPECT_GT(on_loop(loop, [&] { return conn->stats().flush_syscalls; }), 1u);

  on_loop(loop, [&] {
    conn->close("test done");
    conn.reset();
    return true;
  });
  loop.stop();
  loop_thread.join();
  close(sv[1]);
}

TEST(BatchedFlush, CoalescedFlushIsByteIdenticalToPerFrameSendsAndCheaper) {
  // Two socketpairs: one connection flushes per frame (the reference), the
  // other enqueues under a flush scheduler and flushes once.
  int ref_sv[2] = {-1, -1};
  int bat_sv[2] = {-1, -1};
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, ref_sv), 0);
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, bat_sv), 0);

  net::EventLoop loop;
  std::thread loop_thread([&] { loop.run(); });

  Rng rng(7);
  const int kFrames = 64;
  std::vector<Message> msgs;
  for (int i = 0; i < kFrames; ++i) {
    msgs.push_back(test_message(rng, static_cast<std::uint64_t>(i + 1)));
  }

  std::unique_ptr<net::Connection> ref_conn;
  std::unique_ptr<net::Connection> bat_conn;
  std::vector<net::Connection*> armed;
  const auto [ref_syscalls, bat_syscalls] = on_loop(loop, [&] {
    ref_conn = std::make_unique<net::Connection>(loop, ref_sv[0], false);
    ref_conn->start([](net::Connection&, const wire::FrameView&) {},
                    [](net::Connection&, const char*) {});
    bat_conn = std::make_unique<net::Connection>(loop, bat_sv[0], false);
    bat_conn->start([](net::Connection&, const wire::FrameView&) {},
                    [](net::Connection&, const char*) {});
    bat_conn->set_flush_scheduler(
        [&](net::Connection& c) { armed.push_back(&c); });
    for (const Message& m : msgs) {
      ref_conn->send_frame(SiteId{1}, SiteId{2}, m);  // flushes immediately
      bat_conn->send_frame(SiteId{1}, SiteId{2}, m);  // queues, arms once
    }
    // The scheduler armed exactly once for the whole burst; fire the
    // "tick end" by hand.
    EXPECT_EQ(armed.size(), 1u);
    for (net::Connection* c : armed) c->flush_batched();
    return std::make_pair(ref_conn->stats().flush_syscalls,
                          bat_conn->stats().flush_syscalls);
  });

  // The batched side used strictly fewer syscalls than frames (default
  // socketpair buffers hold the whole burst, so a single gather flush
  // suffices; the reference pays one per frame).
  EXPECT_EQ(ref_syscalls, static_cast<std::uint64_t>(kFrames));
  EXPECT_LT(bat_syscalls, static_cast<std::uint64_t>(kFrames));
  EXPECT_GE(bat_syscalls, 1u);

  auto drain = [](int fd) {
    std::vector<std::uint8_t> out;
    std::vector<std::uint8_t> buf(64 * 1024);
    for (;;) {
      const ssize_t n = read(fd, buf.data(), buf.size());
      if (n <= 0) break;
      out.insert(out.end(), buf.begin(), buf.begin() + n);
    }
    return out;
  };
  const std::vector<std::uint8_t> ref_bytes = drain(ref_sv[1]);
  const std::vector<std::uint8_t> bat_bytes = drain(bat_sv[1]);
  ASSERT_FALSE(ref_bytes.empty());
  EXPECT_TRUE(ref_bytes == bat_bytes)
      << "coalesced wire output differs from per-frame sends";

  on_loop(loop, [&] {
    ref_conn->close("done");
    bat_conn->close("done");
    ref_conn.reset();
    bat_conn.reset();
    return true;
  });
  loop.stop();
  loop_thread.join();
  close(ref_sv[1]);
  close(bat_sv[1]);
}

/// A write-ahead log as the send barrier sees it: apply() logs a write
/// whose reply may be queued next, the barrier commits. A byte leaving the
/// connection while a logged write is uncommitted is a violation; check()
/// catches it at the next event. Loop-thread only.
struct BarrierProbe {
  const net::Connection* conn = nullptr;
  bool uncommitted = false;
  std::uint64_t written_at_apply = 0;
  int violations = 0;
  int commits = 0;

  void check() {
    if (uncommitted && conn->stats().bytes_written > written_at_apply) {
      ++violations;
      uncommitted = false;  // count each escaped batch once
    }
  }
  void apply() {
    check();
    if (!uncommitted) written_at_apply = conn->stats().bytes_written;
    uncommitted = true;
  }
  void commit() {
    check();
    if (uncommitted) ++commits;
    uncommitted = false;
  }
};

TEST(BatchedFlush, SendBarrierRunsBeforeEverySendOnEveryFlushPath) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
  const int sndbuf = 4 * 1024;
  ASSERT_EQ(setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf)),
            0);
  net::EventLoop loop;
  std::thread loop_thread([&] { loop.run(); });

  Rng rng(11);
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> expected;
  std::vector<std::uint8_t> received;
  const auto drain_available = [&] {
    std::vector<std::uint8_t> buf(64 * 1024);
    for (;;) {
      const ssize_t n = read(sv[1], buf.data(), buf.size());
      if (n <= 0) break;
      received.insert(received.end(), buf.begin(), buf.begin() + n);
    }
  };

  BarrierProbe probe;
  const net::Connection::SendBarrier barrier = [&probe] { probe.commit(); };
  std::unique_ptr<net::Connection> conn;
  int armed = 0;
  // Log a write, then queue the reply that reveals it.
  const auto apply_and_reply = [&] {
    probe.apply();
    const Message m = test_message(rng, ++seq);
    wire::encode_frame(SiteId{1}, SiteId{2}, m, expected);
    conn->send_frame(SiteId{1}, SiteId{2}, m);
  };

  // 1. Tick-end flush: a batch of replies leaves in one flush_batched().
  on_loop(loop, [&] {
    conn = std::make_unique<net::Connection>(loop, sv[0], false);
    conn->start([](net::Connection&, const wire::FrameView&) {},
                [](net::Connection&, const char*) {});
    conn->set_flush_scheduler([&armed](net::Connection&) { ++armed; });
    conn->set_send_barrier(&barrier);
    probe.conn = conn.get();
    for (int i = 0; i < 8; ++i) apply_and_reply();
    EXPECT_EQ(conn->stats().bytes_written, 0u);  // queued, not sent
    conn->flush_batched();
    probe.check();
    EXPECT_GT(conn->stats().bytes_written, 0u);
    EXPECT_EQ(probe.commits, 1);
    return true;
  });
  drain_available();

  // 2. Bypass: past 256 KiB queued, a send flushes inside the tick. The
  // scheduler is never fired here, so every byte moved is a bypass flush.
  on_loop(loop, [&] {
    const int commits_before = probe.commits;
    const std::uint64_t written_before = conn->stats().bytes_written;
    while (conn->pending_write_bytes() < net::Connection::kFlushBypassBytes) {
      apply_and_reply();
    }
    for (int i = 0; i < 4; ++i) apply_and_reply();
    probe.check();
    EXPECT_GT(conn->stats().bytes_written, written_before);
    EXPECT_GT(probe.commits, commits_before);
    return true;
  });

  // 3. EPOLLOUT: the socket is full (EAGAIN) and a write is logged with no
  // send of its own; draining the reader wakes the loop, whose writable
  // flush must commit before it sends.
  const int commits_before = on_loop(loop, [&] {
    EXPECT_GT(conn->pending_write_bytes(), 0u);
    probe.apply();
    return probe.commits;
  });
  const std::uint64_t written_before =
      on_loop(loop, [&] { return conn->stats().bytes_written; });
  while (received.size() < expected.size()) {
    drain_available();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  on_loop(loop, [&] {
    probe.check();
    EXPECT_GT(conn->stats().bytes_written, written_before);
    EXPECT_EQ(probe.commits, commits_before + 1);
    EXPECT_EQ(probe.violations, 0);
    EXPECT_EQ(conn->pending_write_bytes(), 0u);
    return true;
  });
  EXPECT_EQ(armed, 2);  // phases 1 and 2: never fired in phase 2
  EXPECT_TRUE(received == expected) << "delivered bytes differ";

  on_loop(loop, [&] {
    conn->close("test done");
    conn.reset();
    return true;
  });
  loop.stop();
  loop_thread.join();
  close(sv[1]);
}

/// One raw blocking client: pipeline `burst` FetchRequests to `site`
/// through the shared port, read the echoed replies, return the byte
/// stream.
std::vector<std::uint8_t> echo_burst(std::uint16_t port, std::uint32_t site,
                                     std::uint32_t client_site, int burst,
                                     std::vector<std::uint8_t>& expected) {
  std::vector<std::uint8_t> request;
  expected.clear();
  for (int i = 0; i < burst; ++i) {
    const Message m{FetchRequest{ObjectId{static_cast<std::uint32_t>(i)},
                                 SiteId{client_site},
                                 static_cast<std::uint64_t>(i + 1)}};
    wire::encode_frame(SiteId{client_site}, SiteId{site}, m, request);
    // The echo server returns the identical message, re-framed from the
    // server site back to the client site.
    wire::encode_frame(SiteId{site}, SiteId{client_site}, m, expected);
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    EXPECT_GT(n, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }

  std::vector<std::uint8_t> received(expected.size());
  std::size_t got = 0;
  while (got < received.size()) {
    const ssize_t n = ::recv(fd, received.data() + got, received.size() - got, 0);
    if (n < 0 && errno == EINTR) continue;
    EXPECT_GT(n, 0);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return received;
}

TEST(ReactorSharding, EchoBurstsAreOrderedAndByteIdenticalAt1_2_8Reactors) {
  for (const std::size_t reactors : {std::size_t{1}, std::size_t{2},
                                     std::size_t{8}}) {
    net::ReactorGroup group(
        reactors, [reactors](SiteId to) -> std::size_t {
          return to.value < reactors ? to.value : reactors;
        });
    // Echo servers: every reactor site returns each protocol message to
    // its sender through the normal batched send path.
    for (std::size_t i = 0; i < reactors; ++i) {
      net::TcpTransport* tx = &group.transport(i);
      const SiteId self{static_cast<std::uint32_t>(i)};
      tx->register_site(self, [tx, self](SiteId from, const Message& m) {
        tx->send_message(self, from, m, 64);
      });
    }
    const std::uint16_t port = group.listen_shared(0);
    group.start();

    // One connection per reactor site, each pipelining a burst. Whichever
    // reactor accepts, steering must land the connection on its site's
    // owner and the reply stream must come back intact.
    const int kBurst = 200;
    for (std::size_t i = 0; i < reactors; ++i) {
      std::vector<std::uint8_t> expected;
      const std::vector<std::uint8_t> received =
          echo_burst(port, static_cast<std::uint32_t>(i),
                     static_cast<std::uint32_t>(1000 + i), kBurst, expected);
      ASSERT_EQ(received.size(), expected.size()) << reactors << " reactors";
      EXPECT_TRUE(received == expected)
          << "reply stream differs at " << reactors << " reactors, site " << i;
    }

    // With more than one reactor the kernel's accept sharding makes
    // steering probabilistic per connection, but the batched flush must
    // still have coalesced: strictly fewer sendmsg calls than frames sent.
    std::uint64_t frames = 0, syscalls = 0;
    for (std::size_t i = 0; i < reactors; ++i) {
      const auto stats = on_loop(group.loop(i), [&group, i] {
        return group.transport(i).stats();
      });
      frames += stats.frames_sent;
      syscalls += stats.flush_syscalls;
    }
    EXPECT_EQ(frames, static_cast<std::uint64_t>(kBurst) * reactors);
    EXPECT_LT(syscalls, frames) << reactors << " reactors";
    group.stop();
  }
}

/// Writes all of `bytes` to the non-blocking `fd`, waiting out EAGAIN.
void write_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else {
      ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EINTR));
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

/// Reads exactly `n` bytes from the non-blocking `fd`, waiting out EAGAIN.
std::vector<std::uint8_t> read_exactly(int fd, std::size_t n) {
  std::vector<std::uint8_t> got(n);
  std::size_t have = 0;
  while (have < n) {
    const ssize_t r = ::read(fd, got.data() + have, n - have);
    if (r > 0) {
      have += static_cast<std::size_t>(r);
    } else {
      EXPECT_TRUE(r < 0 && (errno == EAGAIN || errno == EINTR));
      if (r == 0) break;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  return got;
}

TEST(BatchedFlush, RequestReplyMakesNoEpollCtlAndEagainArmsEpolloutOnce) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
  net::EventLoop loop;
  std::thread loop_thread([&] { loop.run(); });

  // sv[0] is a server connection batched as TcpTransport batches: replies
  // enqueue and a tick-end hook flushes every connection that queued any.
  // It echoes each request frame back; sv[1] is the client.
  std::vector<net::Connection*> dirty;
  std::unique_ptr<net::Connection> conn;
  on_loop(loop, [&] {
    loop.add_tick_end_hook([&dirty] {
      for (net::Connection* c : dirty) c->flush_batched();
      dirty.clear();
    });
    conn = std::make_unique<net::Connection>(loop, sv[0], false);
    conn->start(
        [](net::Connection& c, const wire::FrameView& v) {
          c.send_raw_frame(wire::frame_bytes(v));
        },
        [](net::Connection&, const char*) {});
    conn->set_flush_scheduler(
        [&dirty](net::Connection& c) { dirty.push_back(&c); });
    return true;
  });
  const auto requests = [](int first, int count) {
    std::vector<std::uint8_t> bytes;
    for (int i = first; i < first + count; ++i) {
      wire::encode_frame(SiteId{1}, SiteId{2},
                         Message{FetchRequest{
                             ObjectId{static_cast<std::uint32_t>(i)},
                             SiteId{1}, static_cast<std::uint64_t>(i + 1)}},
                         bytes);
    }
    return bytes;
  };

  // 1. Rounds of a few pipelined requests, each answered before the next
  // round: the socket never fills, so the interest set never changes.
  constexpr int kRounds = 500;
  constexpr int kPipelined = 4;
  for (int round = 0; round < kRounds; ++round) {
    const std::vector<std::uint8_t> batch =
        requests(round * kPipelined, kPipelined);
    write_all(sv[1], batch);
    ASSERT_TRUE(read_exactly(sv[1], batch.size()) == batch)
        << "round " << round;
  }
  const net::ConnectionStats quiet =
      on_loop(loop, [&] { return conn->stats(); });
  EXPECT_EQ(quiet.frames_sent,
            static_cast<std::uint64_t>(kRounds) * kPipelined);
  EXPECT_EQ(quiet.interest_changes, 0u);

  // 2. A burst whose replies outgrow the socket buffer while the client
  // reads nothing: a flush hits EAGAIN and arms EPOLLOUT; once the client
  // reads, EPOLLOUT flushes drain the queue and disarm it.
  constexpr int kBurst = 20000;
  const std::vector<std::uint8_t> burst = requests(0, kBurst);
  write_all(sv[1], burst);
  ASSERT_TRUE(eventually_on(loop, [&] {
    return conn->stats().frames_decoded ==
           quiet.frames_decoded + static_cast<std::uint64_t>(kBurst);
  }));
  EXPECT_GT(on_loop(loop, [&] { return conn->pending_write_bytes(); }), 0u)
      << "the replies fit the socket buffer: no EAGAIN to test";
  EXPECT_TRUE(read_exactly(sv[1], burst.size()) == burst);
  ASSERT_TRUE(eventually_on(loop, [&] { return conn->pending_write_bytes() == 0; }));
  EXPECT_GE(on_loop(loop, [&] { return conn->stats().interest_changes; }), 2u);

  on_loop(loop, [&] {
    conn->close("test done");
    conn.reset();
    return true;
  });
  loop.stop();
  loop_thread.join();
  close(sv[1]);
}

}  // namespace
}  // namespace timedc
