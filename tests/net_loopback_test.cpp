// Loopback integration tests for the real TCP transport stack: an
// in-process timedc server (a cluster::Node, the timedc-server daemon, on an
// ephemeral 127.0.0.1 port) serving TSC clients over a second transport.
//
// The headline property is the paper's: a fault-free TSC execution over
// real sockets, with Delta far above the loopback RTT, yields a history
// that IS timed sequentially consistent — checked with the same
// reads_on_time / check_tsc machinery the sim experiments use.
//
// Also covered: the framed-transport hardening that request_id == 0
// ("unsequenced", a raw in-process test convention) is rejected by servers
// behind a real transport but still served on the raw sim path; and the
// write-ahead log's promise that an ack means the record is already in the
// kernel, checked from inside the client's ack handler.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <stdlib.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "clocks/physical_clock.hpp"
#include "cluster/node.hpp"
#include "common/rng.hpp"
#include "core/checkers.hpp"
#include "core/history.hpp"
#include "core/timed.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"
#include "protocol/server.hpp"
#include "protocol/timed_serial_cache.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "storage/wal.hpp"

namespace timedc {
namespace {

/// An in-process timedc-server: site 0 on an ephemeral port, with a
/// write-ahead log at "<state_file>.0" when a state file is given. Nothing
/// serves until start().
std::unique_ptr<cluster::Node> make_server(const std::string& state_file = "") {
  cluster::NodeConfig config;
  config.state_file = state_file;
  std::string error;
  std::unique_ptr<cluster::Node> node = cluster::Node::create(config, &error);
  EXPECT_NE(node, nullptr) << error;
  return node;
}

TEST(NetLoopback, TscWorkloadOverTcpIsTimedSequentiallyConsistent) {
  constexpr int kClients = 3;
  constexpr int kOpsPerClient = 8;
  const SimTime delta = SimTime::millis(200);  // far above loopback RTT

  const auto server = make_server();
  ASSERT_NE(server, nullptr);
  server->start();

  net::EventLoop loop;
  net::TcpTransport tx(loop, SimTime::millis(100));
  tx.add_route(SiteId{0}, "127.0.0.1", server->port());
  PerfectClock clock;
  std::vector<std::unique_ptr<TimedSerialCache>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<TimedSerialCache>(
        tx, SiteId{100 + static_cast<std::uint32_t>(c)}, SiteId{0}, &clock,
        delta, /*mark_old=*/true, MessageSizes{}));
    clients.back()->attach();
  }

  // The load generator's recording convention: writes at issue time, reads
  // at completion time (see tools/timedc_load.cpp).
  struct Rec {
    std::uint32_t site;
    bool is_write;
    ObjectId object;
    Value value;
    std::int64_t time_us;
  };
  std::vector<Rec> recs;
  std::vector<int> issued(kClients, 0);
  int done = 0;

  std::function<void(int)> issue = [&](int c) {
    if (issued[c] == kOpsPerClient) {
      if (++done == kClients) loop.stop();
      return;
    }
    const int seq = issued[c]++;
    const std::uint32_t site = static_cast<std::uint32_t>(c);
    const ObjectId object{static_cast<std::uint32_t>(seq % 2)};
    if (seq % 3 == 0) {
      const Value value{(c + 1) * 1000 + seq};
      const std::int64_t t = loop.now().as_micros();
      clients[c]->write(object, value, [&, c, site, object, value, t](SimTime) {
        recs.push_back(Rec{site, true, object, value, t});
        loop.post([&, c] { issue(c); });
      });
    } else {
      clients[c]->read(object, [&, c, site, object](Value v, SimTime at) {
        recs.push_back(Rec{site, false, object, v, at.as_micros()});
        loop.post([&, c] { issue(c); });
      });
    }
  };
  for (int c = 0; c < kClients; ++c) loop.post([&, c] { issue(c); });
  loop.run_after(SimTime::seconds(30), [&] { loop.stop(); });  // hang guard
  loop.run();
  server->stop(0);

  ASSERT_EQ(recs.size(), static_cast<std::size_t>(kClients * kOpsPerClient));
  EXPECT_EQ(tx.stats().decode_errors, 0u);
  EXPECT_EQ(tx.stats().unroutable, 0u);
  EXPECT_EQ(server->server(0).stats().rejected_unsequenced, 0u);

  // Per-site completion order is append order; bump equal-microsecond
  // neighbors to satisfy the History strictly-increasing invariant.
  HistoryBuilder builder(kClients);
  std::vector<std::int64_t> last(kClients, -1);
  for (const Rec& r : recs) {
    const std::int64_t t = std::max(r.time_us, last[r.site] + 1);
    last[r.site] = t;
    if (r.is_write) {
      builder.write(SiteId{r.site}, r.object, r.value, SimTime::micros(t));
    } else {
      builder.read(SiteId{r.site}, r.object, r.value, SimTime::micros(t));
    }
  }
  const History h = builder.build();

  // Every read on time at Delta (Definition 1), with per-read staleness
  // within budget, and the full TSC verdict (timing AND an SC witness).
  const TimedCheckResult timing = reads_on_time(h, TimedSpecPerfect{delta});
  EXPECT_TRUE(timing.all_on_time) << timing.late_reads.size() << " late reads";
  for (const ReadStaleness& s : per_read_staleness(h)) {
    EXPECT_LE(s.staleness, delta);
  }
  const TscResult tsc = check_tsc(h, TimedSpecEpsilon{delta, SimTime::zero()});
  EXPECT_TRUE(tsc.ok()) << "TSC verdict: " << to_cstring(tsc.verdict());
}

/// Reads a write-ahead log as it grows: the values of every complete
/// record so far.
class WalReader {
 public:
  explicit WalReader(const std::string& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    EXPECT_GE(fd_, 0);
  }
  ~WalReader() { ::close(fd_); }

  bool holds(Value v) {
    if (values_.count(v.value) == 0) catch_up();
    return values_.count(v.value) != 0;
  }

  std::size_t records() {
    catch_up();
    return values_.size();
  }

 private:
  void catch_up() {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) break;
      partial_.append(buf, static_cast<std::size_t>(n));
    }
    std::size_t start = 0;
    for (std::size_t nl; (nl = partial_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      storage::WalRecord rec;
      EXPECT_TRUE(storage::parse_wal_record(
          std::string_view(partial_).substr(start, nl - start), rec));
      values_.insert(rec.request.value.value);
    }
    partial_.erase(0, start);
  }

  int fd_;
  std::string partial_;
  std::unordered_set<std::int64_t> values_;
};

TEST(NetLoopback, EveryAckedWriteIsInTheWalWhenItsAckArrives) {
  constexpr int kClients = 8;
  constexpr int kWritesPerClient = 150;  // 1,200 writes in all
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = std::string(tmp != nullptr ? tmp : "/tmp") +
                    "/timedc_loopback_wal.XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string path = dir + "/wal.0";

  const auto server = make_server(dir + "/wal");
  ASSERT_NE(server, nullptr);
  // Tick-end hooks run in the node's order: the transport's flush,
  // registered when the node is built, before the log's commit, attached
  // by start(). A stall between them stands in for a slow rest of the
  // tick, so only the send barrier can get a record into the file before
  // its ack leaves.
  server->loop(0).add_tick_end_hook([&server] {
    if (server->wal(0)->pending_bytes() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  server->start();
  net::EventLoop loop;
  net::TcpTransport tx(loop, SimTime::millis(100));
  tx.add_route(SiteId{0}, "127.0.0.1", server->port());
  PerfectClock clock;
  std::vector<std::unique_ptr<TimedSerialCache>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<TimedSerialCache>(
        tx, SiteId{100 + static_cast<std::uint32_t>(c)}, SiteId{0}, &clock,
        SimTime::millis(200), /*mark_old=*/true, MessageSizes{}));
    clients.back()->attach();
  }

  // Each client writes back to back over a few shared objects, so the
  // server applies several writes per tick and group-commits them.
  WalReader reader(path);
  int acked = 0;
  int missing = 0;
  std::vector<int> issued(kClients, 0);
  int done = 0;
  std::function<void(int)> issue = [&](int c) {
    if (issued[c] == kWritesPerClient) {
      if (++done == kClients) loop.stop();
      return;
    }
    const int seq = issued[c]++;
    const ObjectId object{static_cast<std::uint32_t>(seq % 4)};
    const Value value{(c + 1) * 100000 + seq};
    clients[c]->write(object, value, [&, c, value](SimTime) {
      ++acked;
      if (!reader.holds(value)) ++missing;
      issue(c);
    });
  };
  for (int c = 0; c < kClients; ++c) loop.post([&, c] { issue(c); });
  loop.run_after(SimTime::seconds(30), [&] { loop.stop(); });  // hang guard
  loop.run();
  server->stop(0);

  EXPECT_EQ(acked, kClients * kWritesPerClient);
  EXPECT_EQ(missing, 0) << "acks arrived before their WAL records";
  EXPECT_EQ(reader.records(),
            static_cast<std::size_t>(kClients * kWritesPerClient));
  EXPECT_EQ(server->server(0).stats().writes_applied,
            static_cast<std::uint64_t>(kClients * kWritesPerClient));
  ::unlink(path.c_str());
  ::rmdir(dir.c_str());
}

TEST(NetLoopback, UnsequencedRequestIsRejectedOverTcp) {
  const auto server = make_server();
  ASSERT_NE(server, nullptr);
  server->start();

  net::EventLoop loop;
  net::TcpTransport tx(loop, SimTime::millis(100));
  tx.add_route(SiteId{0}, "127.0.0.1", server->port());

  std::vector<Message> replies;
  tx.register_site(SiteId{500}, [&](SiteId, const Message& m) {
    replies.push_back(m);
    loop.stop();
  });
  loop.post([&] {
    // Both requests leave on one connection, so the server handles them in
    // order: the id-0 fetch is processed (and rejected) strictly before the
    // id-1 fetch whose reply ends the loop.
    tx.send_message(SiteId{500}, SiteId{0},
                    Message{FetchRequest{ObjectId{1}, SiteId{500}, 0}}, 64);
    tx.send_message(SiteId{500}, SiteId{0},
                    Message{FetchRequest{ObjectId{1}, SiteId{500}, 1}}, 64);
  });
  loop.run_after(SimTime::seconds(30), [&] { loop.stop(); });  // hang guard
  loop.run();
  server->stop(0);

  ASSERT_EQ(replies.size(), 1u);
  const auto* reply = std::get_if<FetchReply>(&replies[0]);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->request_id, 1u);
  EXPECT_EQ(server->server(0).stats().rejected_unsequenced, 1u);
  EXPECT_EQ(server->server(0).stats().fetches, 1u);
}

TEST(NetLoopback, UnsequencedRequestStillServedOnRawSimPath) {
  Simulator sim;
  Network net(sim, 2, std::make_unique<FixedLatency>(SimTime::micros(10)),
              NetworkConfig{}, Rng(1));
  ObjectServer server(sim, net, SiteId{0}, 2, PushPolicy::kNone,
                      MessageSizes{});
  server.attach();

  std::vector<Message> replies;
  net.register_site(SiteId{1},
                    [&](SiteId, const Message& m) { replies.push_back(m); });
  net.send_message(SiteId{1}, SiteId{0},
                   Message{FetchRequest{ObjectId{1}, SiteId{1}, 0}}, 64);
  sim.run_until();

  ASSERT_EQ(replies.size(), 1u);
  EXPECT_NE(std::get_if<FetchReply>(&replies[0]), nullptr);
  EXPECT_EQ(server.stats().rejected_unsequenced, 0u);
  EXPECT_EQ(server.stats().fetches, 1u);
}

}  // namespace
}  // namespace timedc
