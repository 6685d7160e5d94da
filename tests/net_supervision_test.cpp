// Connection supervision over real sockets: learned-return-path purging on
// close (the killed-peer regression), reconnect with queued-frame flush,
// heartbeat liveness marking a black-holing peer DEAD, per-status decode
// error counters through the stats bridge, transmit-time client failover to
// a live replica, the bounded per-peer frame queue's drop policy, cluster
// forwarding with a misrouting client (no reply relay loops), each cluster
// and self-healing frame reaching its handler between two members, and the
// dial-on-first-touch contract of the senders that never queue.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clocks/physical_clock.hpp"
#include "cluster/node.hpp"
#include "cluster/ring.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/stats_bridge.hpp"
#include "protocol/server.hpp"
#include "protocol/timed_serial_cache.hpp"

namespace timedc {
namespace {

template <typename F>
auto on_loop(net::EventLoop& loop, F fn) -> decltype(fn()) {
  std::promise<decltype(fn())> result;
  auto fut = result.get_future();
  loop.post([&] { result.set_value(fn()); });
  return fut.get();
}

/// Polls `pred` (evaluated on the loop thread) for up to ~10s.
template <typename F>
bool poll_loop(net::EventLoop& loop, F pred) {
  for (int spin = 0; spin < 2000; ++spin) {
    if (on_loop(loop, pred)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

/// A transport on its own loop thread, listening on an ephemeral port.
class NetNode {
 public:
  explicit NetNode(SimTime latency_bound = SimTime::millis(100))
      : transport_(loop_, latency_bound) {
    port_ = transport_.listen(0);
  }
  ~NetNode() {
    if (thread_.joinable()) stop();
  }

  void start() {
    thread_ = std::thread([this] { loop_.run(); });
  }
  void stop() {
    net::TcpTransport* t = &transport_;
    loop_.post([t] { t->close_all(); });
    loop_.stop();
    thread_.join();
  }

  net::EventLoop& loop() { return loop_; }
  net::TcpTransport& transport() { return transport_; }
  std::uint16_t port() const { return port_; }

 private:
  net::EventLoop loop_;
  net::TcpTransport transport_;
  std::thread thread_;
  std::uint16_t port_ = 0;
};

TEST(NetSupervision, LearnedReturnPathIsPurgedWhenPeerDies) {
  NetNode server;
  int server_got = 0;
  server.transport().register_site(
      SiteId{0}, [&](SiteId, const Message&) { ++server_got; });
  server.start();

  // A client connects, sends one frame, and the server learns that replies
  // to site 100 go down this connection.
  auto client = std::make_unique<NetNode>();
  client->transport().add_route(SiteId{0}, "127.0.0.1", server.port());
  client->start();
  on_loop(client->loop(), [&] {
    client->transport().send_message(SiteId{100}, SiteId{0},
                                     Message{FetchRequest{ObjectId{1}, SiteId{100}, 1}},
                                     64);
    return true;
  });
  ASSERT_TRUE(poll_loop(server.loop(), [&] { return server_got == 1; }));

  // Kill the client. The server must notice the close and purge the
  // learned path: a reply addressed to site 100 is now unroutable, not a
  // write into a dead connection object.
  client->stop();
  client.reset();
  ASSERT_TRUE(poll_loop(server.loop(), [&] {
    return server.transport().stats().connections_closed >= 1;
  }));
  const std::uint64_t unroutable = on_loop(server.loop(), [&] {
    server.transport().send_message(
        SiteId{0}, SiteId{100}, Message{FetchRequest{ObjectId{1}, SiteId{0}, 2}},
        64);
    return server.transport().stats().unroutable;
  });
  EXPECT_EQ(unroutable, 1u);
  server.stop();
}

TEST(NetSupervision, ReconnectAfterRefusalFlushesQueuedFrames) {
  // Reserve a port, then free it so the first dials are refused.
  std::uint16_t port = 0;
  {
    net::EventLoop tmp_loop;
    net::TcpTransport tmp(tmp_loop);
    port = tmp.listen(0);
  }

  NetNode client;
  client.transport().add_route(SiteId{0}, "127.0.0.1", port);
  net::SupervisionConfig sup;
  sup.enabled = true;
  sup.backoff_base = SimTime::millis(10);
  sup.backoff_cap = SimTime::millis(50);
  sup.dead_after_failures = 1000;  // never give up in this test
  sup.heartbeat_interval = SimTime::millis(50);
  client.transport().set_supervision(sup);
  client.start();

  constexpr int kFrames = 5;
  on_loop(client.loop(), [&] {
    for (int i = 0; i < kFrames; ++i) {
      client.transport().send_message(
          SiteId{100}, SiteId{0},
          Message{FetchRequest{ObjectId{1}, SiteId{100},
                               static_cast<std::uint64_t>(i + 1)}},
          64);
    }
    return true;
  });
  // Let a few refused dials accumulate before the server appears.
  ASSERT_TRUE(poll_loop(client.loop(), [&] {
    return client.transport().stats().reconnect_attempts >= 2;
  }));
  const net::ConnectionState mid = on_loop(client.loop(), [&] {
    return client.transport().connection_state(SiteId{0});
  });
  // Between refusals the peer is either waiting out a backoff or mid-dial.
  EXPECT_TRUE(mid == net::ConnectionState::kBackoff ||
              mid == net::ConnectionState::kConnecting)
      << to_cstring(mid);

  // The server comes up on the very same port: the next re-dial succeeds
  // and the queued frames flush in order.
  net::EventLoop server_loop;
  net::TcpTransport server_tx(server_loop);
  ASSERT_EQ(server_tx.listen(port), port);
  int server_got = 0;
  std::uint64_t last_request_id = 0;
  server_tx.register_site(SiteId{0}, [&](SiteId, const Message& m) {
    ++server_got;
    last_request_id = std::get<FetchRequest>(m).request_id;
  });
  std::thread server_thread([&] { server_loop.run(); });

  EXPECT_TRUE(poll_loop(server_loop, [&] { return server_got == kFrames; }));
  EXPECT_EQ(on_loop(server_loop, [&] { return last_request_id; }),
            static_cast<std::uint64_t>(kFrames));
  const net::TcpTransportStats stats =
      on_loop(client.loop(), [&] { return client.transport().stats(); });
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_EQ(stats.frames_queued, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(stats.frames_requeued, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(stats.frames_dropped_queue_full, 0u);
  EXPECT_EQ(on_loop(client.loop(), [&] {
    return client.transport().connection_state(SiteId{0});
  }), net::ConnectionState::kHealthy);

  net::TcpTransport* t = &server_tx;
  server_loop.post([t] { t->close_all(); });
  server_loop.stop();
  server_thread.join();
  client.stop();
}

TEST(NetSupervision, BlackholingPeerGoesDeadByLivenessExpiry) {
  // A listener whose backlog completes TCP handshakes but that never reads
  // or writes: connects "succeed", yet no frame ever arrives. Only the
  // heartbeat liveness deadline can unmask it.
  const int blackhole = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  ASSERT_GE(blackhole, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(blackhole, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(blackhole, 64), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(blackhole, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::uint16_t port = ntohs(addr.sin_port);

  NetNode client(SimTime::millis(5));  // liveness = 2*20ms + 2*5ms = 50ms
  client.transport().add_route(SiteId{0}, "127.0.0.1", port);
  net::SupervisionConfig sup;
  sup.enabled = true;
  sup.heartbeat_interval = SimTime::millis(20);
  sup.backoff_base = SimTime::millis(10);
  sup.backoff_cap = SimTime::millis(50);
  sup.dead_after_failures = 2;
  client.transport().set_supervision(sup);
  client.start();

  on_loop(client.loop(), [&] {
    client.transport().send_message(SiteId{100}, SiteId{0},
                                    Message{FetchRequest{ObjectId{1}, SiteId{100}, 1}},
                                    64);
    return true;
  });
  // DEAD peers are re-probed, so the state can oscillate: take state,
  // counters and reachability in one loop-thread snapshot.
  net::TcpTransportStats stats;
  bool reachable = true;
  ASSERT_TRUE(poll_loop(client.loop(), [&] {
    stats = client.transport().stats();
    reachable = client.transport().peer_reachable(SiteId{0});
    return client.transport().connection_state(SiteId{0}) ==
           net::ConnectionState::kDead;
  }));
  EXPECT_GE(stats.heartbeats_sent, 1u);
  EXPECT_GE(stats.liveness_expiries, 1u);
  EXPECT_GE(stats.peers_marked_dead, 1u);
  EXPECT_EQ(stats.peers_by_state[static_cast<int>(net::ConnectionState::kDead)],
            1u);
  EXPECT_FALSE(reachable);
  client.stop();
  ::close(blackhole);
}

TEST(NetSupervision, DecodeErrorsAreCountedByStatusAndPublished) {
  NetNode server;
  server.transport().register_site(SiteId{0}, [](SiteId, const Message&) {});
  server.start();

  // A raw socket speaking garbage: the first 16 bytes fail the magic check.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char garbage[32] = "this is not a timedc frame!";
  ASSERT_EQ(::write(fd, garbage, sizeof(garbage)),
            static_cast<ssize_t>(sizeof(garbage)));

  ASSERT_TRUE(poll_loop(server.loop(), [&] {
    return server.transport().stats().decode_errors >= 1;
  }));
  const net::TcpTransportStats stats =
      on_loop(server.loop(), [&] { return server.transport().stats(); });
  EXPECT_EQ(stats.decode_errors, 1u);
  EXPECT_EQ(stats.decode_errors_by_status[static_cast<std::size_t>(
                wire::DecodeStatus::kBadMagic)],
            1u);

  // Through the stats bridge the failure shows up as a named counter.
  MetricsRegistry reg;
  publish_tcp_transport_stats(reg, "net", stats);
  EXPECT_EQ(reg.counter("net.decode_error.bad-magic"), 1u);
  EXPECT_EQ(reg.counter("net.decode_error.bad-version"), 0u);

  ::close(fd);
  server.stop();
}

TEST(StatsBridge, PublishesBatchingSteeringAndIntrospectionCounters) {
  // The serving-path counters the N-reactor stack added (steering, batched
  // flushes, syscall coalescing) and the introspection counters must all
  // survive the bridge into named metrics — a dropped field here silently
  // blinds timedc-top and the metrics dumps.
  net::TcpTransportStats stats;
  stats.connections_steered_out = 3;
  stats.connections_steered_in = 2;
  stats.batch_flushes = 1000;
  stats.flush_syscalls = 250;
  stats.frames_sent = 4000;
  stats.stats_requests_served = 7;
  stats.stats_replies_received = 5;

  MetricsRegistry reg;
  publish_tcp_transport_stats(reg, "net", stats);
  EXPECT_EQ(reg.counter("net.connections_steered_out"), 3u);
  EXPECT_EQ(reg.counter("net.connections_steered_in"), 2u);
  EXPECT_EQ(reg.counter("net.batch_flushes"), 1000u);
  EXPECT_EQ(reg.counter("net.flush_syscalls"), 250u);
  EXPECT_EQ(reg.counter("net.frames_sent"), 4000u);
  EXPECT_EQ(reg.counter("net.stats_requests_served"), 7u);
  EXPECT_EQ(reg.counter("net.stats_replies_received"), 5u);

  // Aggregation contract: publishing a second transport's stats adds.
  publish_tcp_transport_stats(reg, "net", stats);
  EXPECT_EQ(reg.counter("net.connections_steered_out"), 6u);
  EXPECT_EQ(reg.counter("net.batch_flushes"), 2000u);
}

TEST(NetSupervision, ClientFailsOverToReplicaWhenPrimaryIsDead) {
  // Replica server on site 1 (single-server mode: it owns every object).
  net::EventLoop replica_loop;
  net::TcpTransport replica_tx(replica_loop);
  const std::uint16_t replica_port = replica_tx.listen(0);
  ObjectServer replica(replica_tx, SiteId{1}, 4, PushPolicy::kNone,
                       MessageSizes{});
  replica.attach();
  std::thread replica_thread([&] { replica_loop.run(); });

  // The primary (site 0) is a dead port: reserve one, then free it.
  std::uint16_t dead_port = 0;
  {
    net::EventLoop tmp_loop;
    net::TcpTransport tmp(tmp_loop);
    dead_port = tmp.listen(0);
  }

  net::EventLoop loop;
  net::TcpTransport tx(loop, SimTime::millis(50));
  tx.add_route(SiteId{0}, "127.0.0.1", dead_port);
  tx.add_route(SiteId{1}, "127.0.0.1", replica_port);
  net::SupervisionConfig sup;
  sup.enabled = true;
  sup.backoff_base = SimTime::millis(5);
  sup.backoff_cap = SimTime::millis(20);
  sup.dead_after_failures = 2;
  sup.heartbeat_interval = SimTime::millis(50);
  tx.set_supervision(sup);
  PerfectClock clock;
  TimedSerialCache client(tx, SiteId{100}, SiteId{0}, &clock,
                          SimTime::millis(20), /*mark_old=*/true,
                          MessageSizes{});
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.base_timeout = SimTime::millis(50);
  client.configure_reliability(policy, {SiteId{0}, SiteId{1}}, 7);
  client.attach();

  Value got{-1};
  bool done = false;
  loop.post([&] {
    client.read(ObjectId{3}, [&](Value v, SimTime) {
      got = v;
      done = true;
      loop.stop();
    });
  });
  loop.run_after(SimTime::seconds(30), [&] { loop.stop(); });  // hang guard
  std::thread client_thread([&] { loop.run(); });
  client_thread.join();

  EXPECT_TRUE(done);
  EXPECT_EQ(got, Value{0});  // the replica's initial value, a real answer
  EXPECT_GE(client.stats().failovers, 1u);
  EXPECT_EQ(client.stats().ops_abandoned, 0u);
  // The dead primary is re-probed forever, so it may be mid-probe
  // (kConnecting) at shutdown — but it can never look healthy.
  EXPECT_NE(tx.connection_state(SiteId{0}), net::ConnectionState::kHealthy);

  net::TcpTransport* rt = &replica_tx;
  replica_loop.post([rt] { rt->close_all(); });
  replica_loop.stop();
  replica_thread.join();
}

TEST(NetSupervision, BoundedQueueDropsOldestWhenFull) {
  std::uint16_t dead_port = 0;
  {
    net::EventLoop tmp_loop;
    net::TcpTransport tmp(tmp_loop);
    dead_port = tmp.listen(0);
  }

  NetNode client;
  client.transport().add_route(SiteId{9}, "127.0.0.1", dead_port);
  net::SupervisionConfig sup;
  sup.enabled = true;
  sup.max_queued_frames = 3;
  sup.dead_after_failures = 1000;
  sup.backoff_base = SimTime::millis(50);
  client.transport().set_supervision(sup);
  client.start();

  constexpr int kSends = 8;
  const net::TcpTransportStats stats = on_loop(client.loop(), [&] {
    for (int i = 0; i < kSends; ++i) {
      client.transport().send_message(
          SiteId{100}, SiteId{9},
          Message{FetchRequest{ObjectId{1}, SiteId{100},
                               static_cast<std::uint64_t>(i + 1)}},
          64);
    }
    return client.transport().stats();
  });
  EXPECT_EQ(stats.frames_queued, static_cast<std::uint64_t>(kSends));
  EXPECT_EQ(stats.frames_dropped_queue_full,
            static_cast<std::uint64_t>(kSends - 3));
  client.stop();
}

/// A free loopback port, bound and released at once: for a node whose
/// peers must know its port before it binds.
std::uint16_t free_port() {
  net::EventLoop loop;
  net::TcpTransport probe(loop);
  return probe.listen(0);
}

/// A --cluster deployment in one process: `members` single-site nodes (the
/// timedc-server daemon) with ring ownership and supervised routes to every
/// other member, each dialing the others at start as the daemon does. A
/// client misroutes every op, rotating over the members that do not own
/// its object on the ring, so each member forwards to each other member
/// and replies come back through a forwarder.
void run_misrouting_cluster(std::uint32_t members) {
  std::vector<SiteId> sites;
  std::vector<std::uint16_t> ports;
  for (std::uint32_t i = 0; i < members; ++i) {
    sites.push_back(SiteId{i});
    ports.push_back(free_port());
  }
  std::vector<std::unique_ptr<cluster::Node>> nodes;
  for (std::uint32_t i = 0; i < members; ++i) {
    cluster::NodeConfig config;
    config.port = ports[i];
    config.site_base = i;
    config.cluster_size = members;
    config.cluster = true;
    config.heartbeat_ms = 50;
    for (std::uint32_t j = 0; j < members; ++j) {
      if (j != i) config.peers.push_back({j, "127.0.0.1", ports[j]});
    }
    std::string error;
    nodes.push_back(cluster::Node::create(config, &error));
    ASSERT_NE(nodes.back(), nullptr) << error;
  }
  for (auto& node : nodes) node->start();
  for (std::uint32_t i = 0; i < members; ++i) {
    for (std::uint32_t j = 0; j < members; ++j) {
      if (j == i) continue;
      ASSERT_TRUE(poll_loop(nodes[i]->loop(0), [&] {
        return nodes[i]->transport(0).connection_state(SiteId{j}) ==
               net::ConnectionState::kHealthy;
      }));
    }
  }

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 30;
  net::EventLoop loop;
  net::TcpTransport tx(loop, SimTime::millis(100));
  for (std::uint32_t i = 0; i < members; ++i) {
    tx.add_route(SiteId{i}, "127.0.0.1", nodes[i]->port());
  }
  cluster::HashRing ring;  // the members' own ring: same list, same owners
  ring.set_members(sites);
  PerfectClock clock;
  std::uint32_t misroutes = 0;
  std::vector<std::unique_ptr<TimedSerialCache>> clients;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    auto client = std::make_unique<TimedSerialCache>(
        tx, SiteId{100 + c}, SiteId{0}, &clock, SimTime::millis(200),
        /*mark_old=*/true, MessageSizes{});
    client->set_route([members, &ring, &misroutes](ObjectId object) {
      const std::uint32_t hop = 1 + misroutes++ % (members - 1);
      return SiteId{(ring.owner_of(object).value + hop) % members};
    });
    // One retry, far beyond any loopback round trip: a lost or looping
    // reply shows up as a retry instead of a hang.
    RetryPolicy policy;
    policy.max_attempts = 2;
    policy.base_timeout = SimTime::seconds(5);
    client->configure_reliability(policy, sites, 11 + c);
    client->attach();
    clients.push_back(std::move(client));
  }

  std::vector<int> issued(kClients, 0);
  int completed = 0;
  std::function<void(int)> issue = [&](int c) {
    if (issued[c] == kOpsPerClient) return;
    const int seq = issued[c]++;
    const ObjectId object{static_cast<std::uint32_t>((c + seq) % 6)};
    auto next = [&, c] {
      if (++completed == kClients * kOpsPerClient) loop.stop();
      loop.post([&, c] { issue(c); });
    };
    if (seq % 3 == 0) {
      clients[c]->write(object, Value{(c + 1) * 1000 + seq},
                        [next](SimTime) { next(); });
    } else {
      clients[c]->read(object, [next](Value, SimTime) { next(); });
    }
  };
  for (int c = 0; c < kClients; ++c) loop.post([&, c] { issue(c); });
  loop.run_after(SimTime::seconds(20), [&] { loop.stop(); });  // hang guard
  loop.run();

  EXPECT_EQ(completed, kClients * kOpsPerClient);
  for (const auto& client : clients) {
    EXPECT_EQ(client->stats().retries, 0u);
    EXPECT_EQ(client->stats().ops_abandoned, 0u);
  }
  std::uint64_t forwards_out = 0;
  std::uint64_t relayed = 0;
  for (auto& node : nodes) {
    const net::TcpTransportStats stats =
        on_loop(node->loop(0), [&] { return node->transport(0).stats(); });
    forwards_out += stats.forwards_out;
    relayed += stats.relayed;
  }
  EXPECT_GT(forwards_out, 0u);
  EXPECT_LE(relayed, forwards_out);
}

TEST(NetCluster, TwoMembersMisroutedOpsCompleteWithoutRelayLoops) {
  run_misrouting_cluster(2);
}

TEST(NetCluster, ThreeMembersMisroutedOpsCompleteWithoutRelayLoops) {
  run_misrouting_cluster(3);
}

/// Two cluster members, a (site 0) and b (site 1), each on its own loop
/// with a supervised route to the other. Install handlers, then start():
/// it primes both routes and waits until they are healthy.
class MemberPair {
 public:
  MemberPair() {
    net::SupervisionConfig sup;
    sup.enabled = true;
    sup.heartbeat_interval = SimTime::millis(50);
    a_.transport().enable_cluster(SiteId{0});
    b_.transport().enable_cluster(SiteId{1});
    a_.transport().add_route(SiteId{1}, "127.0.0.1", b_.port());
    b_.transport().add_route(SiteId{0}, "127.0.0.1", a_.port());
    a_.transport().set_supervision(sup);
    b_.transport().set_supervision(sup);
  }

  void start() {
    a_.start();
    b_.start();
    prime(a_, SiteId{1});
    prime(b_, SiteId{0});
  }

  NetNode& a() { return a_; }
  NetNode& b() { return b_; }

 private:
  static void prime(NetNode& node, SiteId peer) {
    on_loop(node.loop(), [&] {
      node.transport().prime_supervised(peer);
      return true;
    });
    ASSERT_TRUE(poll_loop(node.loop(), [&] {
      return node.transport().connection_state(peer) ==
             net::ConnectionState::kHealthy;
    }));
  }

  NetNode a_;
  NetNode b_;
};

/// What one protocol handler saw: sender, message, and whether the
/// transport pinned the dispatch to local state.
struct Delivery {
  SiteId from;
  Message message;
  bool serve_locally = false;
};

// In each test below, what the handlers record is declared before the
// MemberPair, so the loops stop before that state is destroyed.

TEST(NetCluster, SliceSyncIsAnsweredByTheDonorsServer) {
  const wire::SliceSyncRequest sent{9, 3, 2, 16, 500};
  const std::vector<wire::SliceRecord> records = {{4, -7, 3, 1000, 100, 11},
                                                  {5, 8, 1, 2000, 101, 12}};
  std::vector<std::pair<SiteId, wire::SliceSyncRequest>> served;
  struct Reply {
    SiteId donor;
    std::uint64_t seq, ring_epoch;
    std::uint8_t status;
    std::uint32_t next_cursor;
    std::vector<wire::SliceRecord> records;
  };
  std::vector<Reply> replies;
  MemberPair pair;
  pair.b().transport().set_ring(5, std::vector<std::uint32_t>{0, 1});
  pair.b().transport().set_slice_sync_server(
      [&](SiteId requester, const wire::SliceSyncRequest& rq,
          std::vector<wire::SliceRecord>& out, std::uint32_t& next_cursor) {
        served.emplace_back(requester, rq);
        out = records;
        next_cursor = 42;
        return wire::kSliceMore;
      });
  pair.a().transport().set_slice_sync_reply_handler(
      [&](SiteId donor, std::uint64_t seq, std::uint64_t ring_epoch,
          std::uint8_t status, std::uint32_t next_cursor,
          std::span<const wire::SliceRecord> recs) {
        replies.push_back({donor, seq, ring_epoch, status, next_cursor,
                           {recs.begin(), recs.end()}});
      });
  pair.start();

  EXPECT_TRUE(on_loop(pair.a().loop(), [&] {
    return pair.a().transport().send_slice_sync(SiteId{0}, SiteId{1}, sent);
  }));
  ASSERT_TRUE(poll_loop(pair.a().loop(), [&] { return !replies.empty(); }));
  on_loop(pair.b().loop(), [&] {
    EXPECT_EQ(served.size(), 1u);
    EXPECT_EQ(served.at(0).first, SiteId{0});
    EXPECT_EQ(served.at(0).second, sent);
    EXPECT_EQ(pair.b().transport().stats().slice_sync_served, 1u);
    return true;
  });
  on_loop(pair.a().loop(), [&] {
    EXPECT_EQ(replies.size(), 1u);
    const Reply& r = replies.at(0);
    EXPECT_EQ(r.donor, SiteId{1});
    EXPECT_EQ(r.seq, sent.seq);
    EXPECT_EQ(r.ring_epoch, 5u);
    EXPECT_EQ(r.status, wire::kSliceMore);
    EXPECT_EQ(r.next_cursor, 42u);
    EXPECT_EQ(r.records, records);
    EXPECT_EQ(pair.a().transport().stats().slice_sync_sent, 1u);
    EXPECT_EQ(pair.a().transport().stats().slice_sync_replies, 1u);
    return true;
  });
}

TEST(NetCluster, CacherSubscribeReachesTheOwnersHandler) {
  const wire::CacherSubscribe sent{ObjectId{6}, SiteId{0}, 1};
  std::vector<std::pair<SiteId, wire::CacherSubscribe>> got;
  MemberPair pair;
  pair.b().transport().set_cacher_subscribe_handler(
      [&](SiteId to, const wire::CacherSubscribe& cs) {
        got.emplace_back(to, cs);
      });
  pair.start();

  EXPECT_TRUE(on_loop(pair.a().loop(), [&] {
    return pair.a().transport().send_cacher_subscribe(SiteId{0}, SiteId{1},
                                                      sent);
  }));
  ASSERT_TRUE(poll_loop(pair.b().loop(), [&] { return !got.empty(); }));
  on_loop(pair.b().loop(), [&] {
    EXPECT_EQ(got.size(), 1u);
    EXPECT_EQ(got.at(0).first, SiteId{1});
    EXPECT_EQ(got.at(0).second, sent);
    EXPECT_EQ(pair.b().transport().stats().subscribes_received, 1u);
    return true;
  });
}

TEST(NetCluster, StaleEpochForwardIsServedAndBouncedAsRingUpdate) {
  const std::vector<std::uint32_t> ring = {0, 1};
  const Message request{FetchRequest{ObjectId{4}, SiteId{100}, 77}};
  std::vector<Delivery> served;
  struct Hint {
    SiteId sender;
    std::uint64_t epoch;
    std::vector<std::uint32_t> members;
  };
  std::vector<Hint> hints;
  MemberPair pair;
  pair.b().transport().set_ring(5, ring);
  pair.b().transport().register_site(
      SiteId{1}, [&](SiteId from, const Message& m) {
        served.push_back(
            {from, m, pair.b().transport().dispatch_serve_locally()});
      });
  pair.a().transport().register_site(SiteId{0},
                                     [](SiteId, const Message&) {});
  pair.a().transport().set_ring_update_handler(
      [&](SiteId sender, std::uint64_t epoch,
          std::span<const std::uint32_t> members) {
        hints.push_back({sender, epoch, {members.begin(), members.end()}});
      });
  pair.start();

  // Server a forwards a client's request (reply_to != from) under ring
  // epoch 0; b serves it and tells a about its epoch-5 ring.
  on_loop(pair.a().loop(), [&] {
    pair.a().transport().send_message(SiteId{0}, SiteId{1}, request, 64);
    return true;
  });
  ASSERT_TRUE(poll_loop(pair.a().loop(), [&] { return !hints.empty(); }));
  ASSERT_TRUE(poll_loop(pair.b().loop(), [&] { return !served.empty(); }));
  on_loop(pair.a().loop(), [&] {
    EXPECT_EQ(hints.size(), 1u);
    EXPECT_EQ(hints.at(0).sender, SiteId{1});
    EXPECT_EQ(hints.at(0).epoch, 5u);
    EXPECT_EQ(hints.at(0).members, ring);
    EXPECT_EQ(pair.a().transport().stats().forwards_out, 1u);
    EXPECT_EQ(pair.a().transport().stats().ring_updates_received, 1u);
    return true;
  });
  on_loop(pair.b().loop(), [&] {
    EXPECT_EQ(served.size(), 1u);
    EXPECT_EQ(served.at(0).from, SiteId{100});
    EXPECT_EQ(served.at(0).message, request);
    EXPECT_FALSE(served.at(0).serve_locally);
    EXPECT_EQ(pair.b().transport().stats().forwards_in, 1u);
    EXPECT_EQ(pair.b().transport().stats().stale_forwards, 1u);
    EXPECT_EQ(pair.b().transport().stats().ring_updates_sent, 1u);
    return true;
  });
}

TEST(NetCluster, ServeHereForwardIsDispatchedAsServeLocally) {
  const Message request{FetchRequest{ObjectId{4}, SiteId{100}, 78}};
  std::vector<Delivery> served;
  MemberPair pair;
  // b's ring is ahead of a's, yet a serve-here forward is never bounced.
  pair.b().transport().set_ring(5, std::vector<std::uint32_t>{0, 1});
  pair.b().transport().register_site(
      SiteId{1}, [&](SiteId from, const Message& m) {
        served.push_back(
            {from, m, pair.b().transport().dispatch_serve_locally()});
      });
  pair.start();

  EXPECT_TRUE(on_loop(pair.a().loop(), [&] {
    return pair.a().transport().forward_serve_here(SiteId{100}, SiteId{1},
                                                   request);
  }));
  ASSERT_TRUE(poll_loop(pair.b().loop(), [&] { return !served.empty(); }));
  on_loop(pair.b().loop(), [&] {
    EXPECT_EQ(served.size(), 1u);
    EXPECT_EQ(served.at(0).from, SiteId{100});
    EXPECT_EQ(served.at(0).message, request);
    EXPECT_TRUE(served.at(0).serve_locally);
    // The flag lives exactly as long as the inner dispatch.
    EXPECT_FALSE(pair.b().transport().dispatch_serve_locally());
    EXPECT_EQ(pair.b().transport().stats().stale_forwards, 0u);
    EXPECT_EQ(pair.b().transport().stats().ring_updates_sent, 0u);
    return true;
  });
}

TEST(NetCluster, OverloadedReplyReachesTheClientsHandler) {
  const wire::Overloaded shed{4, 79, 2500};
  std::vector<std::pair<SiteId, wire::Overloaded>> got;
  MemberPair pair;
  pair.b().transport().register_site(
      SiteId{1}, [&](SiteId from, const Message&) {
        pair.b().transport().send_overloaded(SiteId{1}, from, shed);
      });
  pair.a().transport().register_site(SiteId{100},
                                     [](SiteId, const Message&) {});
  pair.a().transport().set_overloaded_handler(
      [&](SiteId to, const wire::Overloaded& ov) { got.emplace_back(to, ov); });
  pair.start();

  on_loop(pair.a().loop(), [&] {
    pair.a().transport().send_message(
        SiteId{100}, SiteId{1},
        Message{FetchRequest{ObjectId{4}, SiteId{100}, 79}}, 64);
    return true;
  });
  ASSERT_TRUE(poll_loop(pair.a().loop(), [&] { return !got.empty(); }));
  on_loop(pair.a().loop(), [&] {
    EXPECT_EQ(got.size(), 1u);
    EXPECT_EQ(got.at(0).first, SiteId{100});
    EXPECT_EQ(got.at(0).second, shed);
    EXPECT_EQ(pair.a().transport().stats().overloaded_received, 1u);
    return true;
  });
  on_loop(pair.b().loop(), [&] {
    EXPECT_EQ(pair.b().transport().stats().overloaded_sent, 1u);
    return true;
  });
}

TEST(NetSupervision, NoQueueSendersDialUntouchedRoutesAndSendOnlyWhenHealthy) {
  NetNode server;
  for (std::uint32_t site = 1; site <= 5; ++site) {
    server.transport().register_site(SiteId{site},
                                     [](SiteId, const Message&) {});
  }
  server.start();
  std::uint16_t dead_port = 0;
  {
    net::EventLoop tmp_loop;
    net::TcpTransport tmp(tmp_loop);
    dead_port = tmp.listen(0);
  }

  NetNode client;
  net::TcpTransport& tx = client.transport();
  tx.enable_cluster(SiteId{0});
  // Sites 1-5 are one fresh route per sender; site 9 never answers.
  for (std::uint32_t site = 1; site <= 5; ++site) {
    tx.add_route(SiteId{site}, "127.0.0.1", server.port());
  }
  tx.add_route(SiteId{9}, "127.0.0.1", dead_port);
  net::SupervisionConfig sup;
  sup.enabled = true;
  sup.backoff_base = SimTime::millis(10);
  sup.backoff_cap = SimTime::millis(50);
  sup.dead_after_failures = 1000;
  sup.heartbeat_interval = SimTime::millis(50);
  tx.set_supervision(sup);
  client.start();

  const std::vector<std::pair<const char*, std::function<bool(SiteId)>>>
      senders = {
          {"send_time_sync",
           [&](SiteId to) {
             return tx.send_time_sync(SiteId{0}, to,
                                      wire::TimeSync{1, 2, 0, false});
           }},
          {"send_stats_request",
           [&](SiteId to) {
             return tx.send_stats_request(SiteId{0}, to,
                                          wire::StatsRequest{1, wire::kAllSites});
           }},
          {"send_slice_sync",
           [&](SiteId to) {
             return tx.send_slice_sync(SiteId{0}, to, wire::SliceSyncRequest{});
           }},
          {"send_cacher_subscribe",
           [&](SiteId to) {
             return tx.send_cacher_subscribe(
                 SiteId{0}, to, wire::CacherSubscribe{ObjectId{1}, SiteId{0}, 0});
           }},
          {"forward_serve_here",
           [&](SiteId to) {
             return tx.forward_serve_here(
                 SiteId{100}, to,
                 Message{FetchRequest{ObjectId{1}, SiteId{100}, 1}});
           }},
      };

  for (std::size_t i = 0; i < senders.size(); ++i) {
    const auto& [name, send] = senders[i];
    const SiteId route{static_cast<std::uint32_t>(i + 1)};
    struct FirstTouch {
      bool first, second;
      std::uint64_t dialed_before, dialed_after;
      net::ConnectionState state;
    };
    const FirstTouch t = on_loop(client.loop(), [&] {
      FirstTouch r{};
      r.dialed_before = tx.stats().connections_dialed;
      r.first = send(route);
      r.dialed_after = tx.stats().connections_dialed;
      r.state = tx.connection_state(route);
      r.second = send(route);
      return r;
    });
    EXPECT_FALSE(t.first) << name;
    EXPECT_EQ(t.dialed_after, t.dialed_before + 1) << name;
    EXPECT_EQ(t.second, t.state == net::ConnectionState::kHealthy) << name;
    ASSERT_TRUE(poll_loop(client.loop(), [&] {
      return tx.connection_state(route) == net::ConnectionState::kHealthy;
    })) << name;
    EXPECT_TRUE(on_loop(client.loop(), [&] { return send(route); })) << name;
  }

  // The refused route never turns healthy, so no sender ever gets through.
  const SiteId dead{9};
  EXPECT_FALSE(on_loop(client.loop(), [&] { return senders[0].second(dead); }));
  ASSERT_TRUE(poll_loop(client.loop(), [&] {
    return tx.connection_state(dead) == net::ConnectionState::kBackoff;
  }));
  for (const auto& [name, send] : senders) {
    const auto [state, sent] = on_loop(client.loop(), [&] {
      const net::ConnectionState s = tx.connection_state(dead);
      return std::pair{s, send(dead)};
    });
    EXPECT_NE(state, net::ConnectionState::kHealthy) << name;
    EXPECT_FALSE(sent) << name;
  }
  client.stop();
  server.stop();
}

}  // namespace
}  // namespace timedc
