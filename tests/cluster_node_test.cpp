// Self-healing on real nodes (DESIGN §14), in one process: three --cluster
// nodes (the timedc-server daemon) on loopback with WALs. Stopping one
// must rebalance the ring onto the survivors through gossip alone, even
// when it stops before any peer has heard from it, and the survivors must
// settle on one ring epoch without a forward between them. The ops on the
// stopped member's slice must complete there. Restarting it on its port
// from the same WAL with warm-up on must pull back, over kSliceSync, every
// value written while it was down. A node whose port is taken is an
// error, not an abort.
#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "clocks/physical_clock.hpp"
#include "cluster/node.hpp"
#include "cluster/ring.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"
#include "protocol/timed_serial_cache.hpp"

namespace timedc {
namespace {

constexpr std::uint32_t kMembers = 3;
constexpr std::uint32_t kC = 2;  // the member that stops and restarts

template <typename F>
auto on_loop(net::EventLoop& loop, F fn) -> decltype(fn()) {
  std::promise<decltype(fn())> result;
  auto fut = result.get_future();
  loop.post([&] { result.set_value(fn()); });
  return fut.get();
}

/// Polls `pred` every 10 ms for up to 5 s.
template <typename F>
bool eventually(F pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

std::uint16_t free_port() {
  net::EventLoop loop;
  net::TcpTransport probe(loop);
  return probe.listen(0);
}

cluster::HashRing ring_of(std::vector<SiteId> members) {
  cluster::HashRing ring;
  ring.set_members(members);
  return ring;
}

struct Op {
  std::uint32_t object = 0;
  std::int64_t value = 0;  // 0 = read
};

/// Issues `ops` one after another through a fresh TSC client at
/// `client_site`, routed by `route`. Returns what the reads returned, in
/// order; fails the test when any op is still open after 5 s.
std::vector<Value> run_ops(const std::vector<std::uint16_t>& ports,
                           std::uint32_t client_site,
                           std::function<SiteId(ObjectId)> route,
                           const std::vector<Op>& ops) {
  net::EventLoop loop;
  net::TcpTransport tx(loop, SimTime::millis(100));
  for (std::uint32_t i = 0; i < ports.size(); ++i) {
    tx.add_route(SiteId{i}, "127.0.0.1", ports[i]);
  }
  PerfectClock clock;
  TimedSerialCache client(tx, SiteId{client_site}, SiteId{0}, &clock,
                          SimTime::millis(200), /*mark_old=*/true,
                          MessageSizes{});
  client.set_route(std::move(route));
  client.attach();
  std::vector<Value> reads;
  std::size_t done = 0;
  std::function<void()> issue = [&] {
    if (done == ops.size()) {
      loop.stop();
      return;
    }
    const Op& op = ops[done];
    const ObjectId object{op.object};
    if (op.value != 0) {
      client.write(object, Value{op.value}, [&](SimTime) {
        ++done;
        loop.post(issue);
      });
    } else {
      client.read(object, [&](Value v, SimTime) {
        reads.push_back(v);
        ++done;
        loop.post(issue);
      });
    }
  };
  loop.post(issue);
  loop.run_after(SimTime::seconds(5), [&] { loop.stop(); });  // hang guard
  loop.run();
  EXPECT_EQ(done, ops.size()) << "ops stalled at client " << client_site;
  return reads;
}

class ClusterNodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* tmp = std::getenv("TMPDIR");
    dir_ = std::string(tmp != nullptr ? tmp : "/tmp") +
           "/timedc_cluster_node.XXXXXX";
    ASSERT_NE(::mkdtemp(dir_.data()), nullptr);
    for (std::uint32_t i = 0; i < kMembers; ++i) ports_.push_back(free_port());
    nodes_.resize(kMembers);
    for (std::uint32_t i = 0; i < kMembers; ++i) start(i, /*warm_up=*/false);
  }

  void TearDown() override {
    for (auto& node : nodes_) node.reset();
    for (std::uint32_t i = 0; i < kMembers; ++i) {
      std::remove((dir_ + "/wal." + std::to_string(i)).c_str());
    }
    ::rmdir(dir_.c_str());
  }

  void start(std::uint32_t i, bool warm_up) {
    cluster::NodeConfig config;
    config.port = ports_[i];
    config.site_base = i;
    config.cluster_size = kMembers;
    config.cluster = true;
    config.heartbeat_ms = 50;
    config.dead_grace_ms = 100;
    config.state_file = dir_ + "/wal";
    config.warm_up = warm_up;
    // Far beyond the test's run time: finishing the warm-up at all means
    // every donor streamed its slice ("synced"), never "timeout".
    config.warm_timeout_ms = 60000;
    for (std::uint32_t j = 0; j < kMembers; ++j) {
      if (j != i) config.peers.push_back({j, "127.0.0.1", ports_[j]});
    }
    std::string error;
    nodes_[i] = cluster::Node::create(config, &error);
    ASSERT_NE(nodes_[i], nullptr) << error;
    nodes_[i]->start();
  }

  /// Waits until every member has gossiped to every other: all routes
  /// healthy, then three more digests out of each member per peer.
  void wait_for_gossip() {
    ASSERT_TRUE(eventually([&] {
      for (std::uint32_t i = 0; i < kMembers; ++i) {
        const bool healthy = on_loop(nodes_[i]->loop(0), [&] {
          for (std::uint32_t j = 0; j < kMembers; ++j) {
            if (j != i && nodes_[i]->transport(0).connection_state(SiteId{j}) !=
                              net::ConnectionState::kHealthy) {
              return false;
            }
          }
          return true;
        });
        if (!healthy) return false;
      }
      return true;
    })) << "members never connected";
    std::vector<std::int64_t> sent;
    for (std::uint32_t i = 0; i < kMembers; ++i) {
      sent.push_back(stat(i, StatKey::kClusterMembershipSent));
    }
    ASSERT_TRUE(eventually([&] {
      for (std::uint32_t i = 0; i < kMembers; ++i) {
        if (stat(i, StatKey::kClusterMembershipSent) <
            sent[i] + 3 * (kMembers - 1)) {
          return false;
        }
      }
      return true;
    })) << "members never gossiped";
  }

  std::int64_t stat(std::uint32_t i, StatKey key) {
    return nodes_[i]->board(0).get(key);
  }

  net::TcpTransportStats transport_stats(std::uint32_t i) {
    return on_loop(nodes_[i]->loop(0),
                   [&] { return nodes_[i]->transport(0).stats(); });
  }

  /// Stops C, then waits until A and B have both rebalanced onto the
  /// ring over {A, B}.
  void stop_c_and_expect_rebalance() {
    nodes_[kC].reset();
    ASSERT_TRUE(eventually([&] {
      return stat(0, StatKey::kClusterRebalances) >= 1 &&
             stat(1, StatKey::kClusterRebalances) >= 1;
    })) << "A and B never rebalanced after C stopped";
    const cluster::HashRing survivors = ring_of({SiteId{0}, SiteId{1}});
    for (std::uint32_t i = 0; i < 2; ++i) {
      const bool on_survivors = on_loop(nodes_[i]->loop(0), [&] {
        for (std::uint32_t o = 0; o < 256; ++o) {
          if (nodes_[i]->server(0).primary_of(ObjectId{o}) !=
              survivors.owner_of(ObjectId{o})) {
            return false;
          }
        }
        return true;
      });
      EXPECT_TRUE(on_survivors) << "member " << i << " does not serve {A, B}";
    }
  }

  std::string dir_;
  std::vector<std::uint16_t> ports_;
  std::vector<std::unique_ptr<cluster::Node>> nodes_;
};

TEST_F(ClusterNodeTest, StoppedMemberIsRebalancedAwayAndWarmsBackOnRestart) {
  constexpr std::uint32_t kObjects = 24;
  const cluster::HashRing full = ring_of({SiteId{0}, SiteId{1}, SiteId{2}});
  const cluster::HashRing survivors = ring_of({SiteId{0}, SiteId{1}});
  std::vector<Op> writes;
  std::vector<Op> rewrites;
  std::vector<Op> reads;
  std::uint64_t c_slice = 0;  // objects C owns on the full ring
  for (std::uint32_t o = 0; o < kObjects; ++o) {
    writes.push_back({o, 1000 + o});
    rewrites.push_back({o, 2000 + o});
    reads.push_back({o, 0});
    c_slice += full.owner_of(ObjectId{o}) == SiteId{kC} ? 1 : 0;
  }
  ASSERT_GT(c_slice, 0u);
  ASSERT_NO_FATAL_FAILURE(wait_for_gossip());

  // All three serving: owner-aware writes over every slice.
  run_ops(ports_, 100, [&](ObjectId o) { return full.owner_of(o); }, writes);
  EXPECT_EQ(on_loop(nodes_[kC]->loop(0),
                    [&] { return nodes_[kC]->server(0).stats().writes_applied; }),
            c_slice);

  // Stop C. Gossip alone must move its slice onto A and B: both install
  // the ring over {A, B}.
  ASSERT_NO_FATAL_FAILURE(stop_c_and_expect_rebalance());

  // The two may have captured different membership epochs for the same
  // change, hence different ring epochs. Gossip settles them on the newer
  // one before any forward between them could bounce a kRingUpdate.
  ASSERT_TRUE(eventually([&] {
    return stat(0, StatKey::kClusterRingEpoch) ==
           stat(1, StatKey::kClusterRingEpoch);
  })) << "ring epochs " << stat(0, StatKey::kClusterRingEpoch) << " and "
      << stat(1, StatKey::kClusterRingEpoch);
  EXPECT_GT(stat(0, StatKey::kClusterRingEpoch), 0);
  EXPECT_EQ(transport_stats(0).stale_forwards, 0u);
  EXPECT_EQ(transport_stats(1).stale_forwards, 0u);

  // C down: rewrite every object, C's former slice included, on the
  // survivors' ring, sending every other op to the wrong survivor. Every
  // op must complete, and as both forward under one ring epoch, none of
  // the forwards between them is stale.
  run_ops(ports_, 200,
          [&](ObjectId o) {
            const SiteId owner = survivors.owner_of(o);
            return o.value % 2 == 0 ? owner : SiteId{1 - owner.value};
          },
          rewrites);
  EXPECT_GT(transport_stats(0).forwards_out + transport_stats(1).forwards_out,
            0u);
  EXPECT_EQ(transport_stats(0).stale_forwards, 0u);
  EXPECT_EQ(transport_stats(1).stale_forwards, 0u);

  // Restart C on its port from its WAL, warming up: it replays its own
  // writes, pulls its slice back from A and B, and then serves every
  // value written while it was down.
  start(kC, /*warm_up=*/true);
  EXPECT_EQ(nodes_[kC]->restored(), c_slice);
  ASSERT_TRUE(eventually([&] {
    return !on_loop(nodes_[kC]->loop(0),
                    [&] { return nodes_[kC]->server(0).warming(); });
  })) << "C never finished warming";
  EXPECT_GE(stat(kC, StatKey::kClusterSlicesSynced),
            static_cast<std::int64_t>(c_slice));
  const std::vector<Value> got =
      run_ops(ports_, 300, [](ObjectId) { return SiteId{kC}; }, reads);
  ASSERT_EQ(got.size(), reads.size());
  for (std::uint32_t o = 0; o < kObjects; ++o) {
    EXPECT_EQ(got[o].value, 2000 + o) << "object " << o;
  }
}

TEST_F(ClusterNodeTest, MemberStoppedBeforeItsFirstDigestIsRebalancedAway) {
  // C stops about 20 ms after start, likely before any digest of its own
  // reached A or B. Its silence still counts from their start, so they
  // suspect it, declare it dead and take its slice.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_NO_FATAL_FAILURE(stop_c_and_expect_rebalance());
}

TEST(ClusterNode, PortInUseIsAnError) {
  net::EventLoop loop;
  net::TcpTransport holder(loop);
  const std::uint16_t port = holder.listen(0);
  ASSERT_NE(port, 0);
  cluster::NodeConfig config;
  config.port = port;
  std::string error;
  EXPECT_EQ(cluster::Node::create(config, &error), nullptr);
  EXPECT_EQ(error, "cannot listen on port " + std::to_string(port) +
                       ": Address already in use");
}

}  // namespace
}  // namespace timedc
