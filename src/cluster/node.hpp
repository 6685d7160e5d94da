// One timedc server process: the paper's §5 object servers on real sockets.
//
// A Node serves `reactors` consecutive sites (site_base + i), one
// ObjectServer per reactor of a net::ReactorGroup, all on one 127.0.0.1
// port. Every reactor gets a StatsBoard and a flight recorder; with a
// state file, each server keeps a write-ahead log at "<state_file>.<site>"
// that is replayed before anything serves and then group-committed at the
// transport's send barrier (src/storage/wal.hpp). Other local sites and
// every configured peer are supervised routes.
//
// In cluster mode the sites 0..cluster_size-1 share one object space:
// ownership is the consistent-hash ring over the serving set (ring.hpp),
// gossip rides the heartbeats (membership.hpp), and each reactor runs the
// self-healing state machine of DESIGN §14 on its own loop thread:
//   - rebalance: a gossip change of the serving set rebuilds the rings,
//     bumps the ring epoch and purges members that left; a bounced stale
//     forward's kRingUpdate hint adopts a newer ring directly, and a
//     digest labelling our own serving set with a newer ring epoch adopts
//     that epoch (no rebalance);
//   - warm-up (warm_up): the server starts WARMING, forwards cold reads to
//     the previous owner and pulls its slice from every peer over
//     kSliceSync, then prints "WARMED <site> synced|timeout" on stdout.
//
// Threading: create(), start(), stop() and metrics() belong to one
// controlling thread; everything else runs on the reactor threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/membership.hpp"
#include "cluster/ring.hpp"
#include "net/reactor_group.hpp"
#include "obs/metrics.hpp"
#include "protocol/server.hpp"
#include "storage/wal.hpp"

namespace timedc::cluster {

struct PeerSpec {
  std::uint32_t site = 0;
  std::string host;
  std::uint16_t port = 0;
};

struct NodeConfig {
  std::uint16_t port = 0;       // 0 = ephemeral
  std::size_t reactors = 1;     // sites served, all on `port`
  std::uint32_t site_base = 0;  // reactor i serves site site_base + i
  std::size_t cluster_size = 0;  // sites 0..cluster_size-1; 0 = reactors
  std::vector<PeerSpec> peers;   // sites hosted by other processes
  PushPolicy push = PushPolicy::kNone;
  /// Copied into every ObjectServer; cluster_replicas follows `cluster`.
  ServerConfig server;
  std::string state_file;  // WAL base path; empty = no durability
  std::int64_t heartbeat_ms = 200;
  std::size_t flight_capacity = 1u << 14;  // 0 = no flight recorders
  bool cluster = false;
  std::int64_t dead_grace_ms = 500;  // SUSPECT -> DEAD past the suspicion
  bool warm_up = false;
  std::int64_t warm_timeout_ms = 3000;

  /// Empty when one process can serve this config, else the reason.
  std::string validate() const;
};

class Node {
 public:
  /// Builds every reactor, replays the WALs and binds the port; nothing
  /// runs until start(). Null, with `error` set, when a WAL cannot be
  /// opened or the port cannot be bound. `config` must validate().
  static std::unique_ptr<Node> create(const NodeConfig& config,
                                      std::string* error);
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Attaches the WALs, starts the reactor threads and, in cluster mode,
  /// dials every member and starts the warm-up.
  void start();
  /// Graceful shutdown: stop listening and release leases, give in-flight
  /// replies `drain_ms` to flush, close and join, then commit and close
  /// the WALs. Idempotent.
  void stop(std::int64_t drain_ms);

  /// Per site: "server.<site>" server counters, "server.<site>.net"
  /// transport counters, and "site.<site>.stats.<key>" board gauges. While
  /// running, a reactor that does not answer within a second contributes
  /// its board only.
  MetricsRegistry metrics();

  std::uint16_t port() const { return group_.port(); }
  std::size_t size() const { return reactors_.size(); }
  /// WAL records replayed by create(), over all sites.
  std::size_t restored() const { return restored_; }
  SiteId site(std::size_t i) const { return reactors_[i]->site; }
  net::EventLoop& loop(std::size_t i) { return group_.loop(i); }
  net::TcpTransport& transport(std::size_t i) { return group_.transport(i); }
  ObjectServer& server(std::size_t i) { return *reactors_[i]->server; }
  StatsBoard& board(std::size_t i) { return *group_.stats_board(i); }
  /// Null without a state file.
  storage::WriteAheadLog* wal(std::size_t i) { return reactors_[i]->wal.get(); }

 private:
  struct WarmPeer {
    std::uint32_t site = 0;
    std::uint32_t cursor = 0;  // resume point for the next kSliceSync
    std::uint64_t seq = 0;     // latest request; older replies are dropped
    bool done = false;
  };
  /// One reactor's protocol state; loop-thread only once started.
  struct Reactor {
    SiteId site;
    net::EventLoop* loop = nullptr;
    net::TcpTransport* transport = nullptr;
    StatsBoard* board = nullptr;
    FlightRecorder* flight = nullptr;  // null with flight_capacity 0
    std::unique_ptr<ObjectServer> server;
    std::unique_ptr<storage::WriteAheadLog> wal;  // destroyed before server
    // Cluster mode:
    std::unique_ptr<MembershipTable> membership;
    HashRing ring;                       // ownership among serving members
    HashRing donor_ring;                 // serving \ {self}: warm-up donors
    std::vector<std::uint32_t> serving;  // sorted serving member sites
    std::vector<std::uint32_t> scratch;  // serving-set buffer for gossip
    std::uint64_t ring_epoch = 0;        // 0 = configured baseline ring
    std::uint64_t rebalances = 0;
    std::vector<WarmPeer> warm_peers;
    std::uint64_t next_seq = 1;
    std::int64_t warm_deadline_us = 0;  // armed on the first pump
  };

  explicit Node(const NodeConfig& config);
  void enable_cluster(Reactor& r);
  void enable_warm_up(Reactor& r);
  void on_gossip(Reactor& r, SiteId from, std::uint64_t epoch,
                 std::uint64_t ring_epoch,
                 std::span<const wire::MemberEntry> members);
  void install_ring(Reactor& r, std::uint64_t epoch);
  void warm_send(Reactor& r, WarmPeer& p);
  void warm_pump(Reactor& r);
  void warm_finish(Reactor& r, const char* why);

  const NodeConfig config_;
  net::ReactorGroup group_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::vector<SiteId> cluster_;  // sites 0..cluster_size-1
  std::size_t restored_ = 0;
  bool running_ = false;
};

}  // namespace timedc::cluster
