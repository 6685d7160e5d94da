// timedc-server: the lifetime-cache ObjectServer on real TCP ports.
//
// Hosts one or more ObjectServer shards (hash-partitioned object ownership,
// exactly the cluster layout of the sim experiments), each on its own
// 127.0.0.1 port with its own EventLoop thread and TcpTransport. Clients
// route requests to the owning shard by object id (object % cluster size);
// inter-shard and --peer routes exist so a misrouted request is forwarded
// server-side just as in the sim.
//
// Replication topology: --site-base and --cluster-size let several
// timedc-server *processes* form one cluster (each process hosts a
// contiguous band of sites), with --peer SITE:HOST:PORT naming the remote
// members. Peer routes are supervised: reconnect with capped backoff,
// heartbeats, DEAD detection (src/net/tcp_transport.hpp).
//
// Durability: --state-file FILE keeps a per-shard write-ahead log
// (FILE.<site>, src/storage/wal.hpp). Write decisions are group-committed:
// one write(2) per loop tick, run at the shard transport's send barrier, so
// every record reaches the kernel before any ack or reply that reveals its
// write leaves. A restarted process replays the log before listening, so
// object values, versions and the write-dedup slots (retransmission acks)
// all survive a kill -9. With leases enabled the restart arms the
// Gray-Cheriton grace window.
//
// Prints "LISTENING <port0> <port1> ..." on stdout once all shards are
// bound — harnesses (tests/net_loopback_test.cpp, ci) parse this line.
// Runs until SIGINT/SIGTERM or --duration-s. Shutdown is a graceful drain:
// stop accepting, release leases (begin_drain), give in-flight replies
// --drain-ms to flush, then close. Metrics JSON (per-shard ServerStats +
// full transport/supervision counters) goes to --metrics-out.
//
// Observability: every shard gets a StatsBoard (answering wire
// kStatsRequest scrapes from timedc-top, locally or from any reactor's
// hub) and an allocation-free flight recorder on its hot path. SIGUSR1
// dumps a live metrics snapshot to --metrics-out (or stdout) without
// stopping the server; --metrics-interval-ms does the same on a timer.
// --flight-dump PREFIX installs the fatal-signal handler that writes
// every recorder to PREFIX.site<id>.fr on SIGSEGV/SIGBUS/SIGFPE/SIGABRT
// (convert with timedc-flight). --segv-after-s is a test hook that
// crashes the process on purpose so CI can validate that path.
//
// Reactor mode: --reactors N runs N shards on ONE shared SO_REUSEPORT port
// (kernel accept sharding + object-hash connection steering) instead of N
// separate ports — the 1M-ops/s serving layout. The LISTENING line repeats
// the shared port once per shard, so harnesses keep their ports[i] -> site
// mapping unchanged.
//
// Usage:
//   timedc-server [--port 0] [--shards 1 | --reactors N] [--lease-us 0]
//                 [--push none|invalidate|update] [--duration-s 0]
//                 [--site-base 0] [--cluster-size N] [--peer SITE:HOST:PORT]
//                 [--state-file FILE] [--drain-ms 200] [--heartbeat-ms 200]
//                 [--metrics-out FILE] [--metrics-interval-ms 0]
//                 [--flight-dump PREFIX] [--flight-capacity 16384]
#include <signal.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/membership.hpp"
#include "cluster/ring.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/stats_board.hpp"
#include "obs/stats_bridge.hpp"
#include "protocol/server.hpp"
#include "storage/wal.hpp"

namespace {

using namespace timedc;

struct PeerSpec {
  std::uint32_t site = 0;
  std::string host;
  std::uint16_t port = 0;
};

struct Options {
  std::uint16_t port = 0;  // base port; 0 = ephemeral per shard
  std::size_t shards = 1;
  /// --reactors mode: all shards share ONE SO_REUSEPORT port; the kernel
  /// shards accepts and object-hash connection steering moves each
  /// connection to the shard owning its destination site. The LISTENING
  /// line repeats the shared port once per shard so load generators keep
  /// their ports[i] -> site i mapping.
  bool shared_port = false;
  std::int64_t lease_us = 0;
  PushPolicy push = PushPolicy::kNone;
  std::int64_t duration_s = 0;  // 0 = until SIGINT/SIGTERM
  std::string metrics_out;
  std::uint32_t site_base = 0;
  std::size_t cluster_size = 0;  // 0 = local shards only
  std::vector<PeerSpec> peers;
  std::string state_file;  // WAL base path; empty = no durability
  std::int64_t drain_ms = 200;
  std::int64_t heartbeat_ms = 200;
  std::int64_t metrics_interval_ms = 0;  // 0 = no periodic dump
  std::string flight_dump;               // fatal-dump prefix; empty = off
  std::size_t flight_capacity = 1u << 14;
  std::int64_t segv_after_s = 0;  // test hook: crash on purpose after S s
  /// --cluster: full cluster mode. Ownership moves from modulo partitioning
  /// to the consistent-hash ring, transports wrap/unwrap/relay kForward
  /// frames, membership gossip rides the heartbeats, and non-owners keep
  /// push-fed replicas of peer-owned objects (Section 5.2 propagation).
  bool cluster = false;
  std::uint8_t cluster_push_mode = 1;  // 0 invalidate / 1 update
  std::int64_t replica_ttl_us = 0;     // 0 = uncapped
  /// Self-healing knobs (cluster mode). dead_grace_ms is how long a SUSPECT
  /// member stays in the serving set past the suspicion timeout before
  /// gossip declares it DEAD and ownership rebalances; warm_up makes this
  /// process start WARMING (forward-through + kSliceSync anti-entropy from
  /// every peer) and only flip to SERVING once every donor reports done or
  /// warm_timeout_ms expires.
  std::int64_t dead_grace_ms = 500;
  bool warm_up = false;
  std::int64_t warm_timeout_ms = 3000;
  /// Admission control (see ServerConfig): 0 = gate disabled.
  std::uint32_t admit_rate = 0;
  std::uint32_t admit_burst = 64;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port P] [--shards N | --reactors N] [--lease-us L]\n"
               "          [--push none|invalidate|update] [--duration-s S]\n"
               "          [--site-base B] [--cluster-size C]\n"
               "          [--peer SITE:HOST:PORT]... [--state-file FILE]\n"
               "          [--drain-ms MS] [--heartbeat-ms MS]\n"
               "          [--metrics-out FILE] [--metrics-interval-ms MS]\n"
               "          [--flight-dump PREFIX] [--flight-capacity N]\n"
               "          [--cluster] [--cluster-push invalidate|update]\n"
               "          [--replica-ttl-us N] [--dead-grace-ms MS]\n"
               "          [--warm-up] [--warm-timeout-ms MS]\n"
               "          [--admit-rate OPS_PER_S] [--admit-burst N]\n",
               argv0);
  return 2;
}

bool parse_peer(const char* spec, PeerSpec& peer) {
  // SITE:HOST:PORT, HOST a dotted quad.
  const char* c1 = std::strchr(spec, ':');
  if (c1 == nullptr) return false;
  const char* c2 = std::strrchr(spec, ':');
  if (c2 == c1) return false;
  peer.site = static_cast<std::uint32_t>(std::atol(spec));
  peer.host.assign(c1 + 1, c2);
  peer.port = static_cast<std::uint16_t>(std::atoi(c2 + 1));
  return !peer.host.empty() && peer.port != 0;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.port = static_cast<std::uint16_t>(std::atoi(v));
    } else if (arg == "--shards") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.shards = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--reactors") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.shards = static_cast<std::size_t>(std::atol(v));
      opt.shared_port = true;
    } else if (arg == "--lease-us") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.lease_us = std::atoll(v);
    } else if (arg == "--push") {
      const char* v = next();
      if (v == nullptr) return false;
      if (std::strcmp(v, "none") == 0) {
        opt.push = PushPolicy::kNone;
      } else if (std::strcmp(v, "invalidate") == 0) {
        opt.push = PushPolicy::kInvalidate;
      } else if (std::strcmp(v, "update") == 0) {
        opt.push = PushPolicy::kUpdate;
      } else {
        return false;
      }
    } else if (arg == "--duration-s") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.duration_s = std::atoll(v);
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.metrics_out = v;
    } else if (arg == "--site-base") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.site_base = static_cast<std::uint32_t>(std::atol(v));
    } else if (arg == "--cluster-size") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.cluster_size = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--peer") {
      const char* v = next();
      PeerSpec peer;
      if (v == nullptr || !parse_peer(v, peer)) return false;
      opt.peers.push_back(std::move(peer));
    } else if (arg == "--state-file") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.state_file = v;
    } else if (arg == "--drain-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.drain_ms = std::atoll(v);
    } else if (arg == "--heartbeat-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.heartbeat_ms = std::atoll(v);
    } else if (arg == "--metrics-interval-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.metrics_interval_ms = std::atoll(v);
    } else if (arg == "--flight-dump") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.flight_dump = v;
    } else if (arg == "--flight-capacity") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.flight_capacity = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--cluster") {
      opt.cluster = true;
    } else if (arg == "--cluster-push") {
      const char* v = next();
      if (v == nullptr) return false;
      if (std::strcmp(v, "invalidate") == 0) {
        opt.cluster_push_mode = 0;
      } else if (std::strcmp(v, "update") == 0) {
        opt.cluster_push_mode = 1;
      } else {
        return false;
      }
    } else if (arg == "--replica-ttl-us") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.replica_ttl_us = std::atoll(v);
    } else if (arg == "--dead-grace-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.dead_grace_ms = std::atoll(v);
    } else if (arg == "--warm-up") {
      opt.warm_up = true;
    } else if (arg == "--warm-timeout-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.warm_timeout_ms = std::atoll(v);
    } else if (arg == "--admit-rate") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.admit_rate = static_cast<std::uint32_t>(std::atol(v));
    } else if (arg == "--admit-burst") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.admit_burst = static_cast<std::uint32_t>(std::atol(v));
    } else if (arg == "--segv-after-s") {
      // Undocumented on purpose: CI uses it to validate the fatal-signal
      // flight dump end to end.
      const char* v = next();
      if (v == nullptr) return false;
      opt.segv_after_s = std::atoll(v);
    } else {
      return false;
    }
  }
  if (opt.cluster_size == 0) opt.cluster_size = opt.shards;
  return opt.shards >= 1 && opt.site_base + opt.shards <= opt.cluster_size +
                                opt.site_base  // no overflow nonsense
         && opt.shards <= opt.cluster_size;
}

/// Per-shard self-healing state. Written only on the shard's loop thread
/// once serving starts (membership / ring-update / slice-sync handlers all
/// run there), so no locks: the serving ring that decides ownership, the
/// donor ring a WARMING shard forwards cold reads through (the previous
/// owners: serving \ {self}), and the per-donor warm-up cursors.
struct ShardCluster {
  cluster::HashRing ring;        // ownership among serving members
  cluster::HashRing donor_ring;  // serving \ {self}: warm-up donors
  std::vector<std::uint32_t> serving;  // sorted serving member sites
  std::vector<std::uint32_t> scratch;  // serving_members() compare buffer
  std::uint64_t ring_epoch = 0;        // 0 = configured baseline ring
  std::uint64_t rebalances = 0;
  struct WarmPeer {
    std::uint32_t site = 0;
    std::uint32_t cursor = 0;  // resume point for the next kSliceSync
    std::uint64_t seq = 0;     // latest request seq; older replies dropped
    bool done = false;
  };
  std::vector<WarmPeer> warm_peers;
  std::uint64_t next_seq = 1;
  std::int64_t warm_deadline_us = 0;  // armed on the first pump tick
};

struct Shard {
  std::unique_ptr<net::EventLoop> loop;
  std::unique_ptr<net::TcpTransport> transport;
  std::unique_ptr<ObjectServer> server;
  std::unique_ptr<StatsBoard> board;
  std::unique_ptr<FlightRecorder> flight;
  std::unique_ptr<cluster::MembershipTable> membership;
  std::unique_ptr<ShardCluster> cs;
  std::shared_ptr<std::function<void()>> warm_pump;  // posted after run()
  std::thread thread;
  std::uint16_t port = 0;
  SiteId site{0};
  // Declared last, so it is destroyed (and detached) first.
  std::unique_ptr<storage::WriteAheadLog> wal;
};

/// Rebuild both deterministic rings from the sorted serving list. Every
/// member computes the identical ring from the identical list (seedless
/// hash — see cluster/ring.hpp), so ownership agrees bit-for-bit cluster
/// wide without any coordination beyond gossip convergence.
void rebuild_rings(ShardCluster& cs, SiteId self) {
  std::vector<SiteId> members;
  std::vector<SiteId> donors;
  members.reserve(cs.serving.size());
  for (const std::uint32_t site : cs.serving) {
    members.push_back(SiteId{site});
    if (site != self.value) donors.push_back(SiteId{site});
  }
  cs.ring.set_members(members);
  cs.donor_ring.set_members(donors);
}

/// The tentpole: gossip drives the ring. Recompute the serving set from the
/// membership table; when it changed, purge learned paths and queued
/// forwards for members that left (gossip-confirmed dead — queueing more at
/// them only delays the client's retry), rebuild the rings, bump the
/// cross-node ring epoch and stamp it into the transport so stale-epoch
/// forwards bounce back with a kRingUpdate hint.
void maybe_rebalance(cluster::MembershipTable& table, ShardCluster& cs,
                     net::TcpTransport& transport, StatsBoard& board,
                     SiteId self) {
  table.serving_members(cs.scratch);
  if (cs.scratch == cs.serving) return;
  for (const std::uint32_t site : cs.serving) {
    if (site != self.value &&
        std::find(cs.scratch.begin(), cs.scratch.end(), site) ==
            cs.scratch.end()) {
      transport.purge_member(SiteId{site});
    }
  }
  cs.serving.swap(cs.scratch);
  rebuild_rings(cs, self);
  // Monotonic bump: the membership epoch versioned the change and normally
  // dominates, but an adopted kRingUpdate hint may have pushed us ahead.
  cs.ring_epoch = std::max(table.epoch(), cs.ring_epoch + 1);
  ++cs.rebalances;
  transport.set_ring(cs.ring_epoch, cs.serving);
  board.set(StatKey::kClusterRingEpoch,
            static_cast<std::int64_t>(cs.ring_epoch));
  board.set(StatKey::kClusterRebalances,
            static_cast<std::int64_t>(cs.rebalances));
}

/// Per-site board gauges (watchdog age, stage/staleness percentiles, ...):
/// the boards are lock-free, so this is safe whether the loops run or not.
void publish_boards(MetricsRegistry& reg, const std::vector<Shard>& shards) {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  const std::int64_t now_us =
      static_cast<std::int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
  std::vector<StatsEntry> entries;
  for (const Shard& s : shards) {
    entries.clear();
    s.board->collect(now_us, entries);
    const std::string prefix =
        "site." + std::to_string(s.board->site()) + ".stats.";
    for (const StatsEntry& e : entries) {
      const char* name = to_cstring(static_cast<StatKey>(e.key));
      if (name != nullptr) {
        reg.set_gauge(prefix + name, static_cast<double>(e.value));
      }
    }
  }
}

/// Live snapshot while the loops are serving: ServerStats/TcpTransportStats
/// are loop-thread-owned plain structs, so each shard copies its own on its
/// loop. A wedged loop must not wedge the dump — after one second its
/// non-board sections are simply skipped (the boards, which is where the
/// stall watchdog lives, are always readable).
MetricsRegistry build_live_registry(std::vector<Shard>& shards) {
  MetricsRegistry reg;
  for (Shard& s : shards) {
    // Shared, not stack-captured: if the wait below times out, the posted
    // task may still run later and must not touch a dead promise.
    auto prom = std::make_shared<
        std::promise<std::pair<ServerStats, net::TcpTransportStats>>>();
    auto fut = prom->get_future();
    ObjectServer* server = s.server.get();
    net::TcpTransport* transport = s.transport.get();
    s.loop->post([prom, server, transport] {
      prom->set_value({server->stats(), transport->stats()});
    });
    if (fut.wait_for(std::chrono::seconds(1)) != std::future_status::ready) {
      continue;
    }
    const auto snap = fut.get();
    const std::string prefix = "server." + std::to_string(s.site.value);
    publish_server_stats(reg, prefix, snap.first);
    publish_tcp_transport_stats(reg, prefix + ".net", snap.second);
  }
  publish_boards(reg, shards);
  return reg;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage(argv[0]);

  // Block the shutdown signals before any thread exists so every loop
  // thread inherits the mask and only main consumes them.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGUSR1);  // live metrics dump, consumed by main
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  // The full cluster (all processes): sites 0..cluster_size-1 own objects
  // by hash partition. This process hosts sites site_base..site_base+shards-1.
  std::vector<SiteId> cluster;
  cluster.reserve(opt.cluster_size);
  for (std::size_t i = 0; i < opt.cluster_size; ++i) {
    cluster.push_back(SiteId{static_cast<std::uint32_t>(i)});
  }

  ServerConfig config;
  config.lease_duration = SimTime::micros(opt.lease_us);
  config.cluster_replicas = opt.cluster;
  config.cluster_push_mode = opt.cluster_push_mode;
  config.replica_ttl = SimTime::micros(opt.replica_ttl_us);
  config.admit_rate_per_s = opt.admit_rate;
  config.admit_burst = opt.admit_burst;

  // Bind every shard first (the loops are not running yet), so ephemeral
  // ports are known before inter-shard routes are added.
  std::vector<Shard> shards(opt.shards);
  StatsHub hub;
  std::size_t total_restored = 0;
  for (std::size_t i = 0; i < opt.shards; ++i) {
    Shard& s = shards[i];
    s.site = SiteId{opt.site_base + static_cast<std::uint32_t>(i)};
    s.loop = std::make_unique<net::EventLoop>();
    s.transport = std::make_unique<net::TcpTransport>(*s.loop);
    s.board = std::make_unique<StatsBoard>(s.site.value);
    s.flight = std::make_unique<FlightRecorder>(s.site.value,
                                                opt.flight_capacity);
    hub.add(s.board.get());
    register_flight_recorder(s.flight.get());
    s.transport->set_stats_board(s.board.get());
    s.transport->set_stats_hub(&hub);
    s.transport->set_flight_recorder(s.flight.get());
    if (opt.shared_port) {
      // All shards on one SO_REUSEPORT port: shard 0 binds (ephemeral if
      // --port 0), the rest join its port.
      const std::uint16_t want = i == 0 ? opt.port : shards[0].port;
      s.port = s.transport->listen(want, /*reuse_port=*/true);
    } else {
      const std::uint16_t want =
          opt.port == 0 ? 0 : static_cast<std::uint16_t>(opt.port + i);
      s.port = s.transport->listen(want);
    }
    s.server = std::make_unique<ObjectServer>(
        *s.transport, s.site, opt.cluster_size, opt.push, MessageSizes{},
        opt.cluster_size > 1 ? cluster : std::vector<SiteId>{}, config);
    if (!opt.state_file.empty()) {
      const std::string path =
          opt.state_file + "." + std::to_string(s.site.value);
      s.wal = storage::WriteAheadLog::open(path, *s.server);
      if (s.wal == nullptr) {
        std::fprintf(stderr, "timedc-server: cannot open WAL %s: %s\n",
                     path.c_str(), std::strerror(errno));
        std::exit(1);
      }
      total_restored += s.wal->restored();
      if (s.wal->restored() > 0) s.server->arm_restart_grace();
      s.wal->attach(*s.server, *s.transport);
    }
    s.server->set_stats_board(s.board.get());
    s.server->set_flight_recorder(s.flight.get());
    s.server->attach();
    if (opt.admit_rate > 0) {
      // Admission shed replies: kOverloaded over the client's learned
      // return path (or its own connection when it dialed us directly).
      net::TcpTransport* transport = s.transport.get();
      const SiteId self = s.site;
      s.server->set_overloaded_sender(
          [transport, self](SiteId client, ObjectId object,
                            std::uint64_t request_id,
                            std::int64_t retry_after_us) {
            transport->send_overloaded(
                self, client,
                wire::Overloaded{object.value, request_id, retry_after_us});
          });
    }
    if (opt.cluster) {
      s.transport->enable_cluster(s.site);
      s.cs = std::make_unique<ShardCluster>();
      ShardCluster* cs = s.cs.get();
      for (const SiteId member : cluster) cs->serving.push_back(member.value);
      rebuild_rings(*cs, s.site);
      s.transport->set_ring(0, cs->serving);  // epoch 0: baseline, no hints
      s.server->set_ownership(
          [cs](ObjectId object) { return cs->ring.owner_of(object); });
      net::TcpTransport* transport = s.transport.get();
      ObjectServer* server = s.server.get();
      const SiteId self = s.site;
      s.server->set_subscribe_sender(
          [transport, self](SiteId owner, ObjectId object,
                            std::uint8_t mode) {
            transport->send_cacher_subscribe(
                self, owner, wire::CacherSubscribe{object, self, mode});
          });
      s.transport->set_cacher_subscribe_handler(
          [server](SiteId, const wire::CacherSubscribe& cs) {
            server->register_server_cacher(cs.object, cs.cacher, cs.mode);
          });
      // Incarnation from wall time: a restarted process refutes any stale
      // suspicion of itself without persisted membership state.
      timespec now{};
      clock_gettime(CLOCK_REALTIME, &now);
      s.membership = std::make_unique<cluster::MembershipTable>(
          s.site, static_cast<std::uint64_t>(now.tv_sec));
      for (const SiteId member : cluster) {
        if (member != s.site) s.membership->add_configured(member);
      }
      cluster::MembershipTable* table = s.membership.get();
      s.transport->set_membership_provider(
          [table](std::uint64_t& epoch,
                  std::vector<wire::MemberEntry>& out) {
            table->fill_digest(out);
            epoch = table->epoch();
          });
      net::EventLoop* loop = s.loop.get();
      StatsBoard* board = s.board.get();
      FlightRecorder* flight = s.flight.get();
      const std::int64_t suspect_us = 3 * opt.heartbeat_ms * 1000;
      const std::int64_t dead_grace_us = opt.dead_grace_ms * 1000;
      s.transport->set_membership_handler(
          [table, board, flight, loop, transport, cs, self, suspect_us,
           dead_grace_us](SiteId from, std::uint64_t epoch,
                          std::uint64_t /*peer_ring_epoch*/,
                          std::span<const wire::MemberEntry> members) {
            const std::int64_t now_us = loop->now().as_micros();
            bool changed = table->heard_from(from.value, now_us);
            changed |= table->merge(epoch, members, now_us);
            changed |= table->suspect_silent(now_us, suspect_us);
            changed |= table->kill_silent(now_us, suspect_us, dead_grace_us);
            board->set(StatKey::kClusterMembers,
                       static_cast<std::int64_t>(table->alive_count()));
            board->set(StatKey::kClusterEpoch,
                       static_cast<std::int64_t>(table->epoch()));
            if (!changed) return;
            if (flight != nullptr) {
              for (const cluster::Member& m : table->members()) {
                flight->record(TraceEventType::kClusterMember, now_us,
                               kNoObject, 0,
                               static_cast<std::int64_t>(m.site), m.status);
              }
            }
            maybe_rebalance(*table, *cs, *transport, *board, self);
          });
      // A bounced stale forward comes back with the bouncer's ring: adopt
      // any strictly newer view immediately instead of waiting for our own
      // gossip to re-derive it.
      s.transport->set_ring_update_handler(
          [cs, transport, board, self](
              SiteId, std::uint64_t epoch,
              std::span<const std::uint32_t> members) {
            if (epoch <= cs->ring_epoch || members.empty()) return;
            cs->serving.assign(members.begin(), members.end());
            rebuild_rings(*cs, self);
            cs->ring_epoch = epoch;
            ++cs->rebalances;
            transport->set_ring(cs->ring_epoch, cs->serving);
            board->set(StatKey::kClusterRingEpoch,
                       static_cast<std::int64_t>(cs->ring_epoch));
            board->set(StatKey::kClusterRebalances,
                       static_cast<std::int64_t>(cs->rebalances));
          });
      // Donor side of anti-entropy: answer a warming requester with the
      // slice our CURRENT ring assigns to it. Not-ready (rather than an
      // empty done) while our view lags the requester's epoch or has not
      // yet re-admitted it to the serving set — an empty "done" would end
      // its warm-up with nothing.
      s.transport->set_slice_sync_server(
          [server, cs](SiteId requester, const wire::SliceSyncRequest& rq,
                       std::vector<wire::SliceRecord>& out,
                       std::uint32_t& next_cursor) -> std::uint8_t {
            const bool known =
                std::find(cs->serving.begin(), cs->serving.end(),
                          requester.value) != cs->serving.end();
            if (rq.ring_epoch > cs->ring_epoch || !known) {
              return wire::kSliceNotReady;
            }
            const bool done = server->collect_slice(
                requester, rq.cursor, rq.max_records, rq.if_newer_than_us,
                out, next_cursor);
            return done ? wire::kSliceDone : wire::kSliceMore;
          });
      // A WARMING owner answers writes locally but forwards reads it has no
      // copy of through the previous owner, flagged serve-here.
      s.server->set_warm_miss_forwarder(
          [transport, cs, self](ObjectId object, const Message& m) {
            if (cs->donor_ring.empty()) return false;
            const SiteId donor = cs->donor_ring.owner_of(object);
            if (donor == self) return false;
            return transport->forward_serve_here(self, donor, m);
          });
      if (opt.warm_up) {
        // Requester side: WARMING until every peer has streamed the slice
        // it holds for us (resumable cursors, not-ready retried on the pump
        // cadence) or the deadline passes. WAL replay already ran, so
        // install keeps whichever copy has the newer write time.
        for (const SiteId member : cluster) {
          if (member != s.site) {
            cs->warm_peers.push_back(
                ShardCluster::WarmPeer{member.value, 0, 0, false});
          }
        }
        // A cluster of one has nobody to warm from.
        if (!cs->warm_peers.empty()) s.server->begin_warming();
        auto warm_send = [transport, cs, self](ShardCluster::WarmPeer& p) {
          p.seq = cs->next_seq++;
          wire::SliceSyncRequest rq;
          rq.seq = p.seq;
          rq.ring_epoch = cs->ring_epoch;
          rq.cursor = p.cursor;
          rq.max_records = wire::kMaxSliceRecords;
          rq.if_newer_than_us = -1;  // everything, even write-time-zero
          transport->send_slice_sync(self, SiteId{p.site}, rq);
        };
        auto warm_finish = [server, self](const char* why) {
          if (!server->warming()) return;
          server->finish_warming();
          std::printf("WARMED %u %s\n", self.value, why);
          std::fflush(stdout);
        };
        s.transport->set_slice_sync_reply_handler(
            [server, cs, warm_send, warm_finish](
                SiteId donor, std::uint64_t seq, std::uint64_t /*epoch*/,
                std::uint8_t status, std::uint32_t next_cursor,
                std::span<const wire::SliceRecord> records) {
              if (!server->warming()) return;
              for (ShardCluster::WarmPeer& p : cs->warm_peers) {
                if (p.site != donor.value || p.seq != seq || p.done) continue;
                for (const wire::SliceRecord& rec : records) {
                  server->install_sync_record(rec);
                }
                if (status == wire::kSliceNotReady) return;  // pump retries
                if (status == wire::kSliceMore) {
                  p.cursor = next_cursor;
                  warm_send(p);
                  return;
                }
                p.done = true;
                bool all = true;
                for (const ShardCluster::WarmPeer& q : cs->warm_peers) {
                  all &= q.done;
                }
                if (all) warm_finish("synced");
                return;
              }
            });
        const std::int64_t warm_timeout_us = opt.warm_timeout_ms * 1000;
        s.warm_pump = std::make_shared<std::function<void()>>();
        auto pump = s.warm_pump;
        *pump = [loop, server, cs, warm_send, warm_finish, warm_timeout_us,
                 pump]() {
          if (!server->warming()) return;
          const std::int64_t now_us = loop->now().as_micros();
          if (cs->warm_deadline_us == 0) {
            cs->warm_deadline_us = now_us + warm_timeout_us;
          }
          if (now_us >= cs->warm_deadline_us) {
            warm_finish("timeout");
            return;
          }
          // Re-send for every unfinished peer: loss, a dead route, or a
          // not-ready donor all heal here (the seq filter drops whatever
          // stale reply the resend obsoletes).
          for (ShardCluster::WarmPeer& p : cs->warm_peers) {
            if (!p.done) warm_send(p);
          }
          loop->run_after(SimTime::millis(200), [pump] { (*pump)(); });
        };
      }
      s.board->set(StatKey::kClusterMembers,
                   static_cast<std::int64_t>(s.membership->alive_count()));
      s.board->set(StatKey::kClusterEpoch,
                   static_cast<std::int64_t>(s.membership->epoch()));
    }
  }
  if (!opt.flight_dump.empty()) install_fatal_dump(opt.flight_dump.c_str());
  // Shared-port mode: a new connection lands on whichever shard the kernel
  // picked; its first protocol frame names the destination site, and if a
  // different local shard owns that site the fd is steered there. Sites
  // outside this process (clients, --peer members) stay where they landed.
  if (opt.shared_port && opt.shards > 1) {
    std::vector<net::TcpTransport*> local;
    local.reserve(opt.shards);
    for (Shard& s : shards) local.push_back(s.transport.get());
    const std::uint32_t base = opt.site_base;
    const std::uint32_t count = static_cast<std::uint32_t>(opt.shards);
    for (Shard& s : shards) {
      s.transport->set_steering(
          [local, base, count](SiteId to) -> net::TcpTransport* {
            if (to.value < base || to.value >= base + count) return nullptr;
            return local[to.value - base];
          });
    }
  }
  // Routes to the other local shards and to every --peer process, all
  // supervised: a crashed/partitioned member is re-dialed with backoff and
  // detected DEAD by heartbeat silence.
  for (std::size_t i = 0; i < opt.shards; ++i) {
    bool any_route = false;
    for (std::size_t j = 0; j < opt.shards; ++j) {
      if (i == j) continue;
      shards[i].transport->add_route(shards[j].site, "127.0.0.1",
                                     shards[j].port);
      any_route = true;
    }
    for (const PeerSpec& peer : opt.peers) {
      shards[i].transport->add_route(SiteId{peer.site}, peer.host, peer.port);
      any_route = true;
    }
    if (any_route) {
      net::SupervisionConfig sup;
      sup.enabled = true;
      sup.heartbeat_interval = SimTime::millis(opt.heartbeat_ms);
      sup.seed = 0x5eed0000 + shards[i].site.value;
      shards[i].transport->set_supervision(sup);
    }
  }

  if (total_restored > 0) {
    std::fprintf(stderr, "timedc-server: restored %zu WAL records\n",
                 total_restored);
  }

  for (Shard& s : shards) {
    s.thread = std::thread([&s] { s.loop->run(); });
  }

  // Cluster mode: dial every routed member eagerly so heartbeats (and the
  // membership gossip riding them) flow before any request traffic.
  if (opt.cluster) {
    for (std::size_t i = 0; i < opt.shards; ++i) {
      std::vector<SiteId> targets;
      for (std::size_t j = 0; j < opt.shards; ++j) {
        if (i != j) targets.push_back(shards[j].site);
      }
      for (const PeerSpec& peer : opt.peers) {
        targets.push_back(SiteId{peer.site});
      }
      net::TcpTransport* transport = shards[i].transport.get();
      shards[i].loop->post([transport, targets]() {
        for (const SiteId t : targets) transport->prime_supervised(t);
      });
      if (shards[i].warm_pump) {
        shards[i].loop->post([pump = shards[i].warm_pump] { (*pump)(); });
      }
    }
  }

  std::printf("LISTENING");
  for (const Shard& s : shards) std::printf(" %u", s.port);
  std::printf("\n");
  std::fflush(stdout);

  // Main wait loop: multiplexes shutdown signals with the live-dump
  // deadlines (SIGUSR1 is edge-triggered by the operator, --metrics-
  // interval-ms and --segv-after-s by the clock, --duration-s ends it).
  const auto t_start = std::chrono::steady_clock::now();
  const auto elapsed_ms = [&t_start]() -> std::int64_t {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - t_start)
        .count();
  };
  const auto write_live_metrics = [&](const char* why) {
    const std::string json = build_live_registry(shards).to_json(2);
    if (!opt.metrics_out.empty()) {
      std::ofstream out(opt.metrics_out);
      out << json << "\n";
    } else {
      std::cout << json << "\n" << std::flush;
    }
    std::fprintf(stderr, "timedc-server: metrics dump (%s)\n", why);
  };
  std::int64_t next_dump_ms =
      opt.metrics_interval_ms > 0 ? opt.metrics_interval_ms : -1;
  const std::int64_t end_ms = opt.duration_s > 0 ? opt.duration_s * 1000 : -1;
  const std::int64_t segv_ms =
      opt.segv_after_s > 0 ? opt.segv_after_s * 1000 : -1;
  for (;;) {
    // Earliest pending deadline; -1 = none, wait for a signal forever.
    std::int64_t wake_ms = end_ms;
    if (next_dump_ms >= 0 && (wake_ms < 0 || next_dump_ms < wake_ms)) {
      wake_ms = next_dump_ms;
    }
    if (segv_ms >= 0 && (wake_ms < 0 || segv_ms < wake_ms)) wake_ms = segv_ms;
    int got = 0;
    if (wake_ms < 0) {
      sigwait(&sigs, &got);
    } else {
      const std::int64_t rel =
          std::max<std::int64_t>(0, wake_ms - elapsed_ms());
      timespec ts{rel / 1000, (rel % 1000) * 1000000};
      got = sigtimedwait(&sigs, nullptr, &ts);  // -1 = deadline reached
    }
    if (got == SIGUSR1) {
      write_live_metrics("SIGUSR1");
      continue;
    }
    if (got == SIGINT || got == SIGTERM) break;
    const std::int64_t now_ms = elapsed_ms();
    if (segv_ms >= 0 && now_ms >= segv_ms) {
      // Deliberate crash: CI validates that the fatal-signal handler dumps
      // every flight recorder before the default action kills us.
      std::fflush(nullptr);
      ::raise(SIGSEGV);
    }
    if (next_dump_ms >= 0 && now_ms >= next_dump_ms) {
      write_live_metrics("interval");
      next_dump_ms += opt.metrics_interval_ms;
    }
    if (end_ms >= 0 && now_ms >= end_ms) break;
  }

  // Graceful drain: stop accepting and release leases on every shard, let
  // in-flight replies flush for --drain-ms, then close the sockets.
  for (Shard& s : shards) {
    net::TcpTransport* transport = s.transport.get();
    ObjectServer* server = s.server.get();
    s.loop->post([transport, server] {
      transport->stop_listening();
      server->begin_drain();
    });
  }
  if (opt.drain_ms > 0) {
    timespec drain{opt.drain_ms / 1000, (opt.drain_ms % 1000) * 1000000};
    nanosleep(&drain, nullptr);
  }
  for (Shard& s : shards) {
    net::TcpTransport* transport = s.transport.get();
    s.loop->post([transport] { transport->close_all(); });
    s.loop->stop();
    s.thread.join();
    s.wal.reset();  // commits what no send has committed, then closes
    unregister_flight_recorder(s.flight.get());
  }

  MetricsRegistry reg;
  for (std::size_t i = 0; i < opt.shards; ++i) {
    const std::string prefix = "server." + std::to_string(shards[i].site.value);
    publish_server_stats(reg, prefix, shards[i].server->stats());
    publish_tcp_transport_stats(reg, prefix + ".net",
                                shards[i].transport->stats());
  }
  publish_boards(reg, shards);
  const std::string json = reg.to_json(2);
  if (!opt.metrics_out.empty()) {
    std::ofstream out(opt.metrics_out);
    out << json << "\n";
  } else {
    std::cout << json << "\n";
  }
  return 0;
}
