// timedc-server: the lifetime-cache ObjectServer on real TCP ports.
//
// This tool is flag parsing, a signal/deadline wait loop and the metrics
// output around one cluster::Node (src/cluster/node.hpp), which does the
// serving: --reactors N (or --shards N, the same thing) runs N ObjectServer
// shards for sites site-base..site-base+N-1, each on its own reactor
// thread, all on ONE 127.0.0.1 port. With N > 1 the port is bound with
// SO_REUSEPORT and each connection is steered to the reactor owning its
// destination site; with N = 1 it is bound exclusively. Clients route by
// object id (object % cluster size); a misrouted request is forwarded
// server-side just as in the sim.
//
// Replication topology: --site-base and --cluster-size let several
// timedc-server *processes* form one cluster (each hosts a contiguous band
// of sites), with --peer SITE:HOST:PORT naming the remote members. Peer
// routes are supervised: reconnect with capped backoff, heartbeats, DEAD
// detection (src/net/tcp_transport.hpp). --cluster moves ownership to the
// consistent-hash ring with gossip-driven rebalance and, with --warm-up,
// anti-entropy warm-up (DESIGN §14).
//
// Durability: --state-file FILE keeps a per-shard write-ahead log
// (FILE.<site>, src/storage/wal.hpp), group-committed at the send barrier
// so every record reaches the kernel before any frame that reveals its
// write leaves. A restarted process replays the log before serving, so
// object values, versions and the write-dedup slots all survive a kill -9;
// with leases on, the restart arms the Gray-Cheriton grace window.
//
// Prints "LISTENING <port> ..." on stdout once bound and serving, the port
// repeated once per shard so harnesses keep their ports[i] -> site i
// mapping. Runs until SIGINT/SIGTERM or --duration-s. Shutdown is a
// graceful drain: stop accepting, release leases, give in-flight replies
// --drain-ms to flush, then close. Metrics JSON (per-shard ServerStats,
// transport counters and board gauges) goes to --metrics-out.
//
// Observability: every shard has a StatsBoard (answering kStatsRequest
// scrapes from timedc-top through any reactor) and a flight recorder.
// SIGUSR1 dumps live metrics without stopping; --metrics-interval-ms does
// the same on a timer. --flight-dump PREFIX writes every recorder to
// PREFIX.site<id>.fr on SIGSEGV/SIGBUS/SIGFPE/SIGABRT (convert with
// timedc-flight); --segv-after-s crashes on purpose so CI can check it.
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
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>

#include "cluster/node.hpp"
#include "obs/flight_recorder.hpp"

namespace {

using namespace timedc;

struct Options {
  cluster::NodeConfig node;
  std::int64_t duration_s = 0;  // 0 = until SIGINT/SIGTERM
  std::string metrics_out;
  std::int64_t drain_ms = 200;
  std::int64_t metrics_interval_ms = 0;  // 0 = no periodic dump
  std::string flight_dump;               // fatal-dump prefix; empty = off
  std::int64_t segv_after_s = 0;  // test hook: crash on purpose after S s
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

/// The whole token as a decimal number in T's range.
template <typename T>
bool parse_number(std::string_view s, T& out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && end == s.data() + s.size();
}

/// SITE:HOST:PORT.
bool parse_peer(std::string_view spec, cluster::PeerSpec& peer) {
  const std::size_t c1 = spec.find(':');
  const std::size_t c2 = spec.rfind(':');
  if (c1 == std::string_view::npos || c2 == c1) return false;
  peer.host = spec.substr(c1 + 1, c2 - c1 - 1);
  return parse_number(spec.substr(0, c1), peer.site) &&
         parse_number(spec.substr(c2 + 1), peer.port) && !peer.host.empty() &&
         peer.port != 0;
}

bool parse_args(int argc, char** argv, Options& opt) {
  cluster::NodeConfig& n = opt.node;
  std::int64_t lease_us = 0;
  std::int64_t replica_ttl_us = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    // The flag's value; null when the command line ends first.
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto num = [&](auto& out) {
      const char* v = value();
      return v != nullptr && parse_number(v, out);
    };
    const auto str = [&](std::string& out) {
      const char* v = value();
      if (v != nullptr) out = v;
      return v != nullptr;
    };
    bool ok = true;
    if (arg == "--port") {
      ok = num(n.port);
    } else if (arg == "--shards" || arg == "--reactors") {
      ok = num(n.reactors);
    } else if (arg == "--lease-us") {
      ok = num(lease_us);
    } else if (arg == "--push") {
      const char* v = value();
      const std::string_view mode = v != nullptr ? v : "";
      if (mode == "none") {
        n.push = PushPolicy::kNone;
      } else if (mode == "invalidate") {
        n.push = PushPolicy::kInvalidate;
      } else if (mode == "update") {
        n.push = PushPolicy::kUpdate;
      } else {
        ok = false;
      }
    } else if (arg == "--duration-s") {
      ok = num(opt.duration_s);
    } else if (arg == "--metrics-out") {
      ok = str(opt.metrics_out);
    } else if (arg == "--site-base") {
      ok = num(n.site_base);
    } else if (arg == "--cluster-size") {
      ok = num(n.cluster_size);
    } else if (arg == "--peer") {
      const char* v = value();
      cluster::PeerSpec peer;
      ok = v != nullptr && parse_peer(v, peer);
      n.peers.push_back(std::move(peer));
    } else if (arg == "--state-file") {
      ok = str(n.state_file);
    } else if (arg == "--drain-ms") {
      ok = num(opt.drain_ms);
    } else if (arg == "--heartbeat-ms") {
      ok = num(n.heartbeat_ms);
    } else if (arg == "--metrics-interval-ms") {
      ok = num(opt.metrics_interval_ms);
    } else if (arg == "--flight-dump") {
      ok = str(opt.flight_dump);
    } else if (arg == "--flight-capacity") {
      ok = num(n.flight_capacity);
    } else if (arg == "--cluster") {
      n.cluster = true;
    } else if (arg == "--cluster-push") {
      const char* v = value();
      const std::string_view mode = v != nullptr ? v : "";
      ok = mode == "invalidate" || mode == "update";
      n.server.cluster_push_mode = mode == "update" ? 1 : 0;
    } else if (arg == "--replica-ttl-us") {
      ok = num(replica_ttl_us);
    } else if (arg == "--dead-grace-ms") {
      ok = num(n.dead_grace_ms);
    } else if (arg == "--warm-up") {
      n.warm_up = true;
    } else if (arg == "--warm-timeout-ms") {
      ok = num(n.warm_timeout_ms);
    } else if (arg == "--admit-rate") {
      ok = num(n.server.admit_rate_per_s);
    } else if (arg == "--admit-burst") {
      ok = num(n.server.admit_burst);
    } else if (arg == "--segv-after-s") {
      // Undocumented on purpose: CI uses it to validate the fatal-signal
      // flight dump end to end.
      ok = num(opt.segv_after_s);
    } else {
      ok = false;
    }
    if (!ok) return false;
  }
  n.server.lease_duration = SimTime::micros(lease_us);
  n.server.replica_ttl = SimTime::micros(replica_ttl_us);
  return true;
}

void write_metrics(const std::string& path, const MetricsRegistry& reg) {
  const std::string json = reg.to_json(2);
  if (!path.empty()) {
    std::ofstream out(path);
    out << json << "\n";
  } else {
    std::cout << json << "\n" << std::flush;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage(argv[0]);
  if (const std::string why = opt.node.validate(); !why.empty()) {
    std::fprintf(stderr, "timedc-server: %s\n", why.c_str());
    return usage(argv[0]);
  }

  // Block the shutdown signals before any thread exists so every reactor
  // thread inherits the mask and only main consumes them.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGUSR1);  // live metrics dump, consumed by main
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  std::string error;
  const std::unique_ptr<cluster::Node> node =
      cluster::Node::create(opt.node, &error);
  if (node == nullptr) {
    std::fprintf(stderr, "timedc-server: %s\n", error.c_str());
    return 1;
  }
  if (!opt.flight_dump.empty()) install_fatal_dump(opt.flight_dump.c_str());
  if (node->restored() > 0) {
    std::fprintf(stderr, "timedc-server: restored %zu WAL records\n",
                 node->restored());
  }
  node->start();

  std::printf("LISTENING");
  for (std::size_t i = 0; i < node->size(); ++i) std::printf(" %u", node->port());
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
    write_metrics(opt.metrics_out, node->metrics());
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

  node->stop(opt.drain_ms);
  write_metrics(opt.metrics_out, node->metrics());
  return 0;
}
