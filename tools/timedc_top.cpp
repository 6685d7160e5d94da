// timedc-top: live wire-level introspection of a running timedc-server.
//
// Connects one plain blocking TCP socket to any port of a serving process
// and polls it with kStatsRequest frames. The answering reactor replies
// from its lock-free StatsHub snapshot WITHOUT involving the protocol
// layer or any other reactor's thread, so polling a loaded — or even a
// wedged — server never perturbs the serving path: the stall watchdog
// gauge (stats.last_tick_age_us) is precisely the value that keeps growing
// when a reactor stops ticking.
//
// Modes:
//   (default)      full-screen refresh every --interval-ms: one row per
//                  reactor board with throughput deltas, stage p99s, the
//                  staleness percentiles and the watchdog age.
//   --once         poll once, print, exit (scriptable).
//   --json         machine-readable dump of every (site, key, value) row,
//                  keys named by StatKey::to_cstring. Implies no screen
//                  handling; combine with --once for CI scrapes.
//   --prom         Prometheus text exposition (one gauge per row) via
//                  obs::MetricsRegistry, for textfile-collector scraping.
//   --site S       target one reactor's board instead of kAllSites.
//
// Usage:
//   timedc-top --port P [--host 127.0.0.1] [--site S] [--interval-ms 1000]
//              [--once] [--json | --prom] [--timeout-ms 2000]
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/stats_board.hpp"

namespace {

using namespace timedc;

/// Poller's own site id in the (from, to) routing header. Any value works —
/// the reply travels back over the same connection — but staying far above
/// every shard/client band keeps the server's logs unambiguous.
constexpr std::uint32_t kPollerSite = 0xfffffff0u;

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint32_t target_site = wire::kAllSites;
  std::int64_t interval_ms = 1000;
  std::int64_t timeout_ms = 2000;
  bool once = false;
  bool json = false;
  bool prom = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port P [--host H] [--site S] [--interval-ms MS]\n"
               "          [--once] [--json | --prom] [--timeout-ms MS]\n",
               argv0);
  return 2;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--host") {
      if ((v = next()) == nullptr) return false;
      opt.host = v;
    } else if (arg == "--port") {
      if ((v = next()) == nullptr) return false;
      opt.port = static_cast<std::uint16_t>(std::atoi(v));
    } else if (arg == "--site") {
      if ((v = next()) == nullptr) return false;
      opt.target_site = static_cast<std::uint32_t>(std::atoll(v));
    } else if (arg == "--interval-ms") {
      if ((v = next()) == nullptr) return false;
      opt.interval_ms = std::atoll(v);
    } else if (arg == "--timeout-ms") {
      if ((v = next()) == nullptr) return false;
      opt.timeout_ms = std::atoll(v);
    } else if (arg == "--once") {
      opt.once = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--prom") {
      opt.prom = true;
    } else {
      return false;
    }
  }
  return opt.port != 0 && opt.interval_ms > 0 && opt.timeout_ms > 0 &&
         !(opt.json && opt.prom);
}

int connect_to(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool send_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return false;
    }
    data += static_cast<std::size_t>(w);
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// One request/reply exchange: send kStatsRequest(seq), read frames until
/// the matching kStatsReply (skipping anything else — heartbeats from a
/// supervised peer, late replies) or until timeout_ms of socket silence.
bool poll_stats(int fd, std::uint64_t seq, std::uint32_t target,
                std::int64_t timeout_ms, std::vector<std::uint8_t>& rxbuf,
                std::vector<wire::StatsRow>& rows) {
  std::vector<std::uint8_t> tx;
  wire::StatsRequest rq;
  rq.seq = seq;
  rq.target_site = target;
  wire::encode_stats_request_frame(SiteId{kPollerSite}, SiteId{0}, rq, tx);
  if (!send_all(fd, tx.data(), tx.size())) return false;

  for (;;) {
    // Drain complete frames already buffered.
    for (;;) {
      wire::DecodedFrame frame = wire::decode_frame(rxbuf);
      if (frame.status == wire::DecodeStatus::kNeedMore) break;
      if (!frame.ok()) return false;  // corrupt stream; reconnect upstream
      rxbuf.erase(rxbuf.begin(),
                  rxbuf.begin() + static_cast<std::ptrdiff_t>(frame.consumed));
      if (frame.type == wire::MsgType::kStatsReply &&
          frame.stats_seq == seq) {
        rows = std::move(frame.stats_rows);
        return true;
      }
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
    if (ready <= 0) return false;  // timeout or error
    std::uint8_t chunk[4096];
    const ssize_t r = ::read(fd, chunk, sizeof chunk);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;  // peer closed
    }
    rxbuf.insert(rxbuf.end(), chunk, chunk + r);
  }
}

using BoardMap = std::map<std::uint32_t, std::map<std::uint16_t, std::int64_t>>;

BoardMap group_rows(const std::vector<wire::StatsRow>& rows) {
  BoardMap boards;
  for (const wire::StatsRow& row : rows) boards[row.site][row.key] = row.value;
  return boards;
}

std::int64_t val(const std::map<std::uint16_t, std::int64_t>& board,
                 StatKey key) {
  const auto it = board.find(static_cast<std::uint16_t>(key));
  return it == board.end() ? 0 : it->second;
}

void print_json(const BoardMap& boards, std::uint64_t seq) {
  std::printf("{\"seq\":%" PRIu64 ",\"sites\":[", seq);
  bool first_site = true;
  for (const auto& [site, stats] : boards) {
    std::printf("%s{\"site\":%u,\"stats\":{", first_site ? "" : ",", site);
    first_site = false;
    bool first_key = true;
    for (const auto& [key, value] : stats) {
      const char* name = to_cstring(static_cast<StatKey>(key));
      if (name == nullptr) continue;
      std::printf("%s\"%s\":%" PRId64, first_key ? "" : ",", name, value);
      first_key = false;
    }
    std::printf("}}");
  }
  std::printf("]}\n");
}

void print_prom(const BoardMap& boards) {
  MetricsRegistry reg;
  for (const auto& [site, stats] : boards) {
    const std::string prefix = "timedc.site." + std::to_string(site) + ".";
    for (const auto& [key, value] : stats) {
      const char* name = to_cstring(static_cast<StatKey>(key));
      if (name == nullptr) continue;
      reg.set_gauge(prefix + name, static_cast<double>(value));
    }
  }
  std::fputs(reg.to_prometheus().c_str(), stdout);
}

/// Interactive table. `prev`/`prev_ms` feed the ops/s column (delta over
/// the previous poll); pass prev_ms < 0 on the first frame. DROPS counts
/// frames shed at the transport (full SendQueue or dead peer), OVFL the
/// flight-recorder ring overwrites, FWD/PUSH/MEMB the cluster layer
/// (forwards out+in, owner pushes, alive member count), RBAL the ring
/// rebalances this process has applied, WARM the slice records installed
/// by anti-entropy warm-up, SHED the operations the admission gate
/// refused or deferred (reads shed + writes deferred) — all zero on a
/// standalone server.
void print_table(const BoardMap& boards, const BoardMap& prev,
                 std::int64_t dt_ms, bool clear_screen) {
  if (clear_screen) std::fputs("\x1b[H\x1b[2J", stdout);
  std::printf("%8s %12s %10s %10s %10s %6s %7s %6s %6s %7s %7s %5s %5s %7s "
              "%6s %8s %9s %9s %9s %9s %9s\n",
              "SITE", "OPS", "OPS/S", "FRAMES_IN", "FRAMES_OUT", "CONN",
              "SLOW", "DROPS", "OVFL", "FWD", "PUSH", "MEMB", "RBAL", "WARM",
              "SHED", "AGE_MS", "DEC_P99", "APPLY_P99", "FLUSH_P99",
              "STALE_P50", "STALE_P99");
  for (const auto& [site, stats] : boards) {
    const std::int64_t ops = val(stats, StatKey::kOpsApplied);
    double ops_per_s = 0;
    const auto p = prev.find(site);
    if (p != prev.end() && dt_ms > 0) {
      ops_per_s = static_cast<double>(ops - val(p->second,
                                                StatKey::kOpsApplied)) *
                  1000.0 / static_cast<double>(dt_ms);
    }
    std::printf("%8u %12" PRId64 " %10.0f %10" PRId64 " %10" PRId64
                " %6" PRId64 " %7" PRId64 " %6" PRId64 " %6" PRId64
                " %7" PRId64 " %7" PRId64 " %5" PRId64 " %5" PRId64
                " %7" PRId64 " %6" PRId64 " %8.1f %9" PRId64
                " %9" PRId64 " %9" PRId64 " %9" PRId64 " %9" PRId64 "\n",
                site, ops, ops_per_s, val(stats, StatKey::kFramesIn),
                val(stats, StatKey::kFramesOut),
                val(stats, StatKey::kConnections),
                val(stats, StatKey::kSlowTicks),
                val(stats, StatKey::kFramesDropped),
                val(stats, StatKey::kFlightOverwritten),
                val(stats, StatKey::kClusterForwardsOut) +
                    val(stats, StatKey::kClusterForwardsIn),
                val(stats, StatKey::kClusterPushes),
                val(stats, StatKey::kClusterMembers),
                val(stats, StatKey::kClusterRebalances),
                val(stats, StatKey::kClusterSlicesSynced),
                val(stats, StatKey::kClusterReadsShed) +
                    val(stats, StatKey::kClusterWritesDeferred),
                static_cast<double>(val(stats, StatKey::kLastTickAgeUs)) /
                    1000.0,
                val(stats, StatKey::kStageDecodeP99Us),
                val(stats, StatKey::kStageApplyP99Us),
                val(stats, StatKey::kStageFlushP99Us),
                val(stats, StatKey::kStalenessP50Us),
                val(stats, StatKey::kStalenessP99Us));
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage(argv[0]);

  const int fd = connect_to(opt.host, opt.port);
  if (fd < 0) {
    std::fprintf(stderr, "timedc-top: cannot connect to %s:%u\n",
                 opt.host.c_str(), opt.port);
    return 1;
  }

  std::vector<std::uint8_t> rxbuf;
  std::vector<wire::StatsRow> rows;
  BoardMap prev;
  std::uint64_t seq = 0;
  for (;;) {
    ++seq;
    if (!poll_stats(fd, seq, opt.target_site, opt.timeout_ms, rxbuf, rows)) {
      std::fprintf(stderr, "timedc-top: poll %" PRIu64 " failed (timeout, "
                   "closed or corrupt stream)\n", seq);
      ::close(fd);
      return 1;
    }
    const BoardMap boards = group_rows(rows);
    if (boards.empty()) {
      std::fprintf(stderr, "timedc-top: empty reply (no boards registered "
                   "or unknown --site)\n");
      ::close(fd);
      return 1;
    }
    if (opt.json) {
      print_json(boards, seq);
    } else if (opt.prom) {
      print_prom(boards);
    } else {
      print_table(boards, prev, seq > 1 ? opt.interval_ms : -1,
                  /*clear_screen=*/!opt.once);
    }
    if (opt.once) break;
    prev = boards;
    timespec ts{opt.interval_ms / 1000, (opt.interval_ms % 1000) * 1000000};
    nanosleep(&ts, nullptr);
  }
  ::close(fd);
  return 0;
}
