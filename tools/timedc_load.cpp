// timedc-load: multi-threaded load generator for timedc-server.
//
// Each worker thread owns one EventLoop + TcpTransport and drives a set of
// TimedSerialCache (TSC, Section 5) clients. By default that is a closed
// loop: every client keeps exactly one operation in flight, issuing the
// next as soon as the previous completes (--pipeline N raises the in-flight
// bound). --open-loop RATE switches to a fixed arrival schedule at RATE
// aggregate ops/s, with latency charged from each op's INTENDED arrival
// time so a slow server cannot slow the offered load and hide its own tail
// (coordinated omission). The mix is --write-pct writes over a
// Zipf-distributed object population, with the timeliness bound --delta-us
// configuring the caches' Context advance (rule 3).
//
// Reporting: throughput (ops/s), exact p50/p99/max operation latency, and
// the Def-1 per-read staleness histogram computed from the captured global
// history — the same `per_read_staleness` feed the sim experiments use —
// all exported through obs::MetricsRegistry JSON (--metrics-out). The
// captured history itself can be stored with --history-out in the
// timedc-check trace format, closing the loop: a real-socket run is
// checkable against TSC exactly like a simulated one.
//
// History conventions match src/protocol/experiment.cpp: writes are
// recorded at their ISSUE time (the client_time the server orders by),
// reads at their COMPLETION time; equal-microsecond collisions per site are
// bumped by +1us to satisfy the History invariant.
//
// Reliability: --max-attempts > 1 turns on the client retry layer
// (exponential backoff, deterministic jitter, failover across every shard
// when the current target keeps timing out or its connection is DEAD).
// Operations the retry layer abandons are excluded from the history and the
// staleness oracle and counted in load.ops_abandoned; --max-abandoned gates
// the exit status on that count. SIGINT/SIGTERM stop the workers early but
// still flush --metrics-out/--history-out and print the summary, so an
// interrupted run keeps its data. With the retry layer off, nothing ever
// gives up on a request a server dropped (say, a frame for a site it does
// not host): operations still unanswered 2 s after a --duration-s run's
// bell are counted in load.ops_unfinished and fail the run, which would
// otherwise wait for them forever.
//
// Clocks: by default every worker reads the loop's monotonic clock (perfect
// synchronization). --clock-offset-us O skews worker w's hardware clock by
// +O/-O microseconds (sign alternates per worker, so two workers disagree by
// 2*O); --clock-drift-ppm adds a matching rate error. --time-sync-ms MS runs
// one Cristian-style TimeSyncClient per worker against shard 0's transport
// time service and stamps the history with the CORRECTED clock, recording
// the measured pairwise skew bound (2x the largest one-sided epsilon any
// worker observed) as the trace's `eps` directive. --adaptive-delta
// (requires --time-sync-ms) makes every cache shed measured epsilon + RTT
// margin from its Delta budget before each operation (never exceeding the
// configured --delta-us). --trace-out captures the merged client-side event
// stream (op/cache/clock.sync/clock.eps/delta.adapt) as JSONL.
//
// Usage:
//   timedc-load --ports p0[,p1,...] [--threads 2] [--clients 8]
//               [--duration-s 5 | --ops N] [--write-pct 10] [--objects 64]
//               [--zipf 0.9] [--delta-us 20000] [--think-us 0] [--seed 42]
//               [--open-loop RATE] [--pipeline N]
//               [--max-attempts 1] [--retry-base-ms 0] [--max-abandoned -1]
//               [--heartbeat-ms 0] [--clock-offset-us 0] [--clock-drift-ppm 0]
//               [--time-sync-ms 0] [--adaptive-delta] [--trace-out FILE]
//               [--metrics-out FILE] [--history-out FILE]
//               [--min-ops-per-sec X] [--cluster] [--misroute-pct P]
//
// Cluster mode (--cluster): each operation is dispatched to the endpoint
// that OWNS the object under the same deterministic consistent-hash ring
// the servers build (ports[i] serves site i), and --misroute-pct sends a
// deliberate fraction to a wrong endpoint to exercise server-to-server
// forwarding. Client identities are structured as one 4096-wide sub-band
// per endpoint inside the pid-derived super-band, so repeat runs cannot
// collide on (site, request_id) dedup keys anywhere in the group.
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <optional>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "clocks/physical_clock.hpp"
#include "cluster/ring.hpp"
#include "common/rng.hpp"
#include "core/history.hpp"
#include "core/timed.hpp"
#include "core/trace_io.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"
#include "net/time_sync.hpp"
#include "obs/metrics.hpp"
#include "obs/stats_bridge.hpp"
#include "obs/trace.hpp"
#include "protocol/timed_serial_cache.hpp"

namespace {

using namespace timedc;

// Client network site ids. Shard sites are 0..S-1 and must not collide;
// beyond that, a fresh invocation must not RE-USE site ids a previous run
// presented to the same server: write dedup is keyed by (site, request_id),
// so a new process restarting request ids at 1 under an old identity looks
// like a stream of stale retransmissions and is silently dropped. With
// clustering the stakes rise: forwarding propagates the dedup key to the
// OWNER, so "point the rerun at a different server" no longer yields a
// fresh dedup table — any endpoint of the group may have seen the key.
//
// The identity space is therefore structured in two levels. Each run
// claims a pid-derived SUPER-BAND (--site-base overrides it, e.g. to make
// captured traces reproducible byte-for-byte); inside the super-band every
// ENDPOINT owns a deterministic 4096-wide sub-band, and a client is
// numbered within its home endpoint's sub-band (home = global index mod
// endpoints). The layout is a pure function of (site_base, endpoints,
// threads, clients): repeat runs with --site-base fixed reproduce the
// exact same identities, auto-derived runs land in disjoint super-bands,
// and two invocations sharing a super-band but targeting different
// endpoint lists still cannot cross sub-band boundaries.
constexpr std::uint32_t kClientSiteBase = 1000;
constexpr std::uint32_t kEndpointBand = 4096;   // identities per endpoint
constexpr std::uint32_t kMaxEndpointBands = 16;  // sub-bands per super-band

/// How long after the bell a run without retries waits for its last replies.
constexpr SimTime kUnfinishedGrace = SimTime::seconds(2);

std::uint32_t auto_site_base() {
  return kClientSiteBase +
         (static_cast<std::uint32_t>(::getpid()) & 0xFFFF) *
             (kEndpointBand * kMaxEndpointBands);
}

/// Network identity of global client `global`: its home endpoint's
/// sub-band, indexed by its slot within that endpoint's client population.
std::uint32_t client_site(std::uint32_t site_base, std::size_t global,
                          std::size_t num_endpoints) {
  const auto home = static_cast<std::uint32_t>(global % num_endpoints);
  const auto slot = static_cast<std::uint32_t>(global / num_endpoints);
  return site_base + home * kEndpointBand + slot;
}

struct Options {
  std::vector<std::uint16_t> ports;
  std::size_t threads = 2;
  std::size_t clients = 8;  // per thread
  std::int64_t duration_s = 5;
  std::uint64_t ops = 0;  // per client; 0 = run for duration
  int write_pct = 10;
  std::size_t objects = 64;
  // First object id. A capture run (--history-out) meant for an EXACT
  // timedc-check verdict must target objects no other client ever wrote:
  // a read returning an untraced writer's value has no writer inside the
  // captured history and can serialize nowhere. Point --object-base at a
  // fresh range (or use a fresh server) for checkable traces.
  std::uint32_t object_base = 0;
  double zipf = 0.9;
  std::int64_t delta_us = 20000;
  std::int64_t think_us = 0;
  std::uint64_t seed = 42;
  std::uint32_t site_base = 0;  // 0 = derive from pid (auto_site_base)
  // Cluster mode: route each operation to the endpoint that OWNS the
  // object under the same deterministic consistent-hash ring the servers
  // build from their --cluster list (sites 0..S-1), instead of the legacy
  // object-id modulo. --misroute-pct deliberately sends that fraction of
  // operations to a WRONG endpoint, exercising the server-to-server
  // forwarding path under load.
  bool cluster = false;
  int misroute_pct = 0;
  // Reliability. max_attempts 1 keeps the seed behavior (one send, wait
  // forever). heartbeat_ms 0 = auto: connection supervision (reconnect,
  // heartbeats, DEAD detection) is enabled at 200ms exactly when retries
  // are on — failover needs peer_reachable() to mean something.
  int max_attempts = 1;
  std::int64_t retry_base_ms = 0;  // 0 = derive from the latency bound
  std::int64_t max_abandoned = -1;  // >= 0: exit 1 when exceeded
  std::int64_t heartbeat_ms = 0;
  // Clock skew injection + synchronization (see the header comment).
  std::int64_t clock_offset_us = 0;  // worker w gets +/-offset, alternating
  double clock_drift_ppm = 0;
  std::int64_t time_sync_ms = 0;  // 0 = no sync; > 0 = resync period
  bool adaptive_delta = false;    // requires time_sync_ms > 0
  std::string trace_out;
  std::string metrics_out;
  std::string history_out;
  double min_ops_per_sec = 0;
  /// Open-loop mode: arrivals come on a fixed schedule at this aggregate
  /// rate (ops/s across all threads) instead of as fast as completions
  /// allow, and latency is measured from the INTENDED arrival time — so a
  /// stalled server accrues the queueing delay it caused instead of
  /// silently slowing the arrival schedule (coordinated omission). 0 keeps
  /// the closed loop.
  double open_loop = 0;
  /// Bound on concurrently outstanding operations per worker (and thus per
  /// connection). 0 = one per client, the closed-loop default. In open-
  /// loop mode arrivals beyond the bound queue in a backlog, charged from
  /// their intended time.
  std::size_t pipeline = 0;

  bool supervised() const { return heartbeat_ms > 0 || max_attempts > 1; }
  std::int64_t effective_heartbeat_ms() const {
    return heartbeat_ms > 0 ? heartbeat_ms : 200;
  }
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --ports p0[,p1,...] [--threads T] [--clients C]\n"
      "          [--duration-s S | --ops N] [--write-pct P] [--objects K]\n"
      "          [--object-base B]\n"
      "          [--zipf E] [--delta-us D] [--think-us U] [--seed S]\n"
      "          [--max-attempts A] [--retry-base-ms MS] [--max-abandoned N]\n"
      "          [--heartbeat-ms MS]\n"
      "          [--clock-offset-us O] [--clock-drift-ppm D]\n"
      "          [--time-sync-ms MS] [--adaptive-delta] [--trace-out FILE]\n"
      "          [--site-base B] [--metrics-out FILE] [--history-out FILE]\n"
      "          [--min-ops-per-sec X] [--open-loop RATE] [--pipeline N]\n"
      "          [--cluster] [--misroute-pct P]\n",
      argv0);
  return 2;
}

bool parse_ports(const std::string& arg, std::vector<std::uint16_t>& out) {
  std::size_t at = 0;
  while (at < arg.size()) {
    std::size_t comma = arg.find(',', at);
    if (comma == std::string::npos) comma = arg.size();
    const int port = std::atoi(arg.substr(at, comma - at).c_str());
    if (port <= 0 || port > 65535) return false;
    out.push_back(static_cast<std::uint16_t>(port));
    at = comma + 1;
  }
  return !out.empty();
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--ports") {
      if ((v = next()) == nullptr || !parse_ports(v, opt.ports)) return false;
    } else if (arg == "--threads") {
      if ((v = next()) == nullptr) return false;
      opt.threads = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--clients") {
      if ((v = next()) == nullptr) return false;
      opt.clients = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--duration-s") {
      if ((v = next()) == nullptr) return false;
      opt.duration_s = std::atoll(v);
    } else if (arg == "--ops") {
      if ((v = next()) == nullptr) return false;
      opt.ops = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--write-pct") {
      if ((v = next()) == nullptr) return false;
      opt.write_pct = std::atoi(v);
    } else if (arg == "--objects") {
      if ((v = next()) == nullptr) return false;
      opt.objects = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--object-base") {
      if ((v = next()) == nullptr) return false;
      opt.object_base = static_cast<std::uint32_t>(std::atoll(v));
    } else if (arg == "--zipf") {
      if ((v = next()) == nullptr) return false;
      opt.zipf = std::atof(v);
    } else if (arg == "--delta-us") {
      if ((v = next()) == nullptr) return false;
      opt.delta_us = std::atoll(v);
    } else if (arg == "--think-us") {
      if ((v = next()) == nullptr) return false;
      opt.think_us = std::atoll(v);
    } else if (arg == "--seed") {
      if ((v = next()) == nullptr) return false;
      opt.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--site-base") {
      if ((v = next()) == nullptr) return false;
      opt.site_base = static_cast<std::uint32_t>(std::atoll(v));
    } else if (arg == "--max-attempts") {
      if ((v = next()) == nullptr) return false;
      opt.max_attempts = std::atoi(v);
    } else if (arg == "--retry-base-ms") {
      if ((v = next()) == nullptr) return false;
      opt.retry_base_ms = std::atoll(v);
    } else if (arg == "--max-abandoned") {
      if ((v = next()) == nullptr) return false;
      opt.max_abandoned = std::atoll(v);
    } else if (arg == "--heartbeat-ms") {
      if ((v = next()) == nullptr) return false;
      opt.heartbeat_ms = std::atoll(v);
    } else if (arg == "--clock-offset-us") {
      if ((v = next()) == nullptr) return false;
      opt.clock_offset_us = std::atoll(v);
    } else if (arg == "--clock-drift-ppm") {
      if ((v = next()) == nullptr) return false;
      opt.clock_drift_ppm = std::atof(v);
    } else if (arg == "--time-sync-ms") {
      if ((v = next()) == nullptr) return false;
      opt.time_sync_ms = std::atoll(v);
    } else if (arg == "--adaptive-delta") {
      opt.adaptive_delta = true;
    } else if (arg == "--trace-out") {
      if ((v = next()) == nullptr) return false;
      opt.trace_out = v;
    } else if (arg == "--metrics-out") {
      if ((v = next()) == nullptr) return false;
      opt.metrics_out = v;
    } else if (arg == "--history-out") {
      if ((v = next()) == nullptr) return false;
      opt.history_out = v;
    } else if (arg == "--min-ops-per-sec") {
      if ((v = next()) == nullptr) return false;
      opt.min_ops_per_sec = std::atof(v);
    } else if (arg == "--open-loop") {
      if ((v = next()) == nullptr) return false;
      opt.open_loop = std::atof(v);
    } else if (arg == "--pipeline") {
      if ((v = next()) == nullptr) return false;
      opt.pipeline = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--cluster") {
      opt.cluster = true;
    } else if (arg == "--misroute-pct") {
      if ((v = next()) == nullptr) return false;
      opt.misroute_pct = std::atoi(v);
    } else {
      return false;
    }
  }
  return !opt.ports.empty() && opt.threads >= 1 && opt.clients >= 1 &&
         opt.max_attempts >= 1 &&
         opt.objects >= 1 && opt.write_pct >= 0 && opt.write_pct <= 100 &&
         (opt.duration_s > 0 || opt.ops > 0) &&
         (opt.site_base == 0 || opt.site_base >= opt.ports.size()) &&
         opt.clock_offset_us >= 0 && opt.time_sync_ms >= 0 &&
         // Adaptation feeds on measured epsilon/RTT; without sync there is
         // no measurement and the budget would be pinned at zero.
         (!opt.adaptive_delta || opt.time_sync_ms > 0) &&
         // Open loop is paced by wall time; a per-client op cap has no
         // meaning on an arrival schedule.
         opt.open_loop >= 0 && (opt.open_loop == 0 || opt.duration_s > 0) &&
         (opt.open_loop == 0 || opt.ops == 0) &&
         // Misrouting needs a ring to misroute against, and at least one
         // wrong endpoint to aim at.
         opt.misroute_pct >= 0 && opt.misroute_pct <= 100 &&
         (opt.misroute_pct == 0 || (opt.cluster && opt.ports.size() >= 2)) &&
         // The structured identity space must hold everything: one
         // sub-band per endpoint, each endpoint's client share inside its
         // sub-band, and the per-worker sync sites in band ports.size().
         opt.ports.size() <= kMaxEndpointBands - 1 &&
         (opt.threads * opt.clients + opt.ports.size() - 1) /
                 opt.ports.size() <=
             kEndpointBand &&
         opt.threads <= kEndpointBand;
}

/// One recorded operation of the global history.
struct OpRecord {
  std::uint32_t site;  // global client index (history site)
  bool is_write;
  ObjectId object;
  Value value;
  std::int64_t time_us;  // issue time (writes) / completion time (reads)
};

/// One worker thread: an EventLoop, a TcpTransport and `clients` closed-loop
/// TSC clients. All mutable state is loop-thread-confined; main reads it
/// only after join().
class Worker {
 public:
  Worker(const Options& opt, std::size_t index)
      : opt_(opt),
        index_(index),
        transport_(loop_, SimTime::millis(100)),
        tracer_(TraceConfig{!opt.trace_out.empty()}),
        zipf_(opt.objects, opt.zipf) {
    // Hardware clock: perfect unless skew is injected. The sign alternates
    // per worker so any two adjacent workers disagree by the full 2*offset
    // (the worst pair Definition 2's eps has to cover).
    const std::int64_t sign = (index % 2 == 0) ? 1 : -1;
    if (opt_.clock_offset_us != 0 || opt_.clock_drift_ppm != 0) {
      hardware_ = std::make_unique<DriftingClock>(
          SimTime::micros(sign * opt_.clock_offset_us),
          sign * opt_.clock_drift_ppm);
    } else {
      hardware_ = std::make_unique<PerfectClock>();
    }
    std::vector<SiteId> shard_sites;
    for (std::size_t s = 0; s < opt_.ports.size(); ++s) {
      shard_sites.push_back(SiteId{static_cast<std::uint32_t>(s)});
      transport_.add_route(shard_sites.back(), "127.0.0.1", opt_.ports[s]);
    }
    if (opt_.supervised()) {
      net::SupervisionConfig sup;
      sup.enabled = true;
      sup.heartbeat_interval = SimTime::millis(opt_.effective_heartbeat_ms());
      sup.seed = opt_.seed + 0x10ad + index;
      transport_.set_supervision(sup);
    }
    client_clock_ = hardware_.get();
    if (opt_.time_sync_ms > 0) {
      // One sync client per worker, against shard 0's transport-level time
      // service, in the first sub-band no endpoint claims (band S for S
      // endpoints) so it can never shadow a cache client's identity.
      const std::uint32_t sync_site =
          opt_.site_base +
          static_cast<std::uint32_t>(opt_.ports.size()) * kEndpointBand +
          static_cast<std::uint32_t>(index);
      net::TimeSyncConfig sync_config;
      sync_config.period = SimTime::millis(opt_.time_sync_ms);
      sync_ = std::make_unique<net::TimeSyncClient>(
          transport_, SiteId{sync_site}, SiteId{0}, hardware_.get(),
          sync_config, tracer());
      corrected_ = std::make_unique<net::CorrectedClock>(hardware_.get(),
                                                         sync_.get());
      client_clock_ = corrected_.get();
      if (opt_.adaptive_delta) adaptive_.emplace(sync_.get());
    }
    const std::size_t num_shards = opt_.ports.size();
    if (opt_.cluster) {
      // The SAME deterministic ring the servers build from their --cluster
      // list: ring_hash is seedless, so owner_of here and owner_of inside
      // timedc-server agree on every object without any exchange.
      ring_ = std::make_shared<cluster::HashRing>();
      ring_->set_members(shard_sites);
      // Self-healing: a server that sees one of our requests stamped with a
      // stale ring bounces a kRingUpdate hint carrying its serving set.
      // Re-learn the ring from it (epochs only move forward), so after a
      // rebalance our dispatch goes straight to the new owner instead of
      // paying the forward hop on every op. Sites map to ports positionally
      // (ports[i] serves site i), so members beyond the endpoint list —
      // ones we could not dial anyway — are dropped.
      transport_.set_ring_update_handler(
          [this, num_shards](SiteId, std::uint64_t epoch,
                             std::span<const std::uint32_t> members) {
            if (epoch <= learned_ring_epoch_ || members.empty()) return;
            std::vector<SiteId> sites;
            for (const std::uint32_t site : members) {
              if (site < num_shards) sites.push_back(SiteId{site});
            }
            if (sites.empty()) return;
            learned_ring_epoch_ = epoch;
            ring_->set_members(sites);
            ++ring_updates_;
          });
    }
    // Admission-shed replies: the request was not served; the client's
    // retry timer already covers it (the next attempt rotates endpoints),
    // so all we do is count the explicit sheds.
    transport_.set_overloaded_handler(
        [this](SiteId, const wire::Overloaded&) { ++overloaded_; });
    route_rng_ = Rng::stream(opt_.seed + 0x707e, index_);
    clients_.reserve(opt_.clients);
    state_.resize(opt_.clients);
    for (std::size_t k = 0; k < opt_.clients; ++k) {
      const std::uint32_t global = global_index(k);
      auto client = std::make_unique<TimedSerialCache>(
          transport_, SiteId{client_site(opt_.site_base, global, num_shards)},
          SiteId{0}, client_clock_,
          SimTime::micros(opt_.delta_us), /*mark_old=*/true, MessageSizes{});
      if (opt_.cluster) {
        // Owner-aware dispatch, with an optional deliberate error rate:
        // a misrouted op lands on a uniformly chosen WRONG endpoint and
        // must come back through the server-to-server forward path.
        client->set_route([this, num_shards](ObjectId object) {
          SiteId owner = ring_->owner_of(object);
          if (opt_.misroute_pct > 0 &&
              route_rng_.uniform_int(0, 99) <
                  static_cast<std::int64_t>(opt_.misroute_pct)) {
            const auto hop = static_cast<std::uint32_t>(route_rng_.uniform_int(
                1, static_cast<std::int64_t>(num_shards) - 1));
            owner = SiteId{(owner.value + hop) %
                           static_cast<std::uint32_t>(num_shards)};
            ++misrouted_;
          }
          return owner;
        });
      } else {
        client->set_route([num_shards](ObjectId object) {
          return SiteId{
              static_cast<std::uint32_t>(object.value % num_shards)};
        });
      }
      if (opt_.max_attempts > 1) {
        RetryPolicy policy;
        policy.max_attempts = opt_.max_attempts;
        policy.base_timeout = SimTime::millis(opt_.retry_base_ms);
        client->configure_reliability(policy, shard_sites,
                                      opt_.seed + 0x5eed + global);
      }
      if (adaptive_) {
        client->set_delta_provider([this](SimTime configured) {
          return adaptive_->effective(configured);
        });
      }
      client->set_tracer(tracer());
      client->attach();
      state_[k].rng = Rng::stream(opt_.seed, global);
      clients_.push_back(std::move(client));
    }
  }

  void start() {
    thread_ = std::thread([this] {
      deadline_ = loop_.now() + SimTime::seconds(
                                    opt_.duration_s > 0 ? opt_.duration_s
                                                        : 3600);
      if (opt_.duration_s > 0 && opt_.max_attempts <= 1) {
        loop_.run_after(SimTime::seconds(opt_.duration_s) + kUnfinishedGrace,
                        [this] {
                          unfinished_ = outstanding_;
                          loop_.stop();
                        });
      }
      if (sync_) {
        // Warm-up barrier: stamping history with a clock that is about to
        // snap by the full injected offset would poison every later per-site
        // timestamp, so hold the first ops until the estimator converges
        // (capped at 5s — an unreachable time server degrades, not hangs).
        sync_->start();
        await_sync_then_issue(/*polls_left=*/5000);
      } else {
        begin_issuing();
      }
      loop_.run();
      if (sync_) {
        sync_->stop();
        sample_epsilon();
        sync_stats_ = sync_->stats();
      }
    });
  }

  void join() { thread_.join(); }

  /// Early shutdown (SIGINT/SIGTERM): stop issuing, give in-flight
  /// operations a short grace to resolve through the retry layer, then
  /// force the loop down so main can still flush histograms and the trace.
  void request_stop() {
    loop_.post([this] {
      if (stop_requested_) return;
      stop_requested_ = true;
      loop_.run_after(SimTime::millis(500), [this] { loop_.stop(); });
    });
  }

  const std::vector<OpRecord>& records() const { return records_; }
  const std::vector<std::int64_t>& latencies() const { return latencies_; }
  const std::vector<std::int64_t>& read_latencies() const {
    return read_latencies_;
  }
  std::uint64_t abandoned() const { return abandoned_; }
  /// Operations still in flight kUnfinishedGrace after the bell (retry
  /// layer off only; the loop stops there instead of waiting for them).
  std::uint64_t unfinished() const { return unfinished_; }
  /// Operations deliberately sent to a non-owner endpoint (--misroute-pct).
  std::uint64_t misrouted() const { return misrouted_; }
  /// kRingUpdate hints that actually moved this worker's learned ring.
  std::uint64_t ring_updates() const { return ring_updates_; }
  /// kOverloaded admission-shed replies received.
  std::uint64_t overloaded() const { return overloaded_; }
  /// Deepest the open-loop backlog ever got (0 in closed-loop mode): how
  /// far demand outran the pipeline at the worst moment.
  std::uint64_t backlog_peak() const { return backlog_peak_; }
  /// Open-loop arrivals still queued when the run ended — unserved demand
  /// that would have inflated the tail had the run continued.
  std::uint64_t arrivals_dropped() const { return arrivals_dropped_; }
  CacheStats total_cache_stats() const {
    CacheStats total;
    for (const auto& c : clients_) total += c->stats();
    return total;
  }
  const net::TcpTransportStats& transport_stats() const {
    return transport_.stats();
  }
  bool time_synced() const { return sync_ != nullptr; }
  const net::TimeSyncStats& sync_stats() const { return sync_stats_; }
  /// Largest one-sided epsilon this worker measured at any op completion
  /// (infinity when it never achieved synchronization).
  SimTime max_epsilon() const {
    return eps_sampled_ ? max_eps_ : SimTime::infinity();
  }
  std::vector<TraceEvent> flush_trace() const { return tracer_.flush(); }

 private:
  struct ClientState {
    Rng rng{0};
    std::uint64_t issued = 0;
    std::uint64_t value_seq = 0;
    std::int64_t issued_at_us = 0;
    bool done = false;
  };

  std::uint32_t global_index(std::size_t k) const {
    return static_cast<std::uint32_t>(index_ * opt_.clients + k);
  }

  Tracer* tracer() { return opt_.trace_out.empty() ? nullptr : &tracer_; }

  /// The history timestamp source: the clients' (possibly skewed, possibly
  /// sync-corrected) clock — the clock the server's LWW ordering and the
  /// TSC lifetime rules actually saw, which is what timedc-check judges.
  std::int64_t client_clock_us() const {
    return client_clock_->read(loop_.now()).as_micros();
  }

  void await_sync_then_issue(int polls_left) {
    if (sync_->synced() || polls_left <= 0 || stop_requested_) {
      begin_issuing();
      return;
    }
    loop_.run_after(SimTime::millis(1), [this, polls_left] {
      await_sync_then_issue(polls_left - 1);
    });
  }

  bool open_loop() const { return opt_.open_loop > 0; }

  void begin_issuing() {
    cap_ = opt_.pipeline == 0 ? opt_.clients
                              : std::min(opt_.pipeline, opt_.clients);
    for (std::size_t k = 0; k < opt_.clients; ++k) ready_.push_back(k);
    if (open_loop()) {
      // Each worker serves an equal slice of the aggregate arrival rate.
      arrival_period_us_ = 1e6 * static_cast<double>(opt_.threads) /
                           opt_.open_loop;
      next_arrival_at_us_ = static_cast<double>(loop_.now().as_micros());
      schedule_arrivals();
    } else {
      pump();
    }
  }

  /// Enqueue every arrival whose intended time has come, dispatch, and
  /// re-arm for the next one. Arrivals keep their schedule regardless of
  /// completions: if the server stalls, the backlog grows and each queued
  /// op is charged from its intended time (no coordinated omission). The
  /// loop's ms-granularity timer can make arrivals land in small bursts;
  /// their intended times stay exact.
  void schedule_arrivals() {
    if (stop_requested_ || loop_.now() >= deadline_) {
      arrivals_done_ = true;
      arrivals_dropped_ += backlog_.size();  // unserved demand at the bell
      backlog_.clear();
      check_open_finish();
      return;
    }
    const double now_us = static_cast<double>(loop_.now().as_micros());
    while (next_arrival_at_us_ <= now_us) {
      backlog_.push_back(static_cast<std::int64_t>(next_arrival_at_us_));
      next_arrival_at_us_ += arrival_period_us_;
    }
    if (backlog_.size() > backlog_peak_) backlog_peak_ = backlog_.size();
    pump();
    const auto delay_us = static_cast<std::int64_t>(
        std::max(0.0, next_arrival_at_us_ - now_us));
    loop_.run_after(SimTime::micros(delay_us), [this] { schedule_arrivals(); });
  }

  /// Dispatch as much queued work as the pipeline bound allows. Bounded by
  /// the entry-time ready count: a synchronous completion (cache hit) puts
  /// its client straight back into ready_, and an unbounded loop would
  /// spin hit -> complete -> hit forever without returning to the loop.
  void pump() {
    if (open_loop()) {
      std::size_t budget = std::min(ready_.size(), backlog_.size());
      while (budget-- > 0 && outstanding_ < cap_ && !ready_.empty() &&
             !backlog_.empty()) {
        const std::size_t k = ready_.front();
        ready_.pop_front();
        const std::int64_t intended = backlog_.front();
        backlog_.pop_front();
        issue_open(k, intended);
      }
      check_open_finish();
    } else {
      std::size_t budget = ready_.size();
      while (budget-- > 0 && outstanding_ < cap_ && !ready_.empty()) {
        const std::size_t k = ready_.front();
        ready_.pop_front();
        issue(k);
      }
    }
  }

  void check_open_finish() {
    if (arrivals_done_ && outstanding_ == 0 && backlog_.empty()) loop_.stop();
  }

  void sample_epsilon() {
    if (sync_ == nullptr || !sync_->synced()) return;
    const SimTime eps = sync_->epsilon();
    if (!eps_sampled_ || eps > max_eps_) max_eps_ = eps;
    eps_sampled_ = true;
  }

  void issue(std::size_t k) {
    ClientState& st = state_[k];
    if (stop_requested_ || (opt_.ops > 0 && st.issued >= opt_.ops) ||
        (opt_.duration_s > 0 && loop_.now() >= deadline_)) {
      st.done = true;
      if (++done_clients_ == opt_.clients) loop_.stop();
      return;
    }
    // Closed loop: latency is measured from the actual issue instant.
    issue_op(k, loop_.now().as_micros());
  }

  /// Open-loop issue: the op is charged from `intended_us` — its scheduled
  /// arrival — which is already in the past when it waited in the backlog.
  void issue_open(std::size_t k, std::int64_t intended_us) {
    issue_op(k, intended_us);
  }

  void issue_op(std::size_t k, std::int64_t charged_from_us) {
    ClientState& st = state_[k];
    ++st.issued;
    ++outstanding_;
    const ObjectId object{
        opt_.object_base + static_cast<std::uint32_t>(zipf_.sample(st.rng))};
    const bool is_write =
        st.rng.uniform_int(0, 99) < static_cast<std::int64_t>(opt_.write_pct);
    st.issued_at_us = charged_from_us;
    // Writes enter the history at their issue time AS THE CLIENT CLOCK SAW
    // IT: that is the client_time the server's last-writer-wins ordering
    // used (with skew injected, loop time and client time differ).
    const std::int64_t issued_clock_us = client_clock_us();
    const std::uint32_t site = global_index(k);
    if (is_write) {
      const Value value{
          (static_cast<std::int64_t>(site + 1) << 32) +
          static_cast<std::int64_t>(++st.value_seq)};
      clients_[k]->write(
          object, value, [this, k, site, object, value, issued_clock_us](SimTime) {
            complete(k, OpRecord{site, true, object, value, issued_clock_us});
          });
    } else {
      clients_[k]->read(object, [this, k, site, object](Value v, SimTime) {
        // Reads are stamped at completion, again on the client clock.
        complete(k, OpRecord{site, false, object, v, client_clock_us()});
      });
    }
  }

  void complete(std::size_t k, OpRecord record) {
    // An abandoned operation's result is a degraded local guess, not a
    // server answer: it must stay out of the history (its value could
    // serialize nowhere) and out of the latency distribution.
    if (clients_[k]->last_op_abandoned()) {
      ++abandoned_;
    } else {
      const std::int64_t lat = loop_.now().as_micros() - state_[k].issued_at_us;
      latencies_.push_back(lat);
      if (!record.is_write) read_latencies_.push_back(lat);
      records_.push_back(record);
    }
    // The measured bound enters the trace's eps directive as the max over
    // the run; sampling at every completion tracks its growth between
    // resyncs without a dedicated timer.
    sample_epsilon();
    --outstanding_;
    // Return the client to the ready pool and dispatch through the loop,
    // never synchronously: a chain of cache hits would otherwise recurse
    // completion -> issue -> completion unboundedly.
    if (!open_loop() && opt_.think_us > 0) {
      loop_.run_after(SimTime::micros(opt_.think_us), [this, k] {
        ready_.push_back(k);
        pump();
      });
    } else {
      ready_.push_back(k);
      loop_.post([this] { pump(); });
    }
    if (open_loop()) check_open_finish();
  }

  const Options& opt_;
  std::size_t index_;
  net::EventLoop loop_;
  net::TcpTransport transport_;
  Tracer tracer_;
  std::unique_ptr<PhysicalClockModel> hardware_;
  std::unique_ptr<net::TimeSyncClient> sync_;
  std::unique_ptr<net::CorrectedClock> corrected_;
  std::optional<net::AdaptiveDelta> adaptive_;
  const PhysicalClockModel* client_clock_ = nullptr;
  net::TimeSyncStats sync_stats_;
  ZipfDistribution zipf_;
  std::vector<std::unique_ptr<TimedSerialCache>> clients_;
  std::vector<ClientState> state_;
  std::vector<OpRecord> records_;
  std::vector<std::int64_t> latencies_;
  std::vector<std::int64_t> read_latencies_;
  SimTime deadline_;
  SimTime max_eps_ = SimTime::zero();
  bool eps_sampled_ = false;
  std::size_t done_clients_ = 0;
  std::uint64_t abandoned_ = 0;
  std::uint64_t unfinished_ = 0;
  bool stop_requested_ = false;
  // Cluster routing state (loop-thread-confined, like everything above).
  std::shared_ptr<cluster::HashRing> ring_;
  Rng route_rng_{0};
  std::uint64_t misrouted_ = 0;
  std::uint64_t learned_ring_epoch_ = 0;  // newest kRingUpdate adopted
  std::uint64_t ring_updates_ = 0;
  std::uint64_t overloaded_ = 0;
  // Issuing state, shared by both modes: clients rotate through ready_,
  // at most cap_ operations are in flight, and (open loop only) arrivals
  // that found every client busy wait in backlog_ with their intended
  // timestamps.
  std::deque<std::size_t> ready_;
  std::deque<std::int64_t> backlog_;
  std::size_t outstanding_ = 0;
  std::size_t cap_ = 0;
  double arrival_period_us_ = 0;
  double next_arrival_at_us_ = 0;
  bool arrivals_done_ = false;
  std::uint64_t backlog_peak_ = 0;
  std::uint64_t arrivals_dropped_ = 0;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage(argv[0]);
  if (opt.site_base == 0) opt.site_base = auto_site_base();

  // Block SIGINT/SIGTERM in every thread; a dedicated watcher consumes
  // them and asks the workers to stop, so an interrupted run still flows
  // through the normal reporting/flush path below. SIGUSR2 is the private
  // "run finished naturally, watcher can exit" wake-up.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGUSR2);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(opt.threads);
  for (std::size_t t = 0; t < opt.threads; ++t) {
    workers.push_back(std::make_unique<Worker>(opt, t));
  }
  bool interrupted = false;
  std::thread watcher([&] {
    int got = 0;
    sigwait(&sigs, &got);
    if (got == SIGUSR2) return;
    interrupted = true;
    std::fprintf(stderr, "timedc-load: signal %d, draining and flushing\n",
                 got);
    for (auto& w : workers) w->request_stop();
  });
  timespec t0;
  clock_gettime(CLOCK_MONOTONIC, &t0);
  for (auto& w : workers) w->start();
  for (auto& w : workers) w->join();
  kill(getpid(), SIGUSR2);
  watcher.join();
  timespec t1;
  clock_gettime(CLOCK_MONOTONIC, &t1);
  const double elapsed_s =
      static_cast<double>(t1.tv_sec - t0.tv_sec) +
      static_cast<double>(t1.tv_nsec - t0.tv_nsec) / 1e9;

  // Merge per-thread op records into the global history. Each history site
  // is owned by exactly one thread, so per-site order is append order;
  // equal-microsecond neighbors are bumped to keep per-site times strictly
  // increasing (History invariant).
  const std::size_t num_clients = opt.threads * opt.clients;
  std::uint64_t total_ops = 0;
  HistoryBuilder builder(num_clients);
  std::vector<std::int64_t> last_time(num_clients, -1);
  for (const auto& w : workers) {
    for (const OpRecord& r : w->records()) {
      ++total_ops;
      std::int64_t t = std::max(r.time_us, last_time[r.site] + 1);
      last_time[r.site] = t;
      if (r.is_write) {
        builder.write(SiteId{r.site}, r.object, r.value, SimTime::micros(t));
      } else {
        builder.read(SiteId{r.site}, r.object, r.value, SimTime::micros(t));
      }
    }
  }
  const History history = builder.build();

  std::vector<std::int64_t> latencies;
  std::vector<std::int64_t> read_latencies;
  for (const auto& w : workers) {
    latencies.insert(latencies.end(), w->latencies().begin(),
                     w->latencies().end());
    read_latencies.insert(read_latencies.end(), w->read_latencies().begin(),
                          w->read_latencies().end());
  }
  const double ops_per_sec =
      elapsed_s > 0 ? static_cast<double>(total_ops) / elapsed_s : 0;
  double read_latency_sum = 0;
  for (const std::int64_t l : read_latencies) {
    read_latency_sum += static_cast<double>(l);
  }
  const double read_latency_mean_us =
      read_latencies.empty()
          ? 0
          : read_latency_sum / static_cast<double>(read_latencies.size());

  // The run's measured pairwise skew bound (Definition 2's eps): each
  // worker's one-sided bound covers |its clock - time server|, so any two
  // workers disagree by at most the sum of theirs <= 2x the max. Unknown
  // (and not recorded) if any worker never reached synchronization.
  SimTime measured_eps = SimTime::infinity();
  if (opt.time_sync_ms > 0) {
    SimTime worst = SimTime::zero();
    bool all_synced = true;
    for (const auto& w : workers) {
      const SimTime eps = w->max_epsilon();
      if (eps.is_infinite()) all_synced = false;
      if (all_synced && eps > worst) worst = eps;
    }
    if (all_synced) measured_eps = worst + worst;
  }

  // Def-1 staleness of every read, judged against the configured Delta.
  const std::vector<ReadStaleness> staleness = per_read_staleness(history);
  Histogram staleness_hist = Histogram::time_us();
  std::uint64_t late_reads = 0;
  for (const ReadStaleness& s : staleness) {
    staleness_hist.record(s.staleness.as_micros());
    if (s.staleness > SimTime::micros(opt.delta_us)) ++late_reads;
  }
  Histogram latency_hist = Histogram::time_us();
  for (const std::int64_t l : latencies) latency_hist.record(l);

  std::uint64_t total_abandoned = 0;
  std::uint64_t total_unfinished = 0;
  std::uint64_t total_misrouted = 0;
  std::uint64_t total_ring_updates = 0;
  std::uint64_t total_overloaded = 0;
  for (const auto& w : workers) {
    total_abandoned += w->abandoned();
    total_unfinished += w->unfinished();
    total_misrouted += w->misrouted();
    total_ring_updates += w->ring_updates();
    total_overloaded += w->overloaded();
  }

  MetricsRegistry reg;
  reg.set_counter("load.ops", total_ops);
  reg.set_counter("load.reads", staleness.size());
  reg.set_counter("load.writes", total_ops - staleness.size());
  reg.set_counter("load.reads_late", late_reads);
  reg.set_counter("load.ops_abandoned", total_abandoned);
  reg.set_counter("load.ops_unfinished", total_unfinished);
  reg.set_counter("load.interrupted", interrupted ? 1 : 0);
  if (opt.cluster) {
    reg.set_counter("load.cluster", 1);
    reg.set_counter("load.misrouted", total_misrouted);
    reg.set_counter("load.ring_updates", total_ring_updates);
  }
  reg.set_counter("load.overloaded", total_overloaded);
  if (opt.open_loop > 0) {
    std::uint64_t backlog_peak = 0, arrivals_dropped = 0;
    for (const auto& w : workers) {
      backlog_peak = std::max(backlog_peak, w->backlog_peak());
      arrivals_dropped += w->arrivals_dropped();
    }
    reg.set_gauge("load.open_loop_rate", opt.open_loop);
    reg.set_gauge("load.backlog_peak", static_cast<double>(backlog_peak));
    reg.set_counter("load.arrivals_dropped", arrivals_dropped);
  }
  CacheStats cache_total;
  for (const auto& w : workers) {
    cache_total += w->total_cache_stats();
    // Publishers add counters, so calling once per worker aggregates the
    // full transport counter set (reconnects, heartbeats, per-status
    // decode errors, queue drops, ...) under one "net" prefix.
    publish_tcp_transport_stats(reg, "net", w->transport_stats());
    if (w->time_synced()) {
      publish_time_sync_stats(reg, "client.sync", w->sync_stats());
    }
  }
  publish_cache_stats(reg, "client", cache_total);
  reg.set_gauge("load.ops_per_sec", ops_per_sec);
  reg.set_gauge("load.elapsed_s", elapsed_s);
  reg.set_gauge("load.delta_us", static_cast<double>(opt.delta_us));
  reg.set_gauge("load.read_latency_mean_us", read_latency_mean_us);
  reg.set_gauge("load.eps_us",
                measured_eps.is_infinite()
                    ? -1.0
                    : static_cast<double>(measured_eps.as_micros()));
  reg.add_histogram("latency_us", latency_hist);
  Histogram read_latency_hist = Histogram::time_us();
  for (const std::int64_t l : read_latencies) read_latency_hist.record(l);
  reg.add_histogram("read_latency_us", read_latency_hist);
  reg.add_histogram("staleness_us", staleness_hist);

  if (!opt.metrics_out.empty()) {
    std::ofstream out(opt.metrics_out);
    out << reg.to_json(2) << "\n";
  }
  if (!opt.history_out.empty()) {
    std::ofstream out(opt.history_out);
    out << (measured_eps.is_infinite() ? write_trace(history)
                                       : write_trace(history, measured_eps));
  }
  if (!opt.trace_out.empty()) {
    // One merged client-side event stream. Workers trace independently, so
    // re-sort globally by (time, site) to keep timestamps monotone for
    // downstream consumers (ci/validate_trace.py).
    std::vector<TraceEvent> events;
    for (const auto& w : workers) {
      std::vector<TraceEvent> part = w->flush_trace();
      events.insert(events.end(), part.begin(), part.end());
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       if (a.at != b.at) return a.at < b.at;
                       return a.site.value < b.site.value;
                     });
    write_text_file(opt.trace_out, trace_to_jsonl(events));
    std::printf("timedc-load: %zu trace events -> %s\n", events.size(),
                opt.trace_out.c_str());
  }

  std::printf(
      "timedc-load: %llu ops in %.2fs = %.0f ops/s | latency p50 %lld us "
      "p99 %lld us max %lld us | read mean %.0f us | reads %zu late %llu "
      "(Delta %lld us) | "
      "hit ratio %.2f | retries %llu failovers %llu abandoned %llu%s\n",
      static_cast<unsigned long long>(total_ops), elapsed_s, ops_per_sec,
      static_cast<long long>(latency_hist.p50()),
      static_cast<long long>(latency_hist.p99()),
      static_cast<long long>(latency_hist.count() == 0 ? 0
                                                       : latency_hist.max()),
      read_latency_mean_us,
      staleness.size(), static_cast<unsigned long long>(late_reads),
      static_cast<long long>(opt.delta_us), cache_total.hit_ratio(),
      static_cast<unsigned long long>(cache_total.retries),
      static_cast<unsigned long long>(cache_total.failovers),
      static_cast<unsigned long long>(total_abandoned),
      interrupted ? " | INTERRUPTED" : "");
  if (opt.time_sync_ms > 0) {
    std::printf("timedc-load: measured eps %s (pairwise, Def 2)\n",
                measured_eps.to_string().c_str());
  }
  if (opt.cluster) {
    std::printf(
        "timedc-load: ring dispatch over %zu endpoints, %llu ops misrouted "
        "(%d%% target)\n",
        opt.ports.size(), static_cast<unsigned long long>(total_misrouted),
        opt.misroute_pct);
  }

  if (total_unfinished > 0) {
    std::fprintf(stderr,
                 "FAIL: %llu operations still unanswered %.0f s after the "
                 "bell (retry layer off: a server dropped their frames)\n",
                 static_cast<unsigned long long>(total_unfinished),
                 kUnfinishedGrace.as_seconds());
    return 1;
  }
  if (opt.min_ops_per_sec > 0 && ops_per_sec < opt.min_ops_per_sec) {
    std::fprintf(stderr, "FAIL: %.0f ops/s below the %.0f ops/s floor\n",
                 ops_per_sec, opt.min_ops_per_sec);
    return 1;
  }
  if (opt.max_abandoned >= 0 &&
      total_abandoned > static_cast<std::uint64_t>(opt.max_abandoned)) {
    std::fprintf(stderr,
                 "FAIL: %llu abandoned operations exceed the budget of %lld\n",
                 static_cast<unsigned long long>(total_abandoned),
                 static_cast<long long>(opt.max_abandoned));
    return 1;
  }
  return 0;
}
