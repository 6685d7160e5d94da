#include "cluster/node.hpp"

#include <time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <optional>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/stats_board.hpp"
#include "obs/stats_bridge.hpp"

namespace timedc::cluster {

std::string NodeConfig::validate() const {
  const std::size_t sites = cluster_size == 0 ? reactors : cluster_size;
  // One StatsHub announces every board and the fatal-dump table holds 64
  // recorders: a reactor past either would never answer a scrape or leave
  // a dump after a crash.
  if (reactors < 1 || reactors > StatsHub::kMaxBoards) {
    return "--reactors must be between 1 and 64";
  }
  if (reactors > sites) return "--cluster-size is smaller than --reactors";
  if (sites > 1 && site_base + reactors > sites) {
    return "the served sites lie outside --cluster-size";
  }
  if (heartbeat_ms <= 0) return "--heartbeat-ms must be positive";
  return {};
}

Node::Node(const NodeConfig& config)
    : config_(config),
      // A site below site_base wraps to a huge index: not a local site.
      group_(config.reactors, [base = config.site_base](SiteId to) {
        return static_cast<std::size_t>(to.value - base);
      }) {
  const std::size_t sites =
      config_.cluster_size == 0 ? config_.reactors : config_.cluster_size;
  for (std::uint32_t s = 0; s < sites; ++s) cluster_.push_back(SiteId{s});
  group_.enable_observability(config_.site_base, config_.flight_capacity);
  ServerConfig server_config = config_.server;
  server_config.cluster_replicas = config_.cluster;
  for (std::size_t i = 0; i < config_.reactors; ++i) {
    auto r = std::make_unique<Reactor>();
    r->site = SiteId{config_.site_base + static_cast<std::uint32_t>(i)};
    r->loop = &group_.loop(i);
    r->transport = &group_.transport(i);
    r->board = group_.stats_board(i);
    r->flight = group_.flight_recorder(i);
    r->server = std::make_unique<ObjectServer>(
        *r->transport, r->site, sites, config_.push, MessageSizes{},
        sites > 1 ? cluster_ : std::vector<SiteId>{}, server_config);
    r->server->set_stats_board(r->board);
    r->server->set_flight_recorder(r->flight);
    r->server->attach();
    if (config_.server.admit_rate_per_s > 0) {
      // Shed replies go over the client's learned return path (or its own
      // connection when it dialed us directly).
      Reactor* rp = r.get();
      r->server->set_overloaded_sender(
          [rp](SiteId client, ObjectId object, std::uint64_t request_id,
               std::int64_t retry_after_us) {
            rp->transport->send_overloaded(
                rp->site, client,
                wire::Overloaded{object.value, request_id, retry_after_us});
          });
    }
    if (config_.cluster) enable_cluster(*r);
    reactors_.push_back(std::move(r));
  }
}

std::unique_ptr<Node> Node::create(const NodeConfig& config,
                                   std::string* error) {
  TIMEDC_ASSERT(config.validate().empty());
  std::unique_ptr<Node> node(new Node(config));
  for (auto& r : node->reactors_) {
    if (config.state_file.empty()) continue;
    const std::string path =
        config.state_file + "." + std::to_string(r->site.value);
    r->wal = storage::WriteAheadLog::open(path, *r->server);
    if (r->wal == nullptr) {
      *error = "cannot open WAL " + path + ": " + std::strerror(errno);
      return nullptr;
    }
    node->restored_ += r->wal->restored();
    if (r->wal->restored() > 0) r->server->arm_restart_grace();
  }
  if (node->group_.listen_shared(config.port) == 0) {
    *error = "cannot listen on port " + std::to_string(config.port) + ": " +
             std::strerror(errno);
    return nullptr;
  }
  // Routes to the other local sites and to every peer, all supervised: a
  // crashed or partitioned member is re-dialed with backoff and detected
  // DEAD by heartbeat silence.
  for (std::size_t i = 0; i < node->size(); ++i) {
    net::TcpTransport& t = node->transport(i);
    for (std::size_t j = 0; j < node->size(); ++j) {
      if (j != i) t.add_route(node->site(j), "127.0.0.1", node->port());
    }
    for (const PeerSpec& peer : config.peers) {
      t.add_route(SiteId{peer.site}, peer.host, peer.port);
    }
    if (node->size() > 1 || !config.peers.empty()) {
      net::SupervisionConfig sup;
      sup.enabled = true;
      sup.heartbeat_interval = SimTime::millis(config.heartbeat_ms);
      sup.seed = 0x5eed0000 + node->site(i).value;
      t.set_supervision(sup);
    }
  }
  return node;
}

Node::~Node() { stop(0); }

void Node::start() {
  TIMEDC_ASSERT(!running_);
  for (auto& r : reactors_) {
    if (r->wal != nullptr) r->wal->attach(*r->server, *r->transport);
  }
  group_.start();
  running_ = true;
  if (!config_.cluster) return;
  // Dial every member now, so heartbeats and the gossip riding them flow
  // before any request traffic. Silence counts from here: a member that
  // never sends a digest is suspected like one that stopped sending.
  for (auto& rp : reactors_) {
    Reactor* r = rp.get();
    r->loop->post([this, r] {
      r->membership->start_silence_clocks(r->loop->now().as_micros());
      for (const auto& other : reactors_) {
        if (other.get() != r) r->transport->prime_supervised(other->site);
      }
      for (const PeerSpec& peer : config_.peers) {
        r->transport->prime_supervised(SiteId{peer.site});
      }
      warm_pump(*r);
    });
  }
}

void Node::stop(std::int64_t drain_ms) {
  if (!running_) return;
  running_ = false;
  for (auto& rp : reactors_) {
    Reactor* r = rp.get();
    r->loop->post([r] {
      r->transport->stop_listening();
      r->server->begin_drain();
    });
  }
  if (drain_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(drain_ms));
  }
  group_.stop();
  // Commits what no send has committed, then closes.
  for (auto& r : reactors_) r->wal.reset();
}

MetricsRegistry Node::metrics() {
  using Snapshot = std::pair<ServerStats, net::TcpTransportStats>;
  MetricsRegistry reg;
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  const std::int64_t now_us =
      static_cast<std::int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
  std::vector<StatsEntry> entries;
  for (auto& rp : reactors_) {
    Reactor* r = rp.get();
    std::optional<Snapshot> snap;
    if (!running_) {
      snap.emplace(r->server->stats(), r->transport->stats());
    } else {
      // The stats structs are loop-thread state, so the loop copies them.
      // Shared, not stack-captured: after a timeout the task may still
      // run, and must not touch a dead promise.
      auto promise = std::make_shared<std::promise<Snapshot>>();
      auto future = promise->get_future();
      r->loop->post([promise, r] {
        promise->set_value({r->server->stats(), r->transport->stats()});
      });
      if (future.wait_for(std::chrono::seconds(1)) ==
          std::future_status::ready) {
        snap = future.get();
      }
    }
    const std::string site = std::to_string(r->site.value);
    if (snap) {
      publish_server_stats(reg, "server." + site, snap->first);
      publish_tcp_transport_stats(reg, "server." + site + ".net", snap->second);
    }
    // The board is lock-free, and the stall watchdog lives there: it is
    // read whether or not the loop answers.
    entries.clear();
    r->board->collect(now_us, entries);
    for (const StatsEntry& e : entries) {
      if (const char* name = to_cstring(static_cast<StatKey>(e.key))) {
        reg.set_gauge("site." + site + ".stats." + name,
                      static_cast<double>(e.value));
      }
    }
  }
  return reg;
}

void Node::enable_cluster(Reactor& r) {
  net::TcpTransport& t = *r.transport;
  ObjectServer& server = *r.server;
  const SiteId self = r.site;
  t.enable_cluster(self);
  for (const SiteId member : cluster_) r.serving.push_back(member.value);
  install_ring(r, 0);
  server.set_ownership([&r](ObjectId object) { return r.ring.owner_of(object); });
  server.set_subscribe_sender(
      [&t, self](SiteId owner, ObjectId object, std::uint8_t mode) {
        t.send_cacher_subscribe(self, owner,
                                wire::CacherSubscribe{object, self, mode});
      });
  t.set_cacher_subscribe_handler(
      [&server](SiteId, const wire::CacherSubscribe& cs) {
        server.register_server_cacher(cs.object, cs.cacher, cs.mode);
      });
  // Incarnation from wall time: a restarted process refutes any stale
  // suspicion of itself without persisted membership state.
  timespec now{};
  clock_gettime(CLOCK_REALTIME, &now);
  r.membership = std::make_unique<MembershipTable>(
      self, static_cast<std::uint64_t>(now.tv_sec));
  for (const SiteId member : cluster_) {
    if (member != self) r.membership->add_configured(member);
  }
  MembershipTable& table = *r.membership;
  t.set_membership_provider(
      [&table](std::uint64_t& epoch, std::vector<wire::MemberEntry>& out) {
        table.fill_digest(out);
        epoch = table.epoch();
      });
  t.set_membership_handler(
      [this, &r](SiteId from, std::uint64_t epoch, std::uint64_t ring_epoch,
                 std::span<const wire::MemberEntry> members) {
        on_gossip(r, from, epoch, ring_epoch, members);
      });
  // A bounced stale forward comes back with the bouncer's ring: adopt a
  // strictly newer view at once instead of waiting for gossip.
  t.set_ring_update_handler([this, &r](SiteId, std::uint64_t epoch,
                                       std::span<const std::uint32_t> members) {
    if (epoch <= r.ring_epoch || members.empty()) return;
    r.serving.assign(members.begin(), members.end());
    install_ring(r, epoch);
  });
  // Donor side of anti-entropy: stream the slice our current ring assigns
  // to the requester. Not-ready, rather than an empty done, while our view
  // lags its epoch or has not re-admitted it: an empty done would end its
  // warm-up with nothing.
  t.set_slice_sync_server(
      [&r](SiteId requester, const wire::SliceSyncRequest& rq,
           std::vector<wire::SliceRecord>& out,
           std::uint32_t& next_cursor) -> std::uint8_t {
        const bool known = std::find(r.serving.begin(), r.serving.end(),
                                     requester.value) != r.serving.end();
        if (rq.ring_epoch > r.ring_epoch || !known) return wire::kSliceNotReady;
        return r.server->collect_slice(requester, rq.cursor, rq.max_records,
                                       rq.if_newer_than_us, out, next_cursor)
                   ? wire::kSliceDone
                   : wire::kSliceMore;
      });
  // A WARMING owner applies writes locally but forwards reads it has no
  // copy of through the previous owner, flagged serve-here.
  server.set_warm_miss_forwarder([&r](ObjectId object, const Message& m) {
    if (r.donor_ring.empty()) return false;
    const SiteId donor = r.donor_ring.owner_of(object);
    return donor != r.site && r.transport->forward_serve_here(r.site, donor, m);
  });
  if (config_.warm_up) enable_warm_up(r);
  r.board->set(StatKey::kClusterMembers,
               static_cast<std::int64_t>(table.alive_count()));
  r.board->set(StatKey::kClusterEpoch, static_cast<std::int64_t>(table.epoch()));
}

void Node::on_gossip(Reactor& r, SiteId from, std::uint64_t epoch,
                     std::uint64_t ring_epoch,
                     std::span<const wire::MemberEntry> members) {
  MembershipTable& table = *r.membership;
  const std::int64_t now_us = r.loop->now().as_micros();
  const std::int64_t suspect_us = 3 * config_.heartbeat_ms * 1000;
  bool changed = table.heard_from(from.value, now_us);
  changed |= table.merge(epoch, members, now_us);
  changed |= table.suspect_silent(now_us, suspect_us);
  changed |= table.kill_silent(now_us, suspect_us, config_.dead_grace_ms * 1000);
  r.board->set(StatKey::kClusterMembers,
               static_cast<std::int64_t>(table.alive_count()));
  r.board->set(StatKey::kClusterEpoch, static_cast<std::int64_t>(table.epoch()));
  if (changed && r.flight != nullptr) {
    for (const Member& m : table.members()) {
      r.flight->record(TraceEventType::kClusterMember, now_us, kNoObject, 0,
                       static_cast<std::int64_t>(m.site), m.status);
    }
  }
  // Gossip drives the ring. When the serving set changed, purge the
  // learned paths and queued forwards of members that left (queueing more
  // at them only delays the client's retry), then install the new ring.
  if (changed) {
    table.serving_members(r.scratch);
    if (r.scratch != r.serving) {
      for (const std::uint32_t site : r.serving) {
        if (site != r.site.value && std::find(r.scratch.begin(), r.scratch.end(),
                                              site) == r.scratch.end()) {
          r.transport->purge_member(SiteId{site});
        }
      }
      r.serving.swap(r.scratch);
      // The membership epoch versioned the change and normally dominates,
      // but an adopted kRingUpdate hint may have pushed the ring ahead.
      install_ring(r, std::max(table.epoch(), r.ring_epoch + 1));
      return;
    }
  }
  // Our serving set stands. Survivors of one change can capture different
  // membership epochs for it, so a sender that labels this same set with a
  // newer ring epoch wins: forwards between the two then carry one epoch
  // instead of bouncing kRingUpdates. Ownership is unchanged, so this is
  // not a rebalance.
  if (ring_epoch <= r.ring_epoch) return;
  r.scratch.clear();
  for (const wire::MemberEntry& m : members) {
    if (m.status < MembershipTable::kDead) r.scratch.push_back(m.site);
  }
  std::sort(r.scratch.begin(), r.scratch.end());
  if (r.scratch != r.serving) return;
  r.ring_epoch = ring_epoch;
  r.transport->set_ring(ring_epoch, r.serving);
  r.board->set(StatKey::kClusterRingEpoch, static_cast<std::int64_t>(ring_epoch));
}

void Node::install_ring(Reactor& r, std::uint64_t epoch) {
  // Every member builds the identical ring from the identical sorted list
  // (seedless hash, ring.hpp), so ownership agrees cluster-wide with no
  // coordination beyond gossip. Epoch 0 is the configured baseline: no
  // kRingUpdate hints are sent for it and it is not a rebalance.
  std::vector<SiteId> members;
  std::vector<SiteId> donors;
  for (const std::uint32_t site : r.serving) {
    members.push_back(SiteId{site});
    if (site != r.site.value) donors.push_back(SiteId{site});
  }
  r.ring.set_members(members);
  r.donor_ring.set_members(donors);
  r.ring_epoch = epoch;
  if (epoch > 0) ++r.rebalances;
  r.transport->set_ring(epoch, r.serving);
  r.board->set(StatKey::kClusterRingEpoch, static_cast<std::int64_t>(epoch));
  r.board->set(StatKey::kClusterRebalances,
               static_cast<std::int64_t>(r.rebalances));
}

void Node::enable_warm_up(Reactor& r) {
  for (const SiteId member : cluster_) {
    if (member != r.site) r.warm_peers.push_back(WarmPeer{member.value});
  }
  if (r.warm_peers.empty()) return;  // a cluster of one has no donors
  // WAL replay already ran, so installing keeps whichever copy has the
  // newer write time.
  r.server->begin_warming();
  r.transport->set_slice_sync_reply_handler(
      [this, &r](SiteId donor, std::uint64_t seq, std::uint64_t,
                 std::uint8_t status, std::uint32_t next_cursor,
                 std::span<const wire::SliceRecord> records) {
        if (!r.server->warming()) return;
        for (WarmPeer& p : r.warm_peers) {
          if (p.site != donor.value || p.seq != seq || p.done) continue;
          for (const wire::SliceRecord& rec : records) {
            r.server->install_sync_record(rec);
          }
          if (status == wire::kSliceNotReady) return;  // the pump retries
          if (status == wire::kSliceMore) {
            p.cursor = next_cursor;
            warm_send(r, p);
            return;
          }
          p.done = true;
          if (std::all_of(r.warm_peers.begin(), r.warm_peers.end(),
                          [](const WarmPeer& q) { return q.done; })) {
            warm_finish(r, "synced");
          }
          return;
        }
      });
}

void Node::warm_send(Reactor& r, WarmPeer& p) {
  p.seq = r.next_seq++;
  wire::SliceSyncRequest rq;
  rq.seq = p.seq;
  rq.ring_epoch = r.ring_epoch;
  rq.cursor = p.cursor;
  rq.max_records = wire::kMaxSliceRecords;
  rq.if_newer_than_us = -1;  // everything, even write-time-zero records
  r.transport->send_slice_sync(r.site, SiteId{p.site}, rq);
}

void Node::warm_pump(Reactor& r) {
  if (!r.server->warming()) return;
  const std::int64_t now_us = r.loop->now().as_micros();
  if (r.warm_deadline_us == 0) {
    r.warm_deadline_us = now_us + config_.warm_timeout_ms * 1000;
  }
  if (now_us >= r.warm_deadline_us) {
    warm_finish(r, "timeout");
    return;
  }
  // Re-send to every unfinished donor: loss, a dead route or a not-ready
  // donor all heal here (the seq filter drops replies a resend obsoletes).
  for (WarmPeer& p : r.warm_peers) {
    if (!p.done) warm_send(r, p);
  }
  r.loop->run_after(SimTime::millis(200), [this, &r] { warm_pump(r); });
}

void Node::warm_finish(Reactor& r, const char* why) {
  if (!r.server->warming()) return;
  r.server->finish_warming();
  std::printf("WARMED %u %s\n", r.site.value, why);
  std::fflush(stdout);
}

}  // namespace timedc::cluster
