#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/assert.hpp"

namespace timedc::net {
namespace {

int make_tcp_socket() {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  TIMEDC_ASSERT(fd >= 0);
  // The protocols are request/response with small frames: Nagle's algorithm
  // would serialize them behind delayed acks and destroy loopback RTT.
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

sockaddr_in loopback_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const int rc = inet_pton(AF_INET, host.c_str(), &addr.sin_addr);
  TIMEDC_ASSERT(rc == 1 && "host must be a dotted-quad IPv4 address");
  return addr;
}

/// The reply_to field of a client request, or null for replies/pushes. A
/// request whose reply_to differs from the sending site is being forwarded
/// on a client's behalf — the trigger for kForward wrapping.
const SiteId* request_reply_to(const Message& m) {
  if (const auto* f = std::get_if<FetchRequest>(&m)) return &f->reply_to;
  if (const auto* w = std::get_if<WriteRequest>(&m)) return &w->reply_to;
  if (const auto* v = std::get_if<ValidateRequest>(&m)) return &v->reply_to;
  return nullptr;
}

}  // namespace

const char* to_cstring(ConnectionState s) {
  switch (s) {
    case ConnectionState::kConnecting: return "connecting";
    case ConnectionState::kHealthy: return "healthy";
    case ConnectionState::kBackoff: return "backoff";
    case ConnectionState::kDead: return "dead";
  }
  return "unknown";
}

TcpTransport::TcpTransport(EventLoop& loop, SimTime latency_bound)
    : loop_(loop), latency_bound_(latency_bound) {}

TcpTransport::~TcpTransport() {
  // Silent teardown: the Connection destructor deregisters and closes
  // without firing callbacks into this (dying) transport.
  conns_.clear();
  if (tick_hook_registered_) loop_.remove_tick_end_hook(tick_hook_id_);
  if (listen_fd_ >= 0) {
    loop_.remove_fd(listen_fd_);
    ::close(listen_fd_);
  }
}

std::uint16_t TcpTransport::listen(std::uint16_t port, bool reuse_port) {
  TIMEDC_ASSERT(listen_fd_ < 0 && "listen() may be called once");
  listen_fd_ = make_tcp_socket();
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuse_port) {
    // N reactors bind the same port; the kernel shards incoming accepts
    // across their listening sockets.
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
  }
  sockaddr_in addr = loopback_addr("127.0.0.1", port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = err;
    return 0;
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  listen_port_ = ntohs(addr.sin_port);
  loop_.add_fd(listen_fd_, EPOLLIN, [this](std::uint32_t) { accept_ready(); });
  return listen_port_;
}

void TcpTransport::accept_ready() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept errors (e.g. ECONNABORTED): keep listening
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ++stats_.connections_accepted;
    adopt(std::make_shared<Connection>(loop_, fd, /*connecting=*/false),
          /*steer_candidate=*/steering_ != nullptr);
  }
}

Connection* TcpTransport::adopt(std::shared_ptr<Connection> conn,
                                bool steer_candidate) {
  Connection* raw = conn.get();
  conns_.emplace(raw, std::move(conn));
  // A tick dirties each connection at most once, and on_tick_end swaps the
  // two flush lists, so each must hold every connection: otherwise a busy
  // tick regrows whichever list is the smaller, on the serving path.
  dirty_conns_.reserve(conns_.size());
  flushing_.reserve(conns_.size());
  if (steer_candidate) steer_candidates_.insert(raw);
  raw->start(
      [this](Connection& c, const wire::FrameView& v) { on_frame(c, v); },
      [this](Connection& c, const char* reason) { on_close(c, reason); });
  // Every connection writes in batched mode: sends enqueue, the tick-end
  // hook gather-flushes each dirty connection once.
  raw->set_flush_scheduler([this](Connection& c) {
    ensure_tick_hook();
    dirty_conns_.push_back(&c);
  });
  if (send_barrier_) raw->set_send_barrier(&send_barrier_);
  return raw;
}

void TcpTransport::set_send_barrier(Connection::SendBarrier barrier) {
  send_barrier_ = std::move(barrier);
  const Connection::SendBarrier* hook =
      send_barrier_ ? &send_barrier_ : nullptr;
  for (const auto& [raw, conn] : conns_) raw->set_send_barrier(hook);
}

void TcpTransport::adopt_steered(int fd, std::vector<std::uint8_t> leftover) {
  ++stats_.connections_steered_in;
  // Never a steer candidate again: the connection already found its owner;
  // steering it back would ping-pong.
  Connection* raw =
      adopt(std::make_shared<Connection>(loop_, fd, /*connecting=*/false));
  raw->inject(std::move(leftover));
}

void TcpTransport::add_route(SiteId site, std::string host,
                             std::uint16_t port) {
  routes_[site.value] = Route{std::move(host), port};
  peer_conn_[site.value].routed = true;
}

void TcpTransport::set_supervision(SupervisionConfig config) {
  TIMEDC_ASSERT(config.backoff_jitter >= 0.0 && config.backoff_jitter < 1.0);
  TIMEDC_ASSERT(config.dead_after_failures >= 1);
  supervision_ = std::move(config);
  backoff_rng_ = Rng(supervision_.seed);
}

SimTime TcpTransport::liveness_timeout() const {
  if (supervision_.liveness_timeout > SimTime::zero()) {
    return supervision_.liveness_timeout;
  }
  // Two missed ping/pong round trips. An infinite (unpromised) latency
  // bound is clamped so the deadline stays finite.
  const SimTime lat = latency_bound_.is_infinite()
      ? SimTime::seconds(1)
      : std::min(latency_bound_, SimTime::seconds(1));
  return SimTime::micros(2 * supervision_.heartbeat_interval.as_micros() +
                         2 * lat.as_micros());
}

ConnectionState TcpTransport::connection_state(SiteId site) const {
  const Peer* peer = find_peer(site);
  return peer == nullptr ? ConnectionState::kHealthy : peer->state;
}

TcpTransport::Peer* TcpTransport::find_peer(SiteId site) const {
  const std::unique_ptr<Peer>* peer = peers_.find(site.value);
  return peer == nullptr ? nullptr : peer->get();
}

std::pair<TcpTransport::Peer*, bool> TcpTransport::touch_peer(SiteId site) {
  const auto [peer, created] = peers_.try_emplace(site.value);
  if (created) *peer = std::make_unique<Peer>();
  return {peer->get(), created};
}

TcpTransport::MessageHandler* TcpTransport::local_handler(SiteId site) const {
  const std::unique_ptr<MessageHandler>* handler = handlers_.find(site.value);
  return handler == nullptr ? nullptr : handler->get();
}

const TcpTransportStats& TcpTransport::stats() const {
  stats_.peers_by_state = {};
  for (const auto& [site, peer] : peers_) {
    ++stats_.peers_by_state[static_cast<std::size_t>(peer->state)];
  }
  stats_.flush_syscalls = closed_flush_syscalls_;
  for (const auto& [raw, conn] : conns_) {
    stats_.flush_syscalls += conn->stats().flush_syscalls;
  }
  return stats_;
}

void TcpTransport::register_site(SiteId self, MessageHandler handler) {
  // Each handler has its own heap slot, so one that registers a site while
  // it runs is not moved by the table growing under it.
  std::unique_ptr<MessageHandler>& slot = handlers_[self.value];
  if (slot == nullptr) slot = std::make_unique<MessageHandler>();
  *slot = std::move(handler);
}

void TcpTransport::enable_cluster(SiteId self) {
  cluster_enabled_ = true;
  cluster_self_ = self;
}

bool TcpTransport::supervised_route(SiteId site) const {
  return supervision_.enabled && routes_.contains(site.value);
}

void TcpTransport::prime_supervised(SiteId site) {
  if (!supervised_route(site)) return;
  if (touch_peer(site).second) start_dial(site);
}

Connection* TcpTransport::ready_connection(SiteId to) {
  Connection* conn = nullptr;
  if (supervised_route(to)) {
    const auto [peer, created] = touch_peer(to);
    if (created) {
      // No traffic has touched this route yet: start it like a send would.
      start_dial(to);
      return nullptr;
    }
    if (peer->state == ConnectionState::kHealthy) conn = peer->conn;
  } else {
    conn = connection_to(to);
  }
  return conn != nullptr && !conn->closed() ? conn : nullptr;
}

bool TcpTransport::send_cacher_subscribe(SiteId from, SiteId to,
                                         const wire::CacherSubscribe& cs) {
  if (handlers_.contains(to.value)) {
    // Both sites live on this transport (single-process cluster): deliver
    // through the loop so the handler never runs inside its own send.
    loop_.post([this, to, cs]() {
      ++stats_.subscribes_received;
      if (on_cacher_subscribe_) on_cacher_subscribe_(to, cs);
    });
    ++stats_.subscribes_sent;
    return true;
  }
  // Not sent: the caller re-subscribes on the next miss (idempotent).
  Connection* conn = ready_connection(to);
  if (conn == nullptr) return false;
  conn->send_encoded<wire::encode_cacher_subscribe_frame>(from, to, cs);
  ++stats_.subscribes_sent;
  return true;
}

Connection* TcpTransport::dial(const Route& route, SiteId site) {
  const int fd = make_tcp_socket();
  sockaddr_in addr = loopback_addr(route.host, route.port);
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return nullptr;
  }
  ++stats_.connections_dialed;
  auto conn = std::make_shared<Connection>(loop_, fd, /*connecting=*/rc != 0);
  Connection* raw = conn.get();
  adopt(std::move(conn));
  peer_conn_[site.value] = ReturnPath{raw, /*via_forwarder=*/false,
                                      /*routed=*/true};
  return raw;
}

Connection* TcpTransport::connection_to(SiteId to) {
  const ReturnPath* path = peer_conn_.find(to.value);
  if (path == nullptr) return nullptr;
  if (path->conn != nullptr && !path->conn->closed()) return path->conn;
  return path->routed ? dial(*routes_.find(to.value), to) : nullptr;
}

void TcpTransport::send_message(SiteId from, SiteId to, Message m,
                                std::size_t bytes) {
  (void)bytes;  // the sim cost model; real byte counts live in Connection
  if (handlers_.contains(to.value)) {
    // Both endpoints live on this transport. Queue for the tick-end batch
    // apply, so the handler never runs inside send_message (Transport
    // contract) and a tick's worth of local messages is applied in one
    // drain instead of one posted std::function allocation each.
    ++stats_.local_deliveries;
    ensure_tick_hook();
    pending_local_.push_back(LocalDelivery{from, to, std::move(m)});
    return;
  }
  if (supervised_route(to)) {
    supervised_send(from, to, std::move(m));
    return;
  }
  Connection* conn = connection_to(to);
  if (conn == nullptr) {
    ++stats_.unroutable;
    return;
  }
  ++stats_.frames_sent;
  const bool sampled = stats_board_ != nullptr &&
                       (++stage_samples_tx_ % kStageSamplePeriod) == 0;
  if (sampled) {
    const std::int64_t t0 = EventLoop::steady_time_us();
    emit_or_wrap(conn, from, to, m);
    const std::int64_t us = EventLoop::steady_time_us() - t0;
    stats_board_->record_stage(Stage::kEnqueue, us);
    if (flight_ != nullptr) {
      flight_->record(TraceEventType::kReactorStage, loop_.now().as_micros(),
                      kNoObject, 0,
                      static_cast<std::int64_t>(Stage::kEnqueue), us);
    }
  } else {
    emit_or_wrap(conn, from, to, m);
  }
}

void TcpTransport::emit_or_wrap(Connection* conn, SiteId from, SiteId to,
                                const Message& m) {
  if (cluster_enabled_) {
    const SiteId* rt = request_reply_to(m);
    if (rt != nullptr && rt->value != from.value) {
      // A local server ruled itself non-owner and is forwarding a client's
      // request to a peer server. Wrap it in kForward with the *client* as
      // the inner sender: the owner's WAL dedup keys on (client, request_id)
      // exactly as for a direct request, and its reply to the client routes
      // back through this connection (the owner learns the path on unwrap).
      if (dispatch_hops_ < kMaxForwardHops) {
        conn->send_encoded<wire::encode_forward_frame>(
            cluster_self_, to, static_cast<std::uint8_t>(dispatch_hops_ + 1),
            /*serve_here=*/false, ring_epoch_, *rt, to, m);
        ++stats_.forwards_out;
        // The client picked the wrong server for this object: once the ring
        // has moved off the configured baseline, hint it with the current
        // serving ring so it re-learns instead of paying a hop per request.
        maybe_hint_ring(*rt);
        return;
      }
      ++stats_.forward_hops_exceeded;  // send unwrapped: better late than lost
    }
  }
  conn->send_frame(from, to, m);
}

void TcpTransport::set_stats_board(StatsBoard* board) {
  stats_board_ = board;
  // The tick hook doubles as the board's publish cadence, so it must run
  // even before traffic registers it.
  if (board != nullptr) ensure_tick_hook();
}

void TcpTransport::set_flight_recorder(FlightRecorder* recorder) {
  flight_ = recorder;
  if (recorder != nullptr) ensure_tick_hook();
}

bool TcpTransport::send_stats_request(SiteId from, SiteId to,
                                      const wire::StatsRequest& rq) {
  if (handlers_.contains(to.value)) {
    // The polled process is this one: answer through the loop, like local
    // time-sync, so the reply handler never runs inside its own send.
    loop_.post([this, to, rq]() {
      collect_stats(rq, loop_.now().as_micros());
      std::vector<wire::StatsRow> rows;
      for (const wire::StatsBoardSpan& b : stats_spans_) {
        for (const StatsEntry& e : b.entries) {
          rows.push_back({b.site, e.key, e.value});
        }
      }
      ++stats_.stats_requests_served;
      ++stats_.stats_replies_received;
      if (on_stats_reply_) on_stats_reply_(to, rq.seq, rows);
    });
    return true;
  }
  Connection* conn = ready_connection(to);
  if (conn == nullptr) return false;
  conn->send_encoded<wire::encode_stats_request_frame>(from, to, rq);
  return true;
}

bool TcpTransport::send_time_sync(SiteId from, SiteId to,
                                  const wire::TimeSync& ts) {
  if (handlers_.contains(to.value) && !ts.reply) {
    // The time server lives on this transport: answer through the loop so
    // the sync client's handler never runs inside its own send.
    loop_.post([this, from, to, ts]() {
      wire::TimeSync reply = ts;
      reply.reply = true;
      reply.server_time_us = (loop_.now() + time_source_offset_).as_micros();
      ++stats_.time_requests_served;
      ++stats_.time_replies_received;
      if (on_time_sync_) on_time_sync_(to, reply);
    });
    ++stats_.time_requests_sent;
    return true;
  }
  Connection* conn = ready_connection(to);
  if (conn == nullptr) return false;
  if (!ts.reply) ++stats_.time_requests_sent;
  conn->send_encoded<wire::encode_time_sync_frame>(from, to, ts);
  return true;
}

// --- supervision ------------------------------------------------------------

void TcpTransport::transition(SiteId site, Peer& peer, ConnectionState next) {
  if (peer.state == next) return;
  const ConnectionState prev = peer.state;
  peer.state = next;
  if (next == ConnectionState::kDead) ++stats_.peers_marked_dead;
  if (on_peer_state_) on_peer_state_(site, prev, next);
}

void TcpTransport::supervised_send(SiteId from, SiteId to, Message m) {
  const auto [peer, created] = touch_peer(to);
  if (created) {
    start_dial(to);
  }
  switch (peer->state) {
    case ConnectionState::kHealthy:
      ++stats_.frames_sent;
      emit_or_wrap(peer->conn, from, to, m);
      return;
    case ConnectionState::kConnecting:
    case ConnectionState::kBackoff:
      enqueue_frame(*peer, from, to, std::move(m));
      return;
    case ConnectionState::kDead:
      // The caller was told via peer_reachable(); anything still sent here
      // is dropped so a dead replica cannot absorb the retry budget.
      ++stats_.frames_dropped_peer_dead;
      return;
  }
}

void TcpTransport::enqueue_frame(Peer& peer, SiteId from, SiteId to,
                                 Message m) {
  if (peer.queue.size() >= supervision_.max_queued_frames) {
    // Drop the oldest: its RPC timeout has the best chance of already
    // having fired, and the retry layer re-issues it if not.
    peer.queue.pop_front();
    ++stats_.frames_dropped_queue_full;
  }
  peer.queue.push_back(QueuedFrame{from, to, std::move(m)});
  ++stats_.frames_queued;
}

void TcpTransport::start_dial(SiteId site) {
  Peer& peer = *find_peer(site);
  transition(site, peer, ConnectionState::kConnecting);
  const std::uint64_t generation = ++peer.generation;
  if (peer.failures > 0) ++stats_.reconnect_attempts;

  const Route* route = routes_.find(site.value);
  TIMEDC_ASSERT(route != nullptr);
  const int fd = make_tcp_socket();
  sockaddr_in addr = loopback_addr(route->host, route->port);
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    ++peer.failures;
    schedule_backoff(site);
    return;
  }
  ++stats_.connections_dialed;
  const bool connecting = rc != 0;
  auto conn = std::make_shared<Connection>(loop_, fd, connecting);
  Connection* raw = conn.get();
  adopt(std::move(conn));
  conn_site_[raw] = site.value;
  peer.conn = raw;
  if (!connecting) {
    on_supervised_connected(site);
    return;
  }
  raw->set_connected_handler(
      [this, site](Connection&) { on_supervised_connected(site); });
  loop_.run_after(supervision_.dial_timeout, [this, site, generation]() {
    Peer* p = find_peer(site);
    if (p == nullptr || p->generation != generation ||
        p->state != ConnectionState::kConnecting || p->conn == nullptr ||
        !p->conn->connecting()) {
      return;
    }
    ++stats_.dial_timeouts;
    p->conn->close("dial timeout");  // failure path continues in on_close
  });
}

void TcpTransport::on_supervised_connected(SiteId site) {
  Peer& peer = *find_peer(site);
  if (peer.failures > 0) ++stats_.reconnects;
  transition(site, peer, ConnectionState::kHealthy);
  // Fresh liveness epoch: the deadline measures silence on *this*
  // connection, not the outage that preceded it.
  peer.last_rx_us = loop_.now().as_micros();
  while (!peer.queue.empty() && peer.conn != nullptr &&
         !peer.conn->closed()) {
    QueuedFrame f = std::move(peer.queue.front());
    peer.queue.pop_front();
    ++stats_.frames_sent;
    ++stats_.frames_requeued;
    emit_or_wrap(peer.conn, f.from, f.to, f.message);
  }
  schedule_heartbeat(site, peer.generation);
}

void TcpTransport::schedule_heartbeat(SiteId site, std::uint64_t generation) {
  // ±10% jitter per tick: N members that booted together (or all watched
  // the same peer die) would otherwise fire their heartbeats — and the
  // membership digests riding them — in the same instant forever.
  std::int64_t delay_us = supervision_.heartbeat_interval.as_micros();
  delay_us += static_cast<std::int64_t>(
      0.1 * static_cast<double>(delay_us) *
      (2.0 * backoff_rng_.uniform01() - 1.0));
  loop_.run_after(SimTime::micros(delay_us), [this, site, generation]() {
    Peer* found = find_peer(site);
    if (found == nullptr) return;
    Peer& peer = *found;
    if (peer.generation != generation ||
        peer.state != ConnectionState::kHealthy || peer.conn == nullptr ||
        peer.conn->closed()) {
      return;  // superseded: a newer connection runs its own ticker
    }
    const std::int64_t now_us = loop_.now().as_micros();
    if (now_us - peer.last_rx_us > liveness_timeout().as_micros()) {
      ++stats_.liveness_expiries;
      peer.conn->close("liveness expired");  // failure path in on_close
      return;
    }
    wire::Heartbeat hb;
    hb.seq = peer.next_hb_seq++;
    hb.send_time_us = now_us;
    hb.reply = false;
    peer.conn->send_encoded<wire::encode_heartbeat_frame>(SiteId{0}, site, hb);
    ++stats_.heartbeats_sent;
    if (cluster_enabled_ && membership_provider_) {
      // Gossip rides the supervision ticker: one membership digest per
      // heartbeat, to the same peer, on the same coalesced flush.
      std::uint64_t epoch = 0;
      membership_provider_(epoch, membership_scratch_);
      peer.conn->send_encoded<wire::encode_membership_frame>(
          cluster_self_, site, epoch, ring_epoch_, membership_scratch_);
      ++stats_.membership_sent;
    }
    schedule_heartbeat(site, generation);
  });
}

void TcpTransport::schedule_backoff(SiteId site) {
  Peer& peer = *find_peer(site);
  peer.conn = nullptr;
  if (shutting_down_) return;
  const std::uint64_t generation = ++peer.generation;
  if (peer.failures >= supervision_.dead_after_failures) {
    transition(site, peer, ConnectionState::kDead);
    stats_.frames_dropped_peer_dead += peer.queue.size();
    peer.queue.clear();
    // A dead peer is still probed, at the backoff cap's cadence, so a
    // healed partition or restarted server is eventually rediscovered.
    loop_.run_after(supervision_.backoff_cap, [this, site, generation]() {
      const Peer* p = find_peer(site);
      if (p == nullptr || p->generation != generation ||
          p->state != ConnectionState::kDead) {
        return;
      }
      start_dial(site);
    });
    return;
  }
  transition(site, peer, ConnectionState::kBackoff);
  const int exponent = std::min(std::max(0, peer.failures - 1), 20);
  std::int64_t delay_us = supervision_.backoff_base.as_micros() << exponent;
  delay_us = std::min(delay_us, supervision_.backoff_cap.as_micros());
  if (supervision_.backoff_jitter > 0 && delay_us > 0) {
    const double f = 1.0 + supervision_.backoff_jitter *
                               (2.0 * backoff_rng_.uniform01() - 1.0);
    delay_us = static_cast<std::int64_t>(static_cast<double>(delay_us) * f);
  }
  loop_.run_after(SimTime::micros(delay_us), [this, site, generation]() {
    const Peer* p = find_peer(site);
    if (p == nullptr || p->generation != generation ||
        p->state != ConnectionState::kBackoff) {
      return;
    }
    start_dial(site);
  });
}

void TcpTransport::on_supervised_close(SiteId site, Connection& conn) {
  Peer& peer = *find_peer(site);
  if (peer.conn != &conn) return;  // an older connection's close, already
                                   // superseded by a newer dial
  ++peer.failures;
  schedule_backoff(site);
}

void TcpTransport::on_frame(Connection& conn, const wire::FrameView& view) {
  // Any received frame is proof of liveness for the supervised peer this
  // connection belongs to — and the only thing that resets its
  // consecutive-failure count (a bare connect success is not proof: a
  // black-holing peer accepts and then says nothing).
  if (const std::uint32_t* site = conn_site_.find(&conn)) {
    if (Peer* peer = find_peer(SiteId{*site})) {
      peer->last_rx_us = loop_.now().as_micros();
      peer->failures = 0;
    }
  }
  // Connection steering decides on the header alone, before the body is
  // decoded: the first protocol frame names the destination site, whose
  // owning reactor takes the fd. Transport-internal frames (heartbeat,
  // time-sync) are answered by whichever reactor accepted and keep the
  // connection eligible.
  if (!steer_candidates_.empty() && view.is_protocol()) {
    const auto cand = steer_candidates_.find(&conn);
    if (cand != steer_candidates_.end()) {
      steer_candidates_.erase(cand);
      TcpTransport* owner = steering_ ? steering_(view.to) : nullptr;
      if (owner != nullptr && owner != this) {
        steer(conn, *owner);
        return;
      }
    }
  }
  if (view.type == wire::MsgType::kForward) {
    // A peer server ruled itself non-owner and wrapped the client's frame
    // verbatim. Validate and unwrap at the view level — the inner frame
    // aliases this connection's read buffer, no copy, no allocation.
    const wire::FrameView inner = wire::peek_forward_inner(view);
    if (!inner.ok()) {
      conn.fail_decode(inner.status);
      return;
    }
    ++stats_.forwards_in;
    const wire::ForwardPrefix fp = wire::peek_forward_prefix(view);
    if (ring_epoch_ > 0 && fp.ring_epoch < ring_epoch_ && !fp.serve_here) {
      // The forwarder's ring is behind ours (it missed a rebalance): still
      // process the inner frame — our own routing re-forwards if we are not
      // the owner either — but bounce the current serving ring back so the
      // stale sender stops forwarding into the past.
      ++stats_.stale_forwards;
      conn.send_encoded<wire::encode_ring_update_frame>(
          cluster_self_, view.from, ring_epoch_, ring_members_);
      ++stats_.ring_updates_sent;
    }
    // A serve-here forward (a WARMING owner's forward-through) pins the
    // dispatch to local state: dispatch_serve_locally() reads this flag for
    // exactly the duration of the inner dispatch.
    dispatch_serve_here_ = fp.serve_here;
    dispatch_protocol(conn, inner, fp.hops);
    dispatch_serve_here_ = false;
    return;
  }
  if (view.is_protocol()) {
    dispatch_protocol(conn, view, /*hops=*/0);
    return;
  }
  if (cluster_enabled_ &&
      (view.type == wire::MsgType::kOverloaded ||
       view.type == wire::MsgType::kRingUpdate) &&
      !handlers_.contains(view.to.value)) {
    // An admission-shed reply or ring hint travelling back to a client whose
    // connection this process holds (the request arrived here and was
    // forwarded out): relay verbatim, exactly like protocol replies.
    if (Connection* target = relay_target(view.to, conn)) {
      target->send_raw_frame(wire::frame_bytes(view));
      ++stats_.relayed;
      return;
    }
  }
  // Transport frame: decode into the reused scratch frame and answer or
  // deliver here, without handler dispatch or return-path learning.
  if (wire::decode_frame_view(view, scratch_frame_) !=
      wire::DecodeStatus::kOk) {
    conn.fail_decode(scratch_frame_.status);
    return;
  }
  const wire::DecodedFrame& frame = scratch_frame_;
  switch (frame.type) {
    case wire::MsgType::kHeartbeat:
      ++stats_.heartbeats_received;
      if (!frame.heartbeat.reply) {
        wire::Heartbeat pong = frame.heartbeat;
        pong.reply = true;
        conn.send_encoded<wire::encode_heartbeat_frame>(frame.to, frame.from,
                                                        pong);
      }
      return;
    case wire::MsgType::kTimeRequest: {
      // Answered with this process's reference clock, like a heartbeat.
      wire::TimeSync reply = frame.time_sync;
      reply.reply = true;
      reply.server_time_us = (loop_.now() + time_source_offset_).as_micros();
      conn.send_encoded<wire::encode_time_sync_frame>(frame.to, frame.from,
                                                      reply);
      ++stats_.time_requests_served;
      return;
    }
    case wire::MsgType::kTimeReply:
      ++stats_.time_replies_received;
      if (on_time_sync_) on_time_sync_(frame.from, frame.time_sync);
      return;
    case wire::MsgType::kStatsRequest:
      // Any reactor answers, for every board the process hub knows
      // (including stalled reactors' boards).
      answer_stats(conn, frame.from, frame.to, frame.stats_request);
      return;
    case wire::MsgType::kStatsReply:
      ++stats_.stats_replies_received;
      if (on_stats_reply_) {
        on_stats_reply_(frame.from, frame.stats_seq, frame.stats_rows);
      }
      return;
    case wire::MsgType::kMembership:
      ++stats_.membership_received;
      if (on_membership_) {
        on_membership_(frame.from, frame.membership_epoch,
                       frame.membership_ring_epoch, frame.members);
      }
      return;
    case wire::MsgType::kCacherSubscribe:
      ++stats_.subscribes_received;
      if (on_cacher_subscribe_) {
        on_cacher_subscribe_(frame.to, frame.cacher_subscribe);
      }
      return;
    case wire::MsgType::kSliceSync: {
      // Anti-entropy donor path: the warming requester asks for its slice
      // of our store. Answer on the arriving connection — the requester's
      // warm driver owns retries, so an unconfigured donor still replies
      // (not ready) rather than black-holing the warm-up.
      ++stats_.slice_sync_served;
      std::uint8_t status = wire::kSliceNotReady;
      std::uint32_t next_cursor = frame.slice_sync.cursor;
      slice_scratch_.clear();
      if (slice_sync_server_) {
        status = slice_sync_server_(frame.from, frame.slice_sync,
                                    slice_scratch_, next_cursor);
      }
      conn.send_encoded<wire::encode_slice_sync_reply_frame>(
          frame.to, frame.from, frame.slice_sync.seq, ring_epoch_, status,
          next_cursor, slice_scratch_);
      return;
    }
    case wire::MsgType::kSliceSyncReply:
      ++stats_.slice_sync_replies;
      if (on_slice_sync_reply_) {
        on_slice_sync_reply_(frame.from, frame.slice_seq,
                             frame.slice_ring_epoch, frame.slice_status,
                             frame.slice_next_cursor, frame.slice_records);
      }
      return;
    case wire::MsgType::kRingUpdate:
      ++stats_.ring_updates_received;
      if (on_ring_update_) {
        on_ring_update_(frame.from, frame.ring_update_epoch,
                        frame.ring_members);
      }
      return;
    case wire::MsgType::kOverloaded:
      ++stats_.overloaded_received;
      if (on_overloaded_) on_overloaded_(frame.to, frame.overloaded);
      return;
    case wire::MsgType::kFetchRequest:
    case wire::MsgType::kFetchReply:
    case wire::MsgType::kWriteRequest:
    case wire::MsgType::kWriteAck:
    case wire::MsgType::kValidateRequest:
    case wire::MsgType::kValidateReply:
    case wire::MsgType::kInvalidate:
    case wire::MsgType::kPushUpdate:
    case wire::MsgType::kForward:
      return;  // dispatched above from the view, never decoded here
  }
}

void TcpTransport::dispatch_protocol(Connection& conn,
                                     const wire::FrameView& view,
                                     std::uint8_t hops) {
  // One handler probe per frame: the header's destination is the decoded
  // frame's. A frame for a site not hosted here is relayed or forwarded from
  // the header alone, before any body decode: relayed replies and
  // re-forwarded requests copy raw bytes straight from the read buffer.
  MessageHandler* const handler = local_handler(view.to);
  if (cluster_enabled_ && handler == nullptr) {
    if (relay_or_forward(conn, view, hops)) return;
  }
  // Decode the body into the per-transport scratch frame (reused storage:
  // no allocation for empty-timestamp messages, i.e. all TSC traffic).
  // 1-in-kStageSamplePeriod frames pay two extra clock reads per stage to
  // feed the stats board's hot-path latency histograms.
  const bool sampled = stats_board_ != nullptr &&
                       (++stage_samples_rx_ % kStageSamplePeriod) == 0;
  const std::int64_t decode_t0 = sampled ? EventLoop::steady_time_us() : 0;
  if (wire::decode_frame_view(view, scratch_frame_) !=
      wire::DecodeStatus::kOk) {
    conn.fail_decode(scratch_frame_.status);
    return;
  }
  if (sampled) {
    const std::int64_t us = EventLoop::steady_time_us() - decode_t0;
    stats_board_->record_stage(Stage::kDecode, us);
    if (flight_ != nullptr) {
      flight_->record(TraceEventType::kReactorStage, loop_.now().as_micros(),
                      kNoObject, 0,
                      static_cast<std::int64_t>(Stage::kDecode), us);
    }
  }
  wire::DecodedFrame& frame = scratch_frame_;
  ++stats_.frames_received;
  // Learn the return path: replies to frame.from leave through this
  // connection. A frame unwrapped from a kForward (hops > 0) teaches the
  // path through the forwarder, which relays the reply to the client it
  // holds; a direct arrival overrides it (latest wins, so a reconnecting
  // peer takes over).
  learn_return_path(frame.from, conn, /*via_forwarder=*/hops > 0);
  if (handler == nullptr) {
    ++stats_.unroutable;
    return;
  }
  // The handler may itself forward (ObjectServer is not the owner): expose
  // the hop count so re-forwards deepen it instead of resetting to zero.
  dispatch_hops_ = hops;
  if (sampled) {
    const std::int64_t apply_t0 = EventLoop::steady_time_us();
    (*handler)(frame.from, frame.message);
    const std::int64_t us = EventLoop::steady_time_us() - apply_t0;
    stats_board_->record_stage(Stage::kApply, us);
    if (flight_ != nullptr) {
      flight_->record(TraceEventType::kReactorStage, loop_.now().as_micros(),
                      kNoObject, 0,
                      static_cast<std::int64_t>(Stage::kApply), us);
    }
  } else {
    (*handler)(frame.from, frame.message);
  }
  dispatch_hops_ = 0;
}

bool TcpTransport::relay_or_forward(Connection& conn,
                                    const wire::FrameView& view,
                                    std::uint8_t hops) {
  // Relay first: a reply travelling back to a client whose connection this
  // process holds (the client's request arrived here and was forwarded
  // out). Raw byte copy, original header intact — the client cannot tell
  // the reply took a hop.
  if (Connection* target = relay_target(view.to, conn)) {
    target->send_raw_frame(wire::frame_bytes(view));
    ++stats_.relayed;
    return true;
  }
  if (hops >= kMaxForwardHops) {
    // Ring disagreement during an epoch change could otherwise bounce a
    // frame between servers forever; drop it and let the client retry
    // against a settled ring.
    ++stats_.forward_hops_exceeded;
    return false;
  }
  // Forward: wrap the frame verbatim toward the supervised peer hosting
  // view.to (a misrouted client picked the wrong server for this object).
  // On first traffic toward that peer this starts the dial and drops the
  // frame: the client's retry layer re-issues, and queuing raw bytes would
  // allocate.
  Connection* owner =
      supervised_route(view.to) ? ready_connection(view.to) : nullptr;
  if (owner == nullptr) return false;
  // The owner's reply comes back here to be relayed: learn the path now,
  // since this frame never reaches the dispatch below.
  learn_return_path(view.from, conn, /*via_forwarder=*/hops > 0);
  owner->send_encoded<wire::encode_forward_frame_raw>(
      cluster_self_, view.to, static_cast<std::uint8_t>(hops + 1),
      /*serve_here=*/false, ring_epoch_, wire::frame_bytes(view));
  ++stats_.forwards_out;
  maybe_hint_ring(view.from);
  return true;
}

void TcpTransport::learn_return_path(SiteId site, Connection& conn,
                                     bool via_forwarder) {
  // One probe. A routed site is reached over the connection dialed to it. A
  // frame bearing its id on another connection was relayed by a cluster
  // member; learning from it would send this site's requests through that
  // member.
  const auto [path, inserted] =
      peer_conn_.try_emplace(site.value, ReturnPath{&conn, via_forwarder});
  if (inserted || path->routed) return;
  if (!via_forwarder || path->via_forwarder || path->conn->closed()) {
    *path = ReturnPath{&conn, via_forwarder};
  }
}

Connection* TcpTransport::relay_target(SiteId site,
                                       const Connection& arrival) const {
  // Relaying onto a forwarder-learned path could hand the frame to a server
  // whose own path leads back here. Each member pair holds two connections
  // (both sides dial), so an arrival-connection check alone cannot stop
  // that ping-pong.
  const ReturnPath* path = peer_conn_.find(site.value);
  if (path == nullptr || path->via_forwarder) return nullptr;
  Connection* target = path->conn;
  return target == nullptr || target->closed() || target == &arrival
             ? nullptr
             : target;
}

// --- self-healing -----------------------------------------------------------

void TcpTransport::set_ring(std::uint64_t epoch,
                            std::span<const std::uint32_t> members) {
  ring_epoch_ = epoch;
  ring_members_.assign(members.begin(), members.end());
}

void TcpTransport::maybe_hint_ring(SiteId client) {
  if (ring_epoch_ == 0) return;  // baseline ring: nothing to re-learn
  std::uint64_t& hinted = ring_hinted_[client.value];
  if (hinted >= ring_epoch_) return;  // already told this client this epoch
  const ReturnPath* path = peer_conn_.find(client.value);
  if (path == nullptr || path->conn == nullptr || path->conn->closed()) return;
  hinted = ring_epoch_;
  path->conn->send_encoded<wire::encode_ring_update_frame>(
      cluster_self_, client, ring_epoch_, ring_members_);
  ++stats_.ring_updates_sent;
}

void TcpTransport::purge_member(SiteId site) {
  ++stats_.members_purged;
  // The learned return path: a reply routed at this peer would sit in a
  // kernel buffer (or a half-dead socket) until supervision noticed. A
  // routed peer keeps its entry, without a connection, and re-dials.
  if (ReturnPath* path = peer_conn_.find(site.value)) {
    if (path->routed) {
      path->conn = nullptr;
    } else {
      peer_conn_.erase(site.value);
    }
  }
  // The pending-forward queue: frames buffered while the route was
  // reconnecting. Gossip just proved the peer dead cluster-wide, which is
  // strictly stronger evidence than local supervision failures — the retry
  // layer re-issues against the rebalanced ring instead.
  Peer* peer = find_peer(site);
  if (peer != nullptr && !peer->queue.empty()) {
    stats_.frames_dropped_peer_dead += peer->queue.size();
    peer->queue.clear();
  }
  ring_hinted_.erase(site.value);
}

bool TcpTransport::send_slice_sync(SiteId from, SiteId to,
                                   const wire::SliceSyncRequest& rq) {
  // Not sent: the warm driver retries on its own cadence.
  Connection* conn = ready_connection(to);
  if (conn == nullptr) return false;
  conn->send_encoded<wire::encode_slice_sync_frame>(from, to, rq);
  ++stats_.slice_sync_sent;
  return true;
}

bool TcpTransport::send_overloaded(SiteId from, SiteId to,
                                   const wire::Overloaded& ov) {
  Connection* conn = connection_to(to);
  if (conn == nullptr || conn->closed()) return false;
  conn->send_encoded<wire::encode_overloaded_frame>(from, to, ov);
  ++stats_.overloaded_sent;
  return true;
}

bool TcpTransport::forward_serve_here(SiteId inner_from, SiteId donor,
                                      const Message& m) {
  // Not sent: the caller falls back to serving its (cold) local state.
  Connection* conn = ready_connection(donor);
  if (conn == nullptr) return false;
  conn->send_encoded<wire::encode_forward_frame>(
      cluster_self_, donor, /*hops=*/std::uint8_t{1}, /*serve_here=*/true,
      ring_epoch_, inner_from, donor, m);
  ++stats_.forwards_out;
  return true;
}

void TcpTransport::collect_stats(const wire::StatsRequest& rq,
                                 std::int64_t now_us) {
  stats_scratch_.clear();
  stats_spans_.clear();
  struct Range {
    std::uint32_t site;
    std::size_t begin;
    std::size_t count;
  };
  Range ranges[wire::kMaxStatsBoards];
  std::size_t n_ranges = 0;
  auto append = [&](const StatsBoard& b) {
    if (n_ranges >= wire::kMaxStatsBoards) return;
    const std::size_t begin = stats_scratch_.size();
    b.collect(now_us, stats_scratch_);
    ranges[n_ranges++] = {b.site(), begin, stats_scratch_.size() - begin};
  };
  if (stats_hub_ != nullptr) {
    const std::size_t n = stats_hub_->size();
    for (std::size_t i = 0; i < n; ++i) {
      const StatsBoard* b = stats_hub_->board(i);
      if (b != nullptr && (rq.target_site == wire::kAllSites ||
                           b->site() == rq.target_site)) {
        append(*b);
      }
    }
  } else if (stats_board_ != nullptr &&
             (rq.target_site == wire::kAllSites ||
              stats_board_->site() == rq.target_site)) {
    append(*stats_board_);
  }
  // Spans are built after collection: stats_scratch_ no longer reallocates.
  for (std::size_t i = 0; i < n_ranges; ++i) {
    stats_spans_.push_back(
        {ranges[i].site,
         std::span<const StatsEntry>(stats_scratch_.data() + ranges[i].begin,
                                     ranges[i].count)});
  }
}

void TcpTransport::answer_stats(Connection& conn, SiteId requester,
                                SiteId self, const wire::StatsRequest& rq) {
  const std::int64_t now_us = loop_.now().as_micros();
  collect_stats(rq, now_us);
  ++stats_.stats_requests_served;
  // An empty reply (no boards) still goes out so pollers never hang.
  conn.send_encoded<wire::encode_stats_reply_frame>(self, requester, rq.seq,
                                                    stats_spans_);
  if (flight_ != nullptr) {
    const std::int64_t reply_bytes = static_cast<std::int64_t>(
        wire::kHeaderBytes + 12 + stats_spans_.size() * 8 +
        stats_scratch_.size() * 10);
    flight_->record(TraceEventType::kStatsScrape, now_us, kNoObject, rq.seq,
                    static_cast<std::int64_t>(requester.value), reply_bytes);
  }
}

void TcpTransport::steer(Connection& conn, TcpTransport& owner) {
  // Best-effort flush of anything already queued (e.g. a heartbeat pong
  // from this same tick): release() drops unsent output.
  conn.flush_batched();
  if (conn.closed()) return;  // flush hit a write error; nothing to steer
  std::vector<std::uint8_t> leftover;
  const int fd = conn.release(leftover);
  ++stats_.connections_steered_out;
  forget_pending(&conn);
  // The connection carried no learned return paths yet (steering happens
  // on the first protocol frame), but purge defensively.
  forget_paths_through(conn);
  TcpTransport* target = &owner;
  target->loop().post(
      [target, fd, lo = std::move(leftover)]() mutable {
        target->adopt_steered(fd, std::move(lo));
      });
  release_conn(conn);
}

void TcpTransport::on_close(Connection& conn, const char* reason) {
  (void)reason;
  ++stats_.connections_closed;
  if (conn.decode_failure() != wire::DecodeStatus::kOk) {
    ++stats_.decode_errors;
    ++stats_.decode_errors_by_status[static_cast<std::size_t>(
        conn.decode_failure())];
  }
  steer_candidates_.erase(&conn);
  forget_pending(&conn);
  // Purge every learned return path through this connection: a send to one
  // of these sites must re-dial or re-learn, never touch a dead pointer.
  forget_paths_through(conn);
  if (const std::uint32_t* supervised = conn_site_.find(&conn)) {
    const SiteId site{*supervised};
    conn_site_.erase(&conn);
    if (find_peer(site) != nullptr) on_supervised_close(site, conn);
  }
  release_conn(conn);
}

void TcpTransport::forget_paths_through(const Connection& conn) {
  peer_conn_.erase_if([&conn](std::uint32_t, ReturnPath& path) {
    if (path.conn != &conn) return false;
    path.conn = nullptr;  // a routed site keeps its entry and re-dials
    return !path.routed;
  });
}

void TcpTransport::release_conn(Connection& conn) {
  closed_flush_syscalls_ += conn.stats().flush_syscalls;
  const auto it = conns_.find(&conn);
  if (it != conns_.end()) {
    // We may be inside this connection's own event callback: defer the
    // actual destruction until the stack unwinds.
    std::shared_ptr<Connection> keep_alive = std::move(it->second);
    conns_.erase(it);
    loop_.post([keep_alive]() {});
  }
}

void TcpTransport::forget_pending(Connection* conn) {
  // Deferred destruction runs in drain_posted, which precedes the tick-end
  // hook in the same iteration — so every pending reference must go now,
  // from both the fill list and (when closing from inside the hook's own
  // flush) the list currently being walked. The walk skips nulls rather
  // than erasing, so indices stay stable.
  std::erase(dirty_conns_, conn);
  for (auto& c : flushing_) {
    if (c == conn) c = nullptr;
  }
}

void TcpTransport::ensure_tick_hook() {
  if (tick_hook_registered_) return;
  tick_hook_registered_ = true;
  tick_hook_id_ = loop_.add_tick_end_hook([this]() { on_tick_end(); });
}

void TcpTransport::on_tick_end() {
  if (!pending_local_.empty() || !dirty_conns_.empty()) {
    ++stats_.batch_flushes;
    // Batch-apply local deliveries; applying one may enqueue more (request →
    // reply → ...), so drain until a pass produces nothing new.
    while (!pending_local_.empty()) {
      local_batch_.clear();
      local_batch_.swap(pending_local_);
      for (LocalDelivery& d : local_batch_) {
        if (MessageHandler* h = local_handler(d.to)) (*h)(d.from, d.message);
      }
    }
    // One gather write per connection that queued output this tick. Acks a
    // shard produced while applying the batch above land in these queues, so
    // the whole tick's replies leave in (at most) one syscall per peer.
    const bool time_flush =
        stats_board_ != nullptr && !dirty_conns_.empty();
    const std::int64_t flush_t0 =
        time_flush ? EventLoop::steady_time_us() : 0;
    while (!dirty_conns_.empty()) {
      flushing_.clear();
      flushing_.swap(dirty_conns_);
      for (Connection* c : flushing_) {
        if (c != nullptr && !c->closed() && !c->released()) c->flush_batched();
      }
    }
    flushing_.clear();
    if (time_flush) {
      const std::int64_t us = EventLoop::steady_time_us() - flush_t0;
      stats_board_->record_stage(Stage::kFlush, us);
      if (flight_ != nullptr) {
        flight_->record(TraceEventType::kReactorStage, loop_.now().as_micros(),
                        kNoObject, 0,
                        static_cast<std::int64_t>(Stage::kFlush), us);
      }
    }
  }
  if (stats_board_ != nullptr || flight_ != nullptr) observe_tick();
}

void TcpTransport::observe_tick() {
  const std::int64_t dur =
      EventLoop::steady_time_us() - loop_.tick_start_steady_us();
  ++ticks_;
  if (dur > max_tick_us_) max_tick_us_ = dur;
  if (dur >= slow_tick_threshold_us_) {
    ++slow_ticks_;
    if (flight_ != nullptr) {
      flight_->record(TraceEventType::kReactorSlowTick, loop_.now().as_micros(),
                      kNoObject, 0, dur, slow_tick_threshold_us_);
    }
  }
  if (stats_board_ == nullptr) return;
  StatsBoard& b = *stats_board_;
  // Cheap counters every tick; the scalar stores are relaxed atomics, so
  // this is a handful of uncontended cache-line writes.
  b.set(StatKey::kTicks, static_cast<std::int64_t>(ticks_));
  b.set(StatKey::kSlowTicks, static_cast<std::int64_t>(slow_ticks_));
  b.set(StatKey::kMaxTickUs, max_tick_us_);
  b.set(StatKey::kLastTickEndUs, loop_.now().as_micros());
  b.set(StatKey::kFramesIn, static_cast<std::int64_t>(stats_.frames_received));
  b.set(StatKey::kFramesOut, static_cast<std::int64_t>(stats_.frames_sent));
  b.set(StatKey::kOpsApplied, static_cast<std::int64_t>(
                                  stats_.frames_received +
                                  stats_.local_deliveries));
  b.set(StatKey::kBatchFlushes,
        static_cast<std::int64_t>(stats_.batch_flushes));
  b.set(StatKey::kSteeredOut,
        static_cast<std::int64_t>(stats_.connections_steered_out));
  b.set(StatKey::kSteeredIn,
        static_cast<std::int64_t>(stats_.connections_steered_in));
  b.set(StatKey::kDecodeErrors,
        static_cast<std::int64_t>(stats_.decode_errors));
  b.set(StatKey::kHeartbeatsSent,
        static_cast<std::int64_t>(stats_.heartbeats_sent));
  b.set(StatKey::kHeartbeatsReceived,
        static_cast<std::int64_t>(stats_.heartbeats_received));
  b.set(StatKey::kConnections, static_cast<std::int64_t>(conns_.size()));
  b.set(StatKey::kFramesDropped,
        static_cast<std::int64_t>(stats_.frames_dropped_queue_full +
                                  stats_.frames_dropped_peer_dead));
  if (cluster_enabled_) {
    b.set(StatKey::kClusterForwardsOut,
          static_cast<std::int64_t>(stats_.forwards_out));
    b.set(StatKey::kClusterForwardsIn,
          static_cast<std::int64_t>(stats_.forwards_in));
    b.set(StatKey::kClusterRelayed,
          static_cast<std::int64_t>(stats_.relayed));
    b.set(StatKey::kClusterHopsExceeded,
          static_cast<std::int64_t>(stats_.forward_hops_exceeded));
    b.set(StatKey::kClusterMembershipSent,
          static_cast<std::int64_t>(stats_.membership_sent));
    b.set(StatKey::kClusterMembershipReceived,
          static_cast<std::int64_t>(stats_.membership_received));
    b.set(StatKey::kClusterStaleForwards,
          static_cast<std::int64_t>(stats_.stale_forwards));
  }
  if (flight_ != nullptr) {
    b.set(StatKey::kFlightRecorded,
          static_cast<std::int64_t>(flight_->recorded()));
    b.set(StatKey::kFlightOverwritten,
          static_cast<std::int64_t>(flight_->overwritten()));
  }
  // O(conns) aggregates are amortised: every 32 ticks ((ticks_ & 31) == 1
  // also covers the very first tick, so boards never report zero forever).
  if ((ticks_ & 31) == 1) {
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t flush_syscalls = closed_flush_syscalls_;
    for (const auto& [raw, conn] : conns_) {
      const ConnectionStats& cs = raw->stats();
      bytes_in += cs.bytes_read;
      bytes_out += cs.bytes_written;
      flush_syscalls += cs.flush_syscalls;
    }
    b.set(StatKey::kBytesIn, static_cast<std::int64_t>(bytes_in));
    b.set(StatKey::kBytesOut, static_cast<std::int64_t>(bytes_out));
    b.set(StatKey::kFlushSyscalls,
          static_cast<std::int64_t>(flush_syscalls));
  }
}

void TcpTransport::stop_listening() {
  if (listen_fd_ < 0) return;
  loop_.remove_fd(listen_fd_);
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void TcpTransport::close_all() {
  shutting_down_ = true;  // supervised closes must not schedule re-dials
  // close() mutates conns_ through on_close; iterate over a snapshot.
  std::vector<Connection*> open;
  open.reserve(conns_.size());
  for (const auto& [raw, conn] : conns_) open.push_back(raw);
  for (Connection* c : open) {
    // Graceful: push out whatever the last tick queued before closing.
    if (!c->closed()) c->flush_batched();
    if (!c->closed()) c->close("shutdown");
  }
  stop_listening();
}

}  // namespace timedc::net
