// The real-socket Transport: wire-codec frames over non-blocking TCP,
// driven by one EventLoop.
//
// Hot path. Frames arrive as non-owning wire::FrameViews and decode into a
// per-transport scratch DecodedFrame; outgoing frames coalesce in per-
// connection send queues and flush once per loop tick with a single gather
// write (a tick-end hook); local deliveries batch the same way. In steady
// state — empty-timestamp TSC traffic — a request/reply round touches the
// allocator zero times. Multi-reactor servers run one TcpTransport per
// EventLoop on a shared SO_REUSEPORT port with object-hash connection
// steering (set_steering); each connection ends up wholly owned by the
// reactor that owns its sites, so reactors share no protocol state.
//
// Routing model. Every frame carries (from, to) site ids, so one TCP
// connection can multiplex any number of sites — the load generator runs
// hundreds of client sites over a handful of connections. Outgoing routes
// are configured with add_route(site -> host:port) and dialed lazily; for
// everything else the transport *learns* return paths: when a frame from
// site S arrives on connection C, replies addressed to S leave through C.
// A server therefore needs no client addresses at all, exactly like the
// sim Network needs none.
//
// Threading: all Transport methods are loop-thread only (the contract in
// net/transport.hpp); drive cross-thread work through EventLoop::post.
// Construction and destruction happen while the loop is not running.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.hpp"
#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/transport.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/stats_board.hpp"

namespace timedc::net {

/// Where a supervised route currently stands. The state machine:
///
///   kConnecting --connect ok--> kHealthy --close/liveness--> kBackoff
///   kConnecting --timeout/refused--> kBackoff --delay--> kConnecting
///   kBackoff/kConnecting --dead_after_failures consecutive--> kDead
///   kDead --probe every backoff_cap--> kConnecting
///
/// The consecutive-failure counter resets only on the first frame *received*
/// from the peer (proof of liveness), never on a bare connect success — a
/// black-holing peer that accepts and then says nothing must still go kDead.
enum class ConnectionState : std::uint8_t {
  kConnecting = 0,
  kHealthy = 1,
  kBackoff = 2,
  kDead = 3,
};

const char* to_cstring(ConnectionState s);

/// Reconnect/heartbeat policy for routed peers. Off by default: with
/// enabled=false the transport behaves exactly like the pre-supervision
/// lazy-dial code path.
struct SupervisionConfig {
  bool enabled = false;
  /// A non-blocking connect() still pending after this long is failed.
  SimTime dial_timeout = SimTime::millis(500);
  /// Reconnect backoff: base * 2^(failures-1), capped, then jittered by a
  /// uniform factor in [1-jitter, 1+jitter].
  SimTime backoff_base = SimTime::millis(50);
  SimTime backoff_cap = SimTime::seconds(2);
  double backoff_jitter = 0.25;
  /// Consecutive failures (without one received frame) before kDead.
  int dead_after_failures = 6;
  /// Ping cadence on healthy connections; also the liveness-check cadence.
  SimTime heartbeat_interval = SimTime::millis(200);
  /// No frame received for this long closes the connection as dead. Zero
  /// derives it from the transport's latency_upper_bound():
  ///   2 * heartbeat_interval + 2 * min(latency_bound, 1s)
  /// i.e. two missed ping/pong round trips — a known slice of the Delta
  /// budget rather than an unbounded TCP stall.
  SimTime liveness_timeout = SimTime::zero();
  /// Frames buffered per peer while not kHealthy; beyond it the oldest
  /// queued frame is dropped (the RPC retry layer re-issues it anyway).
  std::size_t max_queued_frames = 1024;
  /// Seed for backoff jitter.
  std::uint64_t seed = 0x7443;
};

struct TcpTransportStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t local_deliveries = 0;  // both endpoints on this transport
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_dialed = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t decode_errors = 0;  // connections torn down by bad frames
  std::uint64_t unroutable = 0;     // frames dropped: no route to site
  /// Accepted connections handed to another reactor's transport because
  /// their first protocol frame addressed a site that reactor owns.
  std::uint64_t connections_steered_out = 0;
  /// Connections adopted from another reactor's accept.
  std::uint64_t connections_steered_in = 0;
  /// Batched local deliveries and tick-end gather flushes (coalescing:
  /// compare frames_sent with flush_syscalls).
  std::uint64_t batch_flushes = 0;
  /// Sum of every connection's sendmsg() calls, live and closed — with
  /// batching, frames_sent / flush_syscalls is the coalescing factor.
  /// Refreshed by TcpTransport::stats().
  std::uint64_t flush_syscalls = 0;
  /// decode_errors split by wire::DecodeStatus (index = status value); the
  /// stats bridge publishes these as net.decode_error.<status>.
  std::array<std::uint64_t, wire::kDecodeStatusCount> decode_errors_by_status{};
  // Supervision (all zero while SupervisionConfig.enabled is false):
  std::uint64_t reconnect_attempts = 0;  // re-dials after at least 1 failure
  std::uint64_t reconnects = 0;          // re-dials that reached kHealthy
  std::uint64_t dial_timeouts = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_received = 0;
  // Clock synchronization (transport-level, like heartbeats):
  std::uint64_t time_requests_sent = 0;
  std::uint64_t time_requests_served = 0;
  std::uint64_t time_replies_received = 0;
  // Live introspection (transport-level, like heartbeats):
  std::uint64_t stats_requests_served = 0;
  std::uint64_t stats_replies_received = 0;
  // Cluster (all zero until enable_cluster()):
  std::uint64_t forwards_out = 0;   // requests wrapped in kForward and sent
  std::uint64_t forwards_in = 0;    // kForward frames unwrapped here
  std::uint64_t relayed = 0;        // frames relayed verbatim on a learned path
  std::uint64_t forward_hops_exceeded = 0;
  std::uint64_t membership_sent = 0;
  std::uint64_t membership_received = 0;
  std::uint64_t subscribes_sent = 0;
  std::uint64_t subscribes_received = 0;
  std::uint64_t liveness_expiries = 0;   // connections closed as silent
  std::uint64_t peers_marked_dead = 0;
  std::uint64_t frames_queued = 0;       // buffered while not kHealthy
  std::uint64_t frames_requeued = 0;     // flushed after a reconnect
  std::uint64_t frames_dropped_queue_full = 0;
  std::uint64_t frames_dropped_peer_dead = 0;
  // Self-healing (all zero until the rebalance path is exercised):
  std::uint64_t stale_forwards = 0;      // kForward arrivals with an older ring epoch
  std::uint64_t ring_updates_sent = 0;   // kRingUpdate hints emitted
  std::uint64_t ring_updates_received = 0;
  std::uint64_t slice_sync_sent = 0;     // anti-entropy requests sent
  std::uint64_t slice_sync_served = 0;   // requests answered as donor
  std::uint64_t slice_sync_replies = 0;  // reply batches received
  std::uint64_t overloaded_sent = 0;     // admission-shed replies emitted
  std::uint64_t overloaded_received = 0;
  std::uint64_t members_purged = 0;      // gossip-dead purges (paths + queues)
  /// Current number of supervised peers in each ConnectionState
  /// (index = state value); refreshed by TcpTransport::stats().
  std::array<std::uint64_t, 4> peers_by_state{};
};

class TcpTransport final : public Transport {
 public:
  /// `latency_bound` is what latency_upper_bound() reports: the RPC layer
  /// budgets retry timeouts against it (default: no promise).
  explicit TcpTransport(EventLoop& loop,
                        SimTime latency_bound = SimTime::infinity());
  ~TcpTransport() override;

  /// Bind + listen on 127.0.0.1:`port` (0 picks an ephemeral port).
  /// Returns the bound port, or 0 with errno set when the port cannot be
  /// bound (e.g. EADDRINUSE); listen() may then be called again. With
  /// `reuse_port`, the socket is bound with SO_REUSEPORT so N reactors can
  /// share one port and the kernel shards accepts across them (the
  /// ReactorGroup's accept model).
  std::uint16_t listen(std::uint16_t port, bool reuse_port = false);

  /// Object-hash connection steering. When set, the first *protocol* frame
  /// on an accepted connection resolves the transport that owns the frame's
  /// destination site; if that is another reactor's transport, the fd and
  /// every buffered byte (current frame included) move there and all
  /// subsequent traffic is handled by the owner — one reactor per
  /// connection, no cross-thread state. Transport-internal frames
  /// (heartbeat, time-sync) are answered by whichever reactor accepted and
  /// never steer. Returning nullptr or `this` keeps the connection here.
  using SteeringFn = std::function<TcpTransport*(SiteId)>;
  void set_steering(SteeringFn fn) { steering_ = std::move(fn); }

  /// Adopt a steered-away connection (runs on this transport's loop via
  /// post from the steering reactor). `leftover` is every byte the
  /// releasing side had buffered, replayed as if freshly read.
  void adopt_steered(int fd, std::vector<std::uint8_t> leftover);

  /// Frames addressed to `site` go over a (lazily dialed) connection to
  /// host:port. Replaces any previous route for `site`.
  void add_route(SiteId site, std::string host, std::uint16_t port);

  /// Enable connection supervision (reconnect, heartbeats, liveness) for
  /// every routed site. Call before traffic flows; loop-thread only.
  void set_supervision(SupervisionConfig config);
  const SupervisionConfig& supervision() const { return supervision_; }

  /// The supervised state of the route to `site`. Unsupervised or unknown
  /// sites report kHealthy (optimistic, matching peer_reachable()).
  ConnectionState connection_state(SiteId site) const;

  /// Observe supervised state transitions: (site, old, new). For tests and
  /// tools; fired on the loop thread.
  using PeerStateHandler =
      std::function<void(SiteId, ConnectionState, ConnectionState)>;
  void set_peer_state_handler(PeerStateHandler h) {
    on_peer_state_ = std::move(h);
  }

  /// Observe kTimeReply frames addressed to this transport's sites. The
  /// first argument is the replying peer (the time server's site). One
  /// handler per transport: clock sync is per-process, not per-site.
  using TimeSyncHandler = std::function<void(SiteId, const wire::TimeSync&)>;
  void set_time_sync_handler(TimeSyncHandler h) {
    on_time_sync_ = std::move(h);
  }

  /// Send one clock-sync frame (ts.reply selects request vs reply). Returns
  /// false when no route/connection exists — the caller's round times out
  /// and its epsilon keeps widening, which is the intended degradation.
  /// Unlike send_message, nothing is queued: a delayed sync request would
  /// only yield a stale, wide-RTT sample.
  bool send_time_sync(SiteId from, SiteId to, const wire::TimeSync& ts);

  /// Shift the reference clock this transport serves to kTimeRequest
  /// frames: answers carry loop.now() + offset. Tests and experiments use
  /// it to emulate a skewed or authoritative time server.
  void set_time_source_offset(SimTime offset) { time_source_offset_ = offset; }
  SimTime time_source_offset() const { return time_source_offset_; }

  /// Attach this reactor's live stats board. The transport publishes its
  /// hot-path counters into the board at tick cadence and samples stage
  /// latencies 1-in-kStageSamplePeriod into its histograms. Set before the
  /// loop runs (or from the loop thread); the board must outlive the
  /// transport.
  void set_stats_board(StatsBoard* board);
  StatsBoard* stats_board() const { return stats_board_; }

  /// Attach the process-wide hub consulted when answering kStatsRequest
  /// frames, so one connection to any reactor can scrape every reactor —
  /// including a stalled one, whose board stays readable cross-thread.
  /// Without a hub, only the local board (if any) is reported.
  void set_stats_hub(const StatsHub* hub) { stats_hub_ = hub; }

  /// Attach this reactor's flight recorder: slow ticks, sampled stage
  /// latencies and stats scrapes are recorded behind its one-branch guard.
  void set_flight_recorder(FlightRecorder* recorder);
  FlightRecorder* flight_recorder() const { return flight_; }

  /// Run `barrier` before any frame leaves any connection of this
  /// transport (Connection::SendBarrier; null = none): installed on every
  /// connection it adopts, so tick-end, bypass and EPOLLOUT flushes all
  /// pass it. timedc-server commits its write-ahead log here, so no reply
  /// reveals a write whose record is not yet in the kernel. Loop-thread
  /// only, or before the loop runs.
  void set_send_barrier(Connection::SendBarrier barrier);

  /// A loop iteration whose callbacks run longer than this counts as a
  /// slow tick (watchdog counter + flight-recorder event).
  void set_slow_tick_threshold(SimTime t) {
    slow_tick_threshold_us_ = t.as_micros();
  }

  /// Send one introspection poll. Same delivery contract as
  /// send_time_sync: nothing is queued, false when no usable connection.
  bool send_stats_request(SiteId from, SiteId to, const wire::StatsRequest& rq);

  /// Observe kStatsReply frames: (replying peer, seq, flattened rows).
  /// The rows alias decode scratch and die when the handler returns.
  using StatsReplyHandler = std::function<void(
      SiteId, std::uint64_t, std::span<const wire::StatsRow>)>;
  void set_stats_reply_handler(StatsReplyHandler h) {
    on_stats_reply_ = std::move(h);
  }

  /// Every kStageSamplePeriod-th frame pays two clock reads per stage to
  /// feed the board's stage histograms; the rest pay one counter bump.
  static constexpr std::uint64_t kStageSamplePeriod = 64;

  // --- cluster ---------------------------------------------------------------
  // A cluster-enabled transport turns N server processes into one object
  // space at the frame level, without the protocol layer noticing:
  //
  //   forward  A protocol request addressed to a site this process does not
  //            host, arriving over TCP or sent by a local ObjectServer that
  //            ruled itself non-owner, is wrapped verbatim in a kForward
  //            frame and sent over the supervised route to the owner. The
  //            inner frame keeps the original (client, request_id) header,
  //            so WAL dedup and reply routing work unchanged across hops.
  //   unwrap   On kForward receipt the inner frame dispatches as if it had
  //            arrived directly, and the transport learns inner-from ->
  //            this connection, so the reply to the client leaves through
  //            the forwarding server.
  //   relay    A frame addressed to a site with no local handler but a
  //            learned return path is copied verbatim onto that path (the
  //            reply's trip back through the forwarder).
  //
  // All three ride the regular FrameView/SendQueue batched path: wrapping
  // and relaying copy bytes into the per-connection send queue and add no
  // per-op allocation.

  /// A kForward whose hop counter reaches this is never re-wrapped: the
  /// frame falls through to the legacy send path (and a counter bumps), so
  /// transient ownership disagreement cannot loop frames forever.
  static constexpr std::uint8_t kMaxForwardHops = 3;

  /// Turn on forward wrapping, unwrapping and relaying. `self` names this
  /// process in outer cluster frame headers (gossip and forwards).
  void enable_cluster(SiteId self);
  bool cluster_enabled() const { return cluster_enabled_; }

  /// Eagerly start the supervised connection to `site` (no-op when already
  /// started, unsupervised, or unrouted). Cluster members call this at
  /// startup so heartbeats — and the membership gossip riding them — flow
  /// before any request traffic. Loop-thread only.
  void prime_supervised(SiteId site);

  /// Gossip digest source, polled at heartbeat cadence: fills epoch and
  /// entries (the vector is scratch, reused per call).
  using MembershipProvider =
      std::function<void(std::uint64_t&, std::vector<wire::MemberEntry>&)>;
  void set_membership_provider(MembershipProvider p) {
    membership_provider_ = std::move(p);
  }

  /// Observe received kMembership digests: (gossiping peer, epoch, sender's
  /// ring epoch, entries). Entries alias decode scratch and die when the
  /// handler returns.
  using MembershipHandler = std::function<void(
      SiteId, std::uint64_t, std::uint64_t, std::span<const wire::MemberEntry>)>;
  void set_membership_handler(MembershipHandler h) {
    on_membership_ = std::move(h);
  }

  // --- self-healing --------------------------------------------------------

  /// Install the serving ring this transport stamps on outgoing kForward /
  /// kMembership frames and advertises in kRingUpdate hints. `epoch` is the
  /// cross-node ring epoch (the membership epoch captured at the last
  /// serving-set change; 0 = the configured baseline ring, for which no
  /// hints are ever sent) and `members` the serving member list the
  /// deterministic ring is rebuilt from. Loop-thread only.
  void set_ring(std::uint64_t epoch, std::span<const std::uint32_t> members);
  std::uint64_t ring_epoch() const { return ring_epoch_; }

  /// Satellite of the rebalance path: the moment gossip marks `site` DEAD,
  /// drop its learned return path and every pending-forward queue entry —
  /// today only connection death purges, so a gossip-confirmed-dead peer
  /// could keep accumulating queued forwards until the local supervision
  /// timer fired. Counted in frames_dropped_peer_dead + members_purged.
  void purge_member(SiteId site);

  /// Observe kRingUpdate hints: (sender, ring epoch, serving member list).
  /// The list aliases decode scratch and dies when the handler returns.
  using RingUpdateHandler =
      std::function<void(SiteId, std::uint64_t, std::span<const std::uint32_t>)>;
  void set_ring_update_handler(RingUpdateHandler h) {
    on_ring_update_ = std::move(h);
  }

  /// Serve a kSliceSync request as donor: fill `records`/`next_cursor` for
  /// (requester, request) and return the reply status byte (kSliceMore /
  /// kSliceDone / kSliceNotReady). The vector is scratch, reused per call.
  using SliceSyncServer = std::function<std::uint8_t(
      SiteId, const wire::SliceSyncRequest&, std::vector<wire::SliceRecord>&,
      std::uint32_t&)>;
  void set_slice_sync_server(SliceSyncServer fn) {
    slice_sync_server_ = std::move(fn);
  }

  /// Observe kSliceSyncReply batches: (donor, seq, donor ring epoch,
  /// status, next cursor, records). Records alias decode scratch.
  using SliceSyncReplyHandler = std::function<void(
      SiteId, std::uint64_t, std::uint64_t, std::uint8_t, std::uint32_t,
      std::span<const wire::SliceRecord>)>;
  void set_slice_sync_reply_handler(SliceSyncReplyHandler h) {
    on_slice_sync_reply_ = std::move(h);
  }

  /// Send one anti-entropy slice-sync request to the donor site. Same
  /// delivery contract as send_time_sync: nothing is queued, false when no
  /// usable connection — the warm-up driver retries on its own cadence.
  bool send_slice_sync(SiteId from, SiteId to, const wire::SliceSyncRequest& rq);

  /// Observe kOverloaded admission-shed replies addressed to local sites.
  using OverloadedHandler = std::function<void(SiteId, const wire::Overloaded&)>;
  void set_overloaded_handler(OverloadedHandler h) {
    on_overloaded_ = std::move(h);
  }

  /// Send one admission-shed reply toward `to` (a client site), over its
  /// learned return path or any open route. False when no path exists; the
  /// client's retry timer then covers exactly as if the reply were lost.
  bool send_overloaded(SiteId from, SiteId to, const wire::Overloaded& ov);

  /// Forward `m` to `donor` flagged serve-here: the donor must answer from
  /// local state even if its ring disagrees (the WARMING owner's
  /// forward-through; the flag is the loop breaker). `inner_from` is the
  /// original client, so the donor's reply relays back through here.
  bool forward_serve_here(SiteId inner_from, SiteId donor, const Message& m);

  // Transport:
  bool dispatch_serve_locally() const override { return dispatch_serve_here_; }

  /// Observe kCacherSubscribe frames: (frame destination site, request).
  /// The destination names the local shard owning the object.
  using CacherSubscribeHandler =
      std::function<void(SiteId, const wire::CacherSubscribe&)>;
  void set_cacher_subscribe_handler(CacherSubscribeHandler h) {
    on_cacher_subscribe_ = std::move(h);
  }

  /// Send one cacher registration to the owner site. Same delivery
  /// contract as send_time_sync: nothing is queued, false when no usable
  /// connection — subscriptions are re-sent on later forwards, so a drop
  /// only delays push propagation.
  bool send_cacher_subscribe(SiteId from, SiteId to,
                             const wire::CacherSubscribe& cs);

  /// Stop accepting new connections (existing ones keep running). Part of
  /// graceful drain; loop-thread only.
  void stop_listening();

  /// Close every connection and the listener. Loop-thread only; used for
  /// orderly shutdown before the loop stops. Disables reconnection.
  void close_all();

  // Transport:
  void register_site(SiteId self, MessageHandler handler) override;
  void send_message(SiteId from, SiteId to, Message m,
                    std::size_t bytes) override;
  SimTime now() const override { return loop_.now(); }
  void run_after(SimTime delay, std::function<void()> fn) override {
    loop_.run_after(delay, std::move(fn));
  }
  SimTime latency_upper_bound() const override { return latency_bound_; }
  bool requires_sequenced_requests() const override { return true; }
  bool peer_reachable(SiteId to) const override {
    return connection_state(to) != ConnectionState::kDead;
  }

  EventLoop& loop() { return loop_; }
  /// Refreshes the peers_by_state gauges, then returns the counters.
  const TcpTransportStats& stats() const;
  std::uint16_t listen_port() const { return listen_port_; }

 private:
  struct Route {
    std::string host;
    std::uint16_t port = 0;
  };

  struct QueuedFrame {
    SiteId from;
    SiteId to;
    Message message;
  };

  /// One supervised routed peer (exists only while supervision is enabled
  /// and traffic has touched the route).
  struct Peer {
    ConnectionState state = ConnectionState::kConnecting;
    Connection* conn = nullptr;
    /// Consecutive connection failures with no frame received in between.
    int failures = 0;
    /// Bumped on every dial/backoff so stale timers recognise themselves.
    std::uint64_t generation = 0;
    std::uint64_t next_hb_seq = 1;
    std::int64_t last_rx_us = 0;  // loop_.now() at the last received frame
    std::deque<QueuedFrame> queue;
  };

  void accept_ready();
  Connection* adopt(std::shared_ptr<Connection> conn,
                    bool steer_candidate = false);
  void on_frame(Connection& conn, const wire::FrameView& view);
  /// Dispatch one kOk protocol view to its handler, or — cluster mode —
  /// relay/forward it. `hops` is the wrapping depth the frame arrived with
  /// (0 for direct arrivals); it propagates into re-forwards.
  void dispatch_protocol(Connection& conn, const wire::FrameView& view,
                         std::uint8_t hops);
  /// Cluster fallback for a protocol view with no local handler: relay on a
  /// learned path, or wrap in kForward toward the supervised peer hosting
  /// view.to. Returns false when neither applies (caller counts
  /// unroutable).
  bool relay_or_forward(Connection& conn, const wire::FrameView& view,
                        std::uint8_t hops);
  /// Record that replies to `site` leave on `conn`. A direct arrival always
  /// takes over; a path learned through a forwarder (`via_forwarder`) never
  /// displaces a live direct one. Sites with a route are never learned.
  void learn_return_path(SiteId site, Connection& conn, bool via_forwarder);
  /// Where a frame for `site` that arrived on `arrival` may be relayed: the
  /// site's direct return path, or null. Never a path learned through a
  /// forwarder, so a frame is relayed at most once and cannot loop.
  Connection* relay_target(SiteId site, const Connection& arrival) const;
  /// Send `m` on `conn` — wrapped in kForward when cluster mode is on and
  /// the message is a request being sent on another site's behalf
  /// (reply_to != from), i.e. a local server forwarding a client request.
  void emit_or_wrap(Connection* conn, SiteId from, SiteId to,
                    const Message& m);
  void steer(Connection& conn, TcpTransport& owner);
  void on_close(Connection& conn, const char* reason);
  /// Drop a connection's pending deferred work (dirty-flush entries): its
  /// deferred destruction runs in drain_posted, *before* the tick-end hook,
  /// so a stale pointer there would dangle.
  void forget_pending(Connection* conn);
  void release_conn(Connection& conn);  // deferred-destruction handoff
  /// Lazily register the tick-end hook (loop-thread only).
  void ensure_tick_hook();
  /// The batching point: apply queued local deliveries (draining anything
  /// they enqueue in turn), then gather-flush every dirty connection once.
  void on_tick_end();
  /// Fill stats_spans_ (over stats_scratch_) with the boards `rq` asks
  /// for: from the hub when set, else the local board; none when neither.
  void collect_stats(const wire::StatsRequest& rq, std::int64_t now_us);
  /// Build and send a kStatsReply for `rq` on `conn`.
  void answer_stats(Connection& conn, SiteId from, SiteId to,
                    const wire::StatsRequest& rq);
  /// Tick-cadence bookkeeping: watchdog accounting plus publishing the
  /// transport counters into the stats board.
  void observe_tick();
  /// The connection frames to `to` should use: learned peer, open route
  /// connection, or a fresh dial. Null when unroutable.
  Connection* connection_to(SiteId to);
  /// True when `site` has a route and supervision is on.
  bool supervised_route(SiteId site) const;
  /// Where a sender that never queues (time sync, stats, slice sync, cacher
  /// subscribe, forwards) may write right now. A supervised route offers
  /// only its healthy connection; on first touch it starts the dial and
  /// returns null. Other sites use connection_to(). Null means "not sent".
  Connection* ready_connection(SiteId to);
  /// Send `client` a kRingUpdate over its learned path, once per serving
  /// ring epoch (no-op on the baseline ring or when already hinted).
  void maybe_hint_ring(SiteId client);
  Connection* dial(const Route& route, SiteId site);

  // Supervision internals (loop-thread only):
  void supervised_send(SiteId from, SiteId to, Message m);
  void enqueue_frame(Peer& peer, SiteId from, SiteId to, Message m);
  void start_dial(SiteId site);
  void on_supervised_connected(SiteId site);
  void on_supervised_close(SiteId site, Connection& conn);
  void schedule_backoff(SiteId site);
  void schedule_heartbeat(SiteId site, std::uint64_t generation);
  void transition(SiteId site, Peer& peer, ConnectionState next);
  SimTime liveness_timeout() const;

  EventLoop& loop_;
  SimTime latency_bound_;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;

  std::unordered_map<std::uint32_t, MessageHandler> handlers_;
  std::unordered_map<std::uint32_t, Route> routes_;
  // Where frames addressed to a site currently leave (dialed or learned).
  struct ReturnPath {
    Connection* conn;
    bool via_forwarder;  // learned from a kForward, not a direct arrival
  };
  std::unordered_map<std::uint32_t, ReturnPath> peer_conn_;
  std::unordered_map<Connection*, std::shared_ptr<Connection>> conns_;

  SupervisionConfig supervision_;
  std::unordered_map<std::uint32_t, Peer> peers_;
  // Reverse map: which supervised site a dialed connection belongs to.
  std::unordered_map<const Connection*, std::uint32_t> conn_site_;
  PeerStateHandler on_peer_state_;
  TimeSyncHandler on_time_sync_;

  // Cluster state (loop-thread only):
  bool cluster_enabled_ = false;
  SiteId cluster_self_{0};
  MembershipProvider membership_provider_;
  MembershipHandler on_membership_;
  CacherSubscribeHandler on_cacher_subscribe_;
  /// Hop depth of the kForward currently being dispatched (0 outside a
  /// dispatch): a handler that re-sends the request mid-dispatch inherits
  /// it, so re-forwards count against kMaxForwardHops.
  std::uint8_t dispatch_hops_ = 0;
  /// Gossip digest scratch, refilled per heartbeat (no steady-state
  /// allocation once capacity settles).
  std::vector<wire::MemberEntry> membership_scratch_;

  // Self-healing state (loop-thread only):
  std::uint64_t ring_epoch_ = 0;
  /// Serving member list behind ring_epoch_, advertised in kRingUpdate.
  std::vector<std::uint32_t> ring_members_;
  /// True only while dispatching a serve-here kForward's inner frame.
  bool dispatch_serve_here_ = false;
  RingUpdateHandler on_ring_update_;
  SliceSyncServer slice_sync_server_;
  SliceSyncReplyHandler on_slice_sync_reply_;
  OverloadedHandler on_overloaded_;
  /// Slice-record scratch for serving sync requests (reused per request).
  std::vector<wire::SliceRecord> slice_scratch_;
  /// Ring epoch last hinted per client site: one kRingUpdate per client per
  /// epoch, not one per misrouted request.
  std::unordered_map<std::uint32_t, std::uint64_t> ring_hinted_;
  SimTime time_source_offset_ = SimTime::zero();
  Rng backoff_rng_;
  bool shutting_down_ = false;

  // Batching state (loop-thread only):
  struct LocalDelivery {
    SiteId from;
    SiteId to;
    Message message;
  };
  std::vector<LocalDelivery> pending_local_;
  std::vector<LocalDelivery> local_batch_;  // reused swap target
  /// Connections with queued output awaiting the tick-end gather flush.
  std::vector<Connection*> dirty_conns_;
  std::vector<Connection*> flushing_;  // reused swap target
  /// Every adopted connection points here while it is set.
  Connection::SendBarrier send_barrier_;
  EventLoop::HookId tick_hook_id_ = 0;
  bool tick_hook_registered_ = false;

  // Steering state (loop-thread only):
  SteeringFn steering_;
  /// Accepted connections whose first protocol frame has not arrived yet —
  /// the only ones eligible to steer (a steered-in connection never
  /// re-steers).
  std::unordered_set<const Connection*> steer_candidates_;

  /// Per-transport decode scratch: frame bodies decode into this reused
  /// DecodedFrame, so steady-state receive dispatch never allocates.
  wire::DecodedFrame scratch_frame_;

  mutable TcpTransportStats stats_;
  /// flush_syscalls of connections already released (stats() adds the live
  /// ones on top).
  std::uint64_t closed_flush_syscalls_ = 0;

  // Observability wiring (loop-thread writers; boards readable anywhere):
  StatsBoard* stats_board_ = nullptr;
  const StatsHub* stats_hub_ = nullptr;
  FlightRecorder* flight_ = nullptr;
  StatsReplyHandler on_stats_reply_;
  std::int64_t slow_tick_threshold_us_ = 20000;
  std::uint64_t ticks_ = 0;
  std::uint64_t slow_ticks_ = 0;
  std::int64_t max_tick_us_ = 0;
  std::uint64_t stage_samples_rx_ = 0;  // frames seen, for 1-in-N sampling
  std::uint64_t stage_samples_tx_ = 0;
  /// Stats-reply build scratch (reused: scrapes do not allocate in steady
  /// state once capacities settle).
  std::vector<StatsEntry> stats_scratch_;
  std::vector<wire::StatsBoardSpan> stats_spans_;
};

}  // namespace timedc::net
