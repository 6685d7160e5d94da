// The object server: long-term storage for every object (Section 5.1's
// "server sites"), source of truth for versions and lifetimes.
//
// The server answers fetches with its current copy (omega/beta stamped with
// the server's own time — the latest instant the value is known valid),
// applies client writes in arrival order, answers validations, and — under
// the push policies — notifies caching clients of updates (Cao-Liu style
// invalidation or full update propagation, Section 5.2's optimizations).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/history.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "protocol/messages.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace timedc {

enum class TraceEventType : std::uint8_t;
class StatsBoard;
class FlightRecorder;

enum class PushPolicy {
  kNone,        // pure pull: clients validate/fetch on demand
  kInvalidate,  // server invalidates cached copies on write
  kUpdate,      // server pushes the new copy on write
};

/// Server-side knobs. Leases implement Section 5.2's "objects whose ending
/// times are well-known (e.g. ... leased objects)": a fetch/validation
/// grants validity until now + lease_duration (shipped as the copy's
/// omega), and a write arriving while another client's lease is live is
/// DEFERRED until every such lease expires (Gray-Cheriton). Readers then
/// hit locally for the whole lease with full timeliness; writers pay the
/// wait.
struct ServerConfig {
  SimTime lease_duration = SimTime::zero();  // 0 = leases disabled
  /// Cluster-mode server-side caching (Section 5.2 push propagation between
  /// servers): a non-owner that forwards a fetch also subscribes to the
  /// owner's pushes and keeps a local replica; later fetches for the same
  /// object are served from the replica while it is fresh — no hop, no
  /// re-fetch on Delta expiry. Off by default: single-group servers and the
  /// sim fixtures keep the pure forward-everything behavior.
  bool cluster_replicas = false;
  /// Push mode requested from owners: 0 = invalidate (mark-old, next fetch
  /// revalidates if-modified-since), 1 = update (owner pushes the new copy,
  /// replica self-refreshes).
  std::uint8_t cluster_push_mode = 1;
  /// Hard cap on replica age since install/refresh; zero = uncapped (serve
  /// while subscribed and not marked old).
  SimTime replica_ttl = SimTime::zero();
  /// Admission control on the serving hot path. Rate 0 disables the gate
  /// (one branch, the default). The bucket is integer micro-tokens: each
  /// admitted op costs 1e6, refill is admit_rate_per_s * 1e6 per second,
  /// capped at admit_burst * 1e6. Reads additionally need a quarter-burst
  /// reserve, so under pressure reads shed first (kOverloaded with a
  /// retry-after; the value they want is retryable by construction) while
  /// writes defer briefly and then apply — a write is never dropped by
  /// admission, only delayed.
  std::uint32_t admit_rate_per_s = 0;
  std::uint32_t admit_burst = 64;
  /// Bounded write deferrals under overload before applying anyway.
  std::uint32_t admit_max_write_deferrals = 2;
  /// Keep every write arrival for applied_writes()/write_history(), the
  /// experiment harness's oracle. Off by default: a long-running daemon
  /// must not grow with every write it applies.
  bool record_history = false;
};

struct ServerStats {
  std::uint64_t fetches = 0;
  std::uint64_t writes_applied = 0;
  std::uint64_t validations = 0;
  std::uint64_t validations_ok = 0;
  std::uint64_t pushes = 0;
  std::uint64_t forwarded = 0;       // requests relayed to the owning server
  std::uint64_t server_pushes = 0;   // pushes to subscribed cacher servers
  std::uint64_t replica_hits = 0;    // fetches served from a local replica
  std::uint64_t replica_validations = 0;  // if-modified-since refreshes done
  std::uint64_t subscribes_sent = 0; // cacher subscriptions sent to owners
  std::uint64_t writes_deferred = 0; // writes that waited for a lease
  std::uint64_t duplicate_writes = 0; // retransmitted writes deduplicated
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t writes_restored = 0;  // WAL records replayed at startup
  std::uint64_t drains = 0;           // begin_drain() calls
  // Framed-transport requests carrying request_id == 0: "unsequenced" is a
  // raw in-process test convention, never a legal wire value (see
  // messages.hpp), so such requests are rejected, not served.
  std::uint64_t rejected_unsequenced = 0;
  // Self-healing (zero until a warm-up or overload happens):
  std::uint64_t slices_synced = 0;      // anti-entropy records installed
  std::uint64_t warm_forwards = 0;      // cold reads forwarded while warming
  std::uint64_t admission_reads_shed = 0;
  std::uint64_t admission_writes_deferred = 0;
  std::uint64_t overloaded_replies = 0;  // kOverloaded replies actually sent
};

class ObjectServer {
 public:
  /// `cluster` lists every server site of the deployment (must include
  /// `self`); each object is owned by exactly one of them (hash
  /// partitioning). Empty means this server owns everything. A request
  /// arriving at a non-owner is forwarded to the owner, which replies to
  /// the client directly (one extra hop, not two).
  ///
  /// The server runs over any Transport: the deterministic sim Network or
  /// a real TcpTransport (clock and timers come from the transport).
  ObjectServer(Transport& net, SiteId self, std::size_t num_sites,
               PushPolicy push, MessageSizes sizes,
               std::vector<SiteId> cluster = {}, ServerConfig config = {});

  /// Sim-era convenience: `sim` must be the simulator `net` runs on.
  ObjectServer(Simulator& sim, Network& net, SiteId self, std::size_t num_sites,
               PushPolicy push, MessageSizes sizes,
               std::vector<SiteId> cluster = {}, ServerConfig config = {});

  /// Install this server as the network handler for its site id.
  void attach();

  /// Crash: the server goes silent and loses its SOFT state — the cachers
  /// sets (push subscriptions), outstanding leases, and scheduled write
  /// deferrals. Durable state survives: object values, versions, start
  /// times, the applied-write history, and the write dedup log (the
  /// write-ahead log a real server would replay), so retried writes stay
  /// idempotent across the crash.
  void crash();

  /// Restart after a crash. If leases are enabled, writes are deferred for
  /// a grace window of one full lease_duration: the restarted server has
  /// forgotten who holds leases, but every lease it ever granted expires
  /// within that window, so no reader's promise is broken.
  void restart();

  /// Durable write-ahead logging across *process* restarts. The hook fires
  /// for every write decision just before its ack is sent — version is the
  /// version the write got, 0 when it lost the last-writer-wins race — and
  /// the owner must make the record durable before the ack can leave (the
  /// ack is the promise). A fresh process replays the records in log order
  /// through restore_write() before attach(): object values, versions,
  /// alphas, the merged logical clock and the write-dedup slots (with their
  /// stored acks, so in-doubt retransmissions re-ack instead of re-apply)
  /// are all reconstructed.
  using WriteLog =
      std::function<void(const WriteRequest&, std::uint64_t version)>;
  void set_write_log(WriteLog log) { write_log_ = std::move(log); }
  void restore_write(const WriteRequest& req, std::uint64_t version);

  /// Arm the post-restart lease grace window on a *freshly constructed*
  /// server that restored durable state (the process-restart analogue of
  /// restart()'s window): writes defer for one lease_duration because the
  /// previous incarnation's granted leases are unknown. No-op with leases
  /// disabled.
  void arm_restart_grace();

  /// Graceful drain (SIGTERM): stop granting leases and release every
  /// outstanding one, so deferred writes can apply and their acks flush
  /// before the process exits. The caller is responsible for giving the
  /// event loop a moment to flush those replies before closing sockets.
  void begin_drain();

  bool is_up() const { return up_; }

  SiteId site() const { return self_; }
  const ServerStats& stats() const { return stats_; }
  /// Client push subscriptions held: one per (object, client) in the
  /// cachers sets. Always 0 under PushPolicy::kNone.
  std::size_t cacher_entries() const;

  /// Emit lease/push/write/crash events to `tracer` (nullptr = off).
  void set_tracer(Tracer* tracer) { obs_ = tracer; }

  /// Live introspection: every served fetch records its Definition-1
  /// staleness (now - the copy's start time alpha) into the reactor's
  /// board, plus a kReadsServed counter; with a flight recorder attached,
  /// sampled reads (1-in-kStalenessSamplePeriod) also leave a
  /// kReadStaleness flight event. Loop-thread only, like all handlers.
  void set_stats_board(StatsBoard* board) { stats_board_ = board; }
  void set_flight_recorder(FlightRecorder* recorder) { flight_ = recorder; }
  static constexpr std::uint64_t kStalenessSamplePeriod = 64;

  /// The server owning `object` under this deployment's partitioning.
  SiteId primary_of(ObjectId object) const;

  /// Override the default modulo partitioning with an external ownership
  /// map (the cluster hash ring). The function must be deterministic and
  /// identical across every server of the deployment.
  void set_ownership(std::function<SiteId(ObjectId)> owner_fn) {
    owner_fn_ = std::move(owner_fn);
  }

  /// Register a peer *server* as a cacher of `object` (wire
  /// kCacherSubscribe, routed here by the transport). Unlike client cachers
  /// (soft state tied to PushPolicy), server cachers are pushed on every
  /// accepted write regardless of the client push policy: mode 0 sends
  /// Invalidate (mark-old), mode 1 sends PushUpdate (replica refresh).
  void register_server_cacher(ObjectId object, SiteId cacher,
                              std::uint8_t mode);

  /// How this server sends its own cacher subscriptions to owners (wired
  /// by timedc-server to TcpTransport::send_cacher_subscribe). Subscribes
  /// are re-sent whenever a fetch forwards with no fresh replica, so a
  /// subscription lost to an owner restart self-heals.
  using SubscribeSender =
      std::function<void(SiteId owner, ObjectId object, std::uint8_t mode)>;
  void set_subscribe_sender(SubscribeSender fn) {
    subscribe_sender_ = std::move(fn);
  }

  // --- self-healing: warm-up and admission --------------------------------

  /// WARMING <-> SERVING. A server enters WARMING when it acquires a slice
  /// it has no state for (fresh start after a crash, or a rebalance handed
  /// it objects a peer owned): writes apply locally at once (safe under
  /// last-writer-wins — their alpha decides), but a read of an object this
  /// server has never seen a value for would return the cold initial value,
  /// so such reads forward through to the previous owner (serve-here flag)
  /// until the anti-entropy sync finishes and finish_warming() flips the
  /// server to normal serving.
  bool warming() const { return warming_; }
  void begin_warming() { warming_ = true; }
  void finish_warming() { warming_ = false; }

  /// How a warming server forwards a cold read to its donor (wired by
  /// timedc-server to TcpTransport::forward_serve_here). Return false when
  /// the donor is unreachable — the server then answers from local (cold)
  /// state rather than stalling the client.
  using WarmMissForwarder = std::function<bool(ObjectId, const Message&)>;
  void set_warm_miss_forwarder(WarmMissForwarder fn) {
    warm_miss_forwarder_ = std::move(fn);
  }

  /// Donor side of anti-entropy warm-up: fill `out` with up to
  /// `max_records` slice records for objects that (a) this server holds a
  /// written value for, (b) the current ring assigns to `requester`, (c)
  /// have id >= cursor and (d) were written after `if_newer_than_us`.
  /// Records stream in ascending object-id order; `next_cursor` resumes the
  /// scan. Returns true when the slice is exhausted (kSliceDone).
  bool collect_slice(SiteId requester, std::uint32_t cursor,
                     std::uint32_t max_records, std::int64_t if_newer_than_us,
                     std::vector<wire::SliceRecord>& out,
                     std::uint32_t& next_cursor);

  /// Requester side: install one streamed record. The record wins when the
  /// object is locally unwritten or the record's write time is newer
  /// (last-writer-wins, same rule as apply_write). Either way the record's
  /// (writer, request_id) refreshes the write-dedup slot, so a client
  /// retransmission of a write the OLD owner applied re-acks here instead
  /// of re-applying — exactly-once survives the ownership move. Returns
  /// true when the value was installed.
  bool install_sync_record(const wire::SliceRecord& rec);

  /// How kOverloaded replies leave (wired by timedc-server to
  /// TcpTransport::send_overloaded). Unset = shed silently; the client's
  /// retry timer covers as if the reply were lost.
  using OverloadedSender =
      std::function<void(SiteId client, ObjectId object,
                         std::uint64_t request_id, std::int64_t retry_after_us)>;
  void set_overloaded_sender(OverloadedSender fn) {
    overloaded_sender_ = std::move(fn);
  }

  /// Oracle access for the experiment harness: every write arrival in
  /// server order (values are unique), kept only with
  /// ServerConfig::record_history (empty otherwise). `accepted` is false
  /// for writes that lost the last-writer-wins race on start time alpha
  /// and never became the object's value.
  struct AppliedWrite {
    Value value;
    SimTime applied_at;
    bool accepted = true;
  };
  const std::vector<AppliedWrite>& applied_writes(ObjectId object) const;

  /// Every object's write arrivals (oracle access, e.g. for the
  /// visibility-latency histogram).
  const std::unordered_map<ObjectId, std::vector<AppliedWrite>>&
  write_history() const {
    return history_;
  }

 private:
  struct Stored {
    Value value = kInitialValue;
    std::uint64_t version = 0;
    SimTime alpha = SimTime::zero();
    PlausibleTimestamp alpha_l;
    // Clients believed to cache this object. Only the push loop in
    // apply_write reads it, so it is filled only under a push policy: a
    // pure-pull server keeps no per-client state per object.
    std::unordered_set<std::uint32_t> cachers;
    // Outstanding read leases: client -> expiry (leases mode only).
    std::unordered_map<std::uint32_t, SimTime> leases;
    // A write is waiting for leases to expire: no new leases are granted
    // (otherwise renewing readers could starve the writer forever).
    bool write_pending = false;
    // Provenance of the current value (the accepted write's client and
    // request id), streamed in slice-sync records so write dedup transfers
    // across an ownership move.
    std::uint32_t last_writer = 0;
    std::uint64_t last_request_id = 0;
  };

  // Write dedup by (client, request_id): one slot per client suffices
  // because each client has at most one operation outstanding. Durable
  // across crash (WAL semantics).
  struct WriteDedup {
    std::uint64_t completed_id = 0;  // last applied request
    WriteAck ack;                    // its ack, for retransmission
    std::uint64_t deferred_id = 0;   // request currently lease-deferred
  };

  /// One peer-owned object replicated here (cluster_replicas mode). The
  /// copy is installed by PushUpdate / ValidateReply; `old` is the
  /// mark-old bit set by Invalidate (the copy is kept for the
  /// if-modified-since version check, but never served).
  struct Replica {
    ObjectCopy copy;
    SimTime installed_at = SimTime::zero();
    bool old = true;
    bool subscribed = false;
    bool validate_inflight = false;
  };

  void on_message(SiteId from, const Message& msg);
  /// Serve a fetch for a peer-owned object from the local replica iff it
  /// is installed, not marked old, and within replica_ttl.
  bool serve_from_replica(const FetchRequest& req);
  /// Forwarding a fetch with no fresh replica: (re)subscribe to the
  /// owner's pushes and issue one if-modified-since self-validation so the
  /// replica is fresh for the next fetch.
  void refresh_replica(ObjectId object);
  void handle_cluster_invalidate(const Invalidate& inv);
  void handle_cluster_push_update(const PushUpdate& push);
  void handle_cluster_validate_reply(const ValidateReply& rep);
  /// Push an accepted write to every subscribed cacher server.
  void push_server_cachers(const WriteRequest& req, const Stored& s,
                           SimTime now);
  /// The request_id == 0 gate for framed transports. True when rejected.
  bool reject_unsequenced(std::uint64_t request_id);
  void handle_fetch(const FetchRequest& req);
  void handle_write(const WriteRequest& req);
  void handle_validate(const ValidateRequest& req);
  /// Admission gates. admit_op refills the bucket, then takes one op cost
  /// iff `reserve_micro` extra tokens would remain; admit_read sheds
  /// (kOverloaded) on failure, admit_or_defer_write delays then applies.
  bool admit_op(std::int64_t reserve_micro);
  bool admit_read(ObjectId object, SiteId client, std::uint64_t request_id);
  void admit_or_defer_write(const WriteRequest& req, std::uint32_t deferrals);
  /// True when a warming server forwarded this request for a locally cold
  /// object through to its donor.
  bool forward_warm_miss(ObjectId object, const Message& m);
  /// Lease gate: defers past live leases and the post-restart grace window.
  /// It reads the clock once; apply_write stamps the write with that `now`.
  void defer_or_apply(const WriteRequest& req);
  void apply_write(const WriteRequest& req, Stored& s, SimTime now);
  /// Log the applied write in the dedup slot so retransmissions re-ack.
  void record_completed(const WriteRequest& req, const WriteAck& ack);
  /// Latest lease expiry held by any client other than `writer` (zero when
  /// none). Entries expired by `now` are pruned as a side effect.
  SimTime lease_horizon(Stored& s, ObjectId object, SiteId writer,
                        SimTime now);
  /// Returns the granted lease duration (zero when leases are disabled or
  /// a write is pending on the object).
  SimTime grant_lease(Stored& s, ObjectId object, SiteId client, SimTime now);
  void trace(TraceEventType type, ObjectId object, std::uint64_t op = 0,
             std::int64_t a = 0, std::int64_t b = 0);
  /// True if the request was relayed to the owning server.
  bool forward_if_not_owner(ObjectId object, const Message& m);
  /// `s` as of `now` (the request's one clock read). `lease_extension`
  /// stretches omega past now — only for replies to clients that were
  /// actually granted a lease (push copies get none).
  ObjectCopy copy_of(ObjectId object, const Stored& s, SimTime now,
                     SimTime lease_extension = SimTime::zero()) const;
  void send(SiteId to, Message m);
  Stored& stored(ObjectId object);
  /// Append to history_ when ServerConfig::record_history asks for it.
  void record_arrival(ObjectId object, AppliedWrite w);

  Transport& net_;
  SiteId self_;
  std::size_t num_sites_;
  PushPolicy push_;
  MessageSizes sizes_;
  std::vector<SiteId> cluster_;
  ServerConfig config_;
  bool up_ = true;
  bool draining_ = false;  // begin_drain(): no new leases are granted
  // Bumped on crash so scheduled continuations (lease deferrals) from the
  // previous incarnation die instead of touching the restarted server.
  std::uint64_t epoch_ = 0;
  SimTime lease_grace_until_ = SimTime::zero();
  std::unordered_map<std::uint32_t, WriteDedup> write_dedup_;
  std::unordered_map<ObjectId, Stored> objects_;
  // The server's merged logical knowledge: max over all write timestamps it
  // has applied. Shipped as omega_l so a fresh copy never looks causally
  // stale to a client whose context grew only through this server.
  PlausibleTimestamp logical_now_;
  std::unordered_map<ObjectId, std::vector<AppliedWrite>> history_;
  WriteLog write_log_;
  // Cluster seam: external ownership map, replicas of peer-owned objects,
  // peer servers subscribed to objects owned here (site -> push mode), and
  // the outbound subscription sender.
  std::function<SiteId(ObjectId)> owner_fn_;
  std::unordered_map<ObjectId, Replica> replicas_;
  std::unordered_map<ObjectId, std::unordered_map<std::uint32_t, std::uint8_t>>
      server_cachers_;
  SubscribeSender subscribe_sender_;
  std::uint64_t self_request_id_ = 0;  // ids for self-issued validations
  // Self-healing state:
  bool warming_ = false;
  WarmMissForwarder warm_miss_forwarder_;
  OverloadedSender overloaded_sender_;
  static constexpr std::int64_t kAdmitOpCostMicro = 1'000'000;
  std::int64_t admit_tokens_micro_ = 0;
  std::int64_t admit_last_refill_us_ = 0;
  std::vector<std::uint32_t> slice_ids_;  // collect_slice sort scratch
  Tracer* obs_ = nullptr;
  StatsBoard* stats_board_ = nullptr;
  FlightRecorder* flight_ = nullptr;
  std::uint64_t reads_served_ = 0;
  ServerStats stats_;
};

}  // namespace timedc
