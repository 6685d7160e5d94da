// Shared plumbing for the protocol clients: one-outstanding-operation
// read/write API, server messaging, local clock access and statistics.
// The TSC (physical clock) and TCC (logical clock) caches derive from this
// and implement the lifetime rules.
//
// The base also owns the reliable-RPC layer: every request carries a
// per-client monotone request id, and — when a RetryPolicy is configured —
// an unanswered request is retransmitted with exponential backoff and
// deterministic jitter, fails over to another cluster server after repeated
// timeouts, and is explicitly ABANDONED once the attempt budget is
// exhausted (the operation completes degraded instead of hanging forever).
// Duplicate replies (retransmission races, network duplication) are
// suppressed by request id. The timeout is budgeted against the network's
// LatencyModel::upper_bound(), the same bound Delta-timeliness budgeting
// uses.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "clocks/physical_clock.hpp"
#include "common/rng.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"
#include "protocol/messages.hpp"
#include "protocol/stats.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace timedc {

/// Reliability knobs for the client RPC layer. max_attempts <= 1 disables
/// retries entirely (one send, wait forever — the seed behavior, correct on
/// a lossless network). In ExperimentConfig, max_attempts == 0 means
/// "auto": resolved to a retrying policy iff the run injects faults.
struct RetryPolicy {
  /// Total send attempts per RPC (first send included). <= 1: no retries.
  int max_attempts = 0;
  /// First-attempt timeout; zero derives one from the network latency
  /// upper bound (request hop + possible forward hop + reply hop + slack).
  SimTime base_timeout = SimTime::zero();
  /// Timeout multiplier per further attempt.
  double backoff = 2.0;
  /// Uniform random extra fraction of the timeout, so retry storms from
  /// many clients decorrelate (deterministically, from the client's rng).
  double jitter = 0.25;
  /// Consecutive timeouts on one server before rerouting to another
  /// cluster server (which forwards to the owner if it is not the owner).
  int failover_after = 2;

  bool enabled() const { return max_attempts > 1; }
};

class CacheClient {
 public:
  /// Called when a read completes, with the value and the completion time.
  using ReadCallback = std::function<void(Value, SimTime)>;
  /// Called when a write completes (server ack received).
  using WriteCallback = std::function<void(SimTime)>;

  /// The client runs over any Transport: the deterministic sim Network or
  /// a real TcpTransport (clock and timers come from the transport).
  CacheClient(Transport& net, SiteId self, SiteId server,
              const PhysicalClockModel* clock, SimTime delta, bool mark_old,
              MessageSizes sizes);

  /// Sim-era convenience: `sim` must be the simulator `net` runs on.
  CacheClient(Simulator& sim, Network& net, SiteId self, SiteId server,
              const PhysicalClockModel* clock, SimTime delta, bool mark_old,
              MessageSizes sizes);
  virtual ~CacheClient() = default;

  /// Override where requests for a given object are sent (default: the
  /// single server passed at construction). With a server cluster, route to
  /// the object's primary — or to any server, which forwards (Section 5.1:
  /// "a server site, which either has a copy ... or can obtain it").
  void set_route(std::function<SiteId(ObjectId)> route) {
    route_ = std::move(route);
  }

  /// Turn on the reliable-RPC layer. `failover_servers` lists the cluster
  /// servers tried in rotation when the current target keeps timing out
  /// (may be empty: retry the same server only). `rpc_seed` seeds the
  /// deterministic jitter stream.
  void configure_reliability(RetryPolicy policy,
                             std::vector<SiteId> failover_servers,
                             std::uint64_t rpc_seed);

  CacheClient(const CacheClient&) = delete;
  CacheClient& operator=(const CacheClient&) = delete;

  /// Install this client as the network handler for its site id.
  void attach();

  /// Issue a read; at most one operation may be outstanding per client.
  void read(ObjectId object, ReadCallback done);

  /// Issue a write-through; completes when the server acks.
  void write(ObjectId object, Value value, WriteCallback done);

  /// True when the most recently completed operation was abandoned by the
  /// retry layer (its result is a degraded local guess, not a server
  /// answer). The experiment driver excludes such operations from the
  /// recorded history and the staleness oracle.
  bool last_op_abandoned() const { return op_abandoned_; }

  SiteId site() const { return self_; }
  SimTime delta() const { return delta_; }
  const CacheStats& stats() const { return stats_; }

  /// Maxwait-style adaptive Delta: when set, the provider maps the
  /// configured Delta to the effective budget for the next operation. The
  /// contract is tighten-only — the cache clamps the returned value into
  /// [0, configured Delta], so adaptation can shed over-waiting but never
  /// loosen the user's bound (a larger Delta could admit staleness the
  /// configured spec forbids).
  using DeltaProvider = std::function<SimTime(SimTime configured)>;
  void set_delta_provider(DeltaProvider provider) {
    delta_provider_ = std::move(provider);
  }

  /// The Delta budget in force right now: the provider's clamped answer,
  /// or the configured Delta when no provider is set. Emits a delta.adapt
  /// trace event and bumps stats().delta_adaptations when the value moved
  /// by at least 1ms (or to/from a budget edge) since the last decision.
  SimTime effective_delta();

  /// Emit op/cache events to `tracer` (nullptr = off).
  void set_tracer(Tracer* tracer) { obs_ = tracer; }

 protected:
  /// The client's local clock reading (site time t_i, possibly skewed).
  SimTime local_time() const { return clock_->read(net_.now()); }

  void send_to_server(Message m, ObjectId object);
  void finish_read(Value value);
  void finish_write();
  bool read_pending() const { return static_cast<bool>(pending_read_); }

  /// Best-effort value for an abandoned read (no server reachable): the
  /// cached copy if any, however stale. Default: the initial value.
  virtual Value degraded_read_value(ObjectId object) const;

  /// One branch when tracing is off; op id = the client's op sequence.
  void trace(TraceEventType type, ObjectId object, std::int64_t a = 0,
             std::int64_t b = 0) {
    if (obs_ != nullptr) obs_->emit(type, net_.now(), self_, object, op_seq_, a, b);
  }

  // Protocol hooks.
  virtual void begin_read(ObjectId object) = 0;
  virtual void begin_write(ObjectId object, Value value) = 0;
  virtual void handle(const Message& message) = 0;

  Transport& net_;
  SiteId self_;
  SiteId server_;
  const PhysicalClockModel* clock_;
  SimTime delta_;
  bool mark_old_;
  MessageSizes sizes_;
  CacheStats stats_;
  Tracer* obs_ = nullptr;
  // Monotone per-client operation sequence, stamped on op.* trace events.
  std::uint64_t op_seq_ = 0;

 private:
  struct InFlightRpc {
    std::uint64_t id = 0;
    Message request;  // kept only while the retry layer may re-send it
    ObjectId object;
    SiteId target;
    int attempt = 1;
    int timeouts_at_target = 0;
  };

  void on_network_message(const Message& message);
  /// op_started_at_ = now, when a tracer or the retry layer will read it.
  void stamp_op_start();
  /// (Re)send rpc_'s request and arm its timeout; retry layer only.
  void transmit();
  void arm_timeout();
  void on_rpc_timeout();
  void abandon_op();
  SimTime timeout_for_attempt(int attempt);

  DeltaProvider delta_provider_;
  SimTime last_effective_delta_ = SimTime::infinity();  // last traced decision
  bool effective_delta_seen_ = false;

  std::function<SiteId(ObjectId)> route_;
  ReadCallback pending_read_;
  WriteCallback pending_write_;
  ObjectId pending_op_object_;

  RetryPolicy retry_;
  std::vector<SiteId> failover_;
  Rng rpc_rng_{0};
  std::optional<InFlightRpc> rpc_;
  std::uint64_t next_request_id_ = 0;
  SimTime op_started_at_ = SimTime::zero();  // see stamp_op_start()
  bool op_abandoned_ = false;
};

}  // namespace timedc
