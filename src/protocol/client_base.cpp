#include "protocol/client_base.hpp"

#include "common/assert.hpp"
#include "core/history.hpp"

namespace timedc {
namespace {

/// The request id embedded in a request message (0 for non-requests).
void stamp_request_id(Message& m, std::uint64_t id) {
  if (auto* fetch = std::get_if<FetchRequest>(&m)) {
    fetch->request_id = id;
  } else if (auto* write = std::get_if<WriteRequest>(&m)) {
    write->request_id = id;
  } else if (auto* validate = std::get_if<ValidateRequest>(&m)) {
    validate->request_id = id;
  }
}

/// The echoed request id if `m` is a reply, nullopt otherwise (pushes and
/// invalidations are unsolicited).
std::optional<std::uint64_t> reply_request_id(const Message& m) {
  if (const auto* reply = std::get_if<FetchReply>(&m)) return reply->request_id;
  if (const auto* reply = std::get_if<ValidateReply>(&m)) {
    return reply->request_id;
  }
  if (const auto* ack = std::get_if<WriteAck>(&m)) return ack->request_id;
  return std::nullopt;
}

}  // namespace

CacheClient::CacheClient(Transport& net, SiteId self, SiteId server,
                         const PhysicalClockModel* clock, SimTime delta,
                         bool mark_old, MessageSizes sizes)
    : net_(net),
      self_(self),
      server_(server),
      clock_(clock),
      delta_(delta),
      mark_old_(mark_old),
      sizes_(sizes) {
  TIMEDC_ASSERT(clock != nullptr);
}

CacheClient::CacheClient(Simulator& sim, Network& net, SiteId self,
                         SiteId server, const PhysicalClockModel* clock,
                         SimTime delta, bool mark_old, MessageSizes sizes)
    : CacheClient(static_cast<Transport&>(net), self, server, clock, delta,
                  mark_old, sizes) {
  (void)sim;  // the transport's clock IS this simulator's clock
}

void CacheClient::configure_reliability(RetryPolicy policy,
                                        std::vector<SiteId> failover_servers,
                                        std::uint64_t rpc_seed) {
  retry_ = policy;
  failover_ = std::move(failover_servers);
  rpc_rng_ = Rng(rpc_seed);
}

SimTime CacheClient::effective_delta() {
  if (!delta_provider_) return delta_;
  SimTime effective = delta_provider_(delta_);
  // Tighten-only clamp: adaptation may shed over-waiting, never loosen the
  // configured bound, and the budget floors at zero (no negative waits even
  // when the measured epsilon exceeds Delta).
  if (effective < SimTime::zero()) effective = SimTime::zero();
  if (effective > delta_) effective = delta_;
  // The bound drifts every microsecond (epsilon grows between resyncs);
  // only decisions that moved at least 1ms are adaptation events.
  const SimTime moved = effective > last_effective_delta_
                            ? effective - last_effective_delta_
                            : last_effective_delta_ - effective;
  if (!effective_delta_seen_ || moved >= SimTime::millis(1)) {
    effective_delta_seen_ = true;
    last_effective_delta_ = effective;
    ++stats_.delta_adaptations;
    trace(TraceEventType::kDeltaAdapt, kNoObject, effective.as_micros(),
          (delta_ - effective).as_micros());
  }
  return effective;
}

void CacheClient::attach() {
  net_.register_site(self_, [this](SiteId, const Message& m) {
    on_network_message(m);
  });
}

void CacheClient::on_network_message(const Message& message) {
  const auto rid = reply_request_id(message);
  if (rid.has_value()) {
    // A reply matches the outstanding RPC or is a duplicate: a second copy
    // of an already-consumed reply (network duplication), a slow reply
    // overtaken by a retransmission's, or a reply to an abandoned request.
    if (!rpc_ || rpc_->id != *rid) {
      ++stats_.duplicate_replies;
      return;
    }
    rpc_.reset();
  }
  handle(message);
}

void CacheClient::read(ObjectId object, ReadCallback done) {
  TIMEDC_ASSERT(!pending_read_ && !pending_write_);
  ++stats_.reads;
  pending_read_ = std::move(done);
  pending_op_object_ = object;
  stamp_op_start();
  op_abandoned_ = false;
  ++op_seq_;
  trace(TraceEventType::kOpIssue, object, 0);
  begin_read(object);
}

void CacheClient::write(ObjectId object, Value value, WriteCallback done) {
  TIMEDC_ASSERT(!pending_read_ && !pending_write_);
  ++stats_.writes;
  pending_write_ = std::move(done);
  pending_op_object_ = object;
  stamp_op_start();
  op_abandoned_ = false;
  ++op_seq_;
  trace(TraceEventType::kOpIssue, object, 1);
  begin_write(object, value);
}

void CacheClient::stamp_op_start() {
  // Only the op.reply/op.abandon trace events and the retry layer's
  // unavailability ledger read the start; without them the clock read is
  // waste on every op.
  if (obs_ != nullptr || retry_.enabled()) op_started_at_ = net_.now();
}

void CacheClient::send_to_server(Message m, ObjectId object) {
  const SiteId target = route_ ? route_(object) : server_;
  stamp_request_id(m, ++next_request_id_);
  if (!retry_.enabled()) {
    // Sent once and never again: the transport takes the request itself,
    // and the in-flight record keeps only what reply matching reads.
    rpc_ = InFlightRpc{next_request_id_, Message{}, object, target};
    const std::size_t bytes = sizes_.of(m);
    net_.send_message(self_, target, std::move(m), bytes);
    return;
  }
  rpc_ = InFlightRpc{next_request_id_, std::move(m), object, target};
  transmit();
}

void CacheClient::transmit() {
  // Transport-generic failover: when the transport has positive evidence
  // the target is unreachable (a supervised TCP peer gone DEAD), rotate to
  // a reachable replica *before* burning a timeout on it. The sim Network
  // always reports reachable, so sim behaviour is unchanged — there the
  // timeout path below does the rotating.
  if (failover_.size() > 1 && !net_.peer_reachable(rpc_->target)) {
    std::size_t at = 0;
    for (std::size_t i = 0; i < failover_.size(); ++i) {
      if (failover_[i] == rpc_->target) at = i;
    }
    for (std::size_t step = 1; step < failover_.size(); ++step) {
      const SiteId candidate = failover_[(at + step) % failover_.size()];
      if (net_.peer_reachable(candidate)) {
        rpc_->target = candidate;
        rpc_->timeouts_at_target = 0;
        ++stats_.failovers;
        break;
      }
    }
    // All replicas unreachable: keep the current target and let the
    // timeout/abandonment path decide.
  }
  net_.send_message(self_, rpc_->target, rpc_->request,
                    sizes_.of(rpc_->request));
  arm_timeout();
}

SimTime CacheClient::timeout_for_attempt(int attempt) {
  SimTime base = retry_.base_timeout;
  if (base == SimTime::zero()) {
    const SimTime one_way = net_.latency_upper_bound();
    // Request hop + possible forward hop + reply hop, plus server-side
    // slack. An unbounded latency model cannot be budgeted; fall back to a
    // generous constant.
    base = one_way.is_infinite() ? SimTime::millis(10)
                                 : one_way * 3 + SimTime::millis(1);
  }
  double scale = 1.0;
  for (int k = 1; k < attempt; ++k) scale *= retry_.backoff;
  std::int64_t micros =
      static_cast<std::int64_t>(static_cast<double>(base.as_micros()) * scale);
  if (retry_.jitter > 0) {
    const std::int64_t span = static_cast<std::int64_t>(
        static_cast<double>(micros) * retry_.jitter);
    if (span > 0) micros += rpc_rng_.uniform_int(0, span);
  }
  return SimTime::micros(micros);
}

void CacheClient::arm_timeout() {
  const std::uint64_t id = rpc_->id;
  const int attempt = rpc_->attempt;
  net_.run_after(timeout_for_attempt(attempt), [this, id, attempt] {
    if (rpc_ && rpc_->id == id && rpc_->attempt == attempt) on_rpc_timeout();
  });
}

void CacheClient::on_rpc_timeout() {
  if (rpc_->attempt >= retry_.max_attempts) {
    abandon_op();
    return;
  }
  ++stats_.retries;
  ++rpc_->attempt;
  ++rpc_->timeouts_at_target;
  if (rpc_->timeouts_at_target >= retry_.failover_after &&
      failover_.size() > 1) {
    // Rotate to the next cluster server; a non-owner forwards to the owner,
    // so this helps when the *path* to the primary is the problem (and
    // keeps probing distinct servers under a partition).
    std::size_t at = 0;
    for (std::size_t i = 0; i < failover_.size(); ++i) {
      if (failover_[i] == rpc_->target) at = i;
    }
    rpc_->target = failover_[(at + 1) % failover_.size()];
    rpc_->timeouts_at_target = 0;
    ++stats_.failovers;
  }
  trace(TraceEventType::kOpRetry, rpc_->object, rpc_->attempt,
        rpc_->target.value);
  transmit();
}

void CacheClient::abandon_op() {
  ++stats_.ops_abandoned;
  stats_.unavailable_us +=
      static_cast<std::uint64_t>((net_.now() - op_started_at_).as_micros());
  op_abandoned_ = true;
  trace(TraceEventType::kOpAbandon, pending_op_object_, 0,
        (net_.now() - op_started_at_).as_micros());
  rpc_.reset();
  if (pending_read_) {
    finish_read(degraded_read_value(pending_op_object_));
  } else if (pending_write_) {
    finish_write();
  }
}

Value CacheClient::degraded_read_value(ObjectId) const { return kInitialValue; }

void CacheClient::finish_read(Value value) {
  TIMEDC_ASSERT(pending_read_);
  const SimTime now = net_.now();
  if (obs_ != nullptr) {
    trace(TraceEventType::kOpReply, pending_op_object_, 0,
          (now - op_started_at_).as_micros());
  }
  ReadCallback cb = std::move(pending_read_);
  pending_read_ = nullptr;
  cb(value, now);
}

void CacheClient::finish_write() {
  TIMEDC_ASSERT(pending_write_);
  const SimTime now = net_.now();
  if (obs_ != nullptr) {
    trace(TraceEventType::kOpReply, pending_op_object_, 1,
          (now - op_started_at_).as_micros());
  }
  WriteCallback cb = std::move(pending_write_);
  pending_write_ = nullptr;
  cb(now);
}

}  // namespace timedc
