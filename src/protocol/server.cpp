#include "protocol/server.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/stats_board.hpp"
#include "obs/trace.hpp"

namespace timedc {

void ObjectServer::trace(TraceEventType type, ObjectId object,
                         std::uint64_t op, std::int64_t a, std::int64_t b) {
  if (obs_ != nullptr) obs_->emit(type, net_.now(), self_, object, op, a, b);
}

ObjectServer::ObjectServer(Simulator& sim, Network& net, SiteId self,
                           std::size_t num_sites, PushPolicy push,
                           MessageSizes sizes, std::vector<SiteId> cluster,
                           ServerConfig config)
    : ObjectServer(static_cast<Transport&>(net), self, num_sites, push, sizes,
                   std::move(cluster), config) {
  (void)sim;  // the transport's clock IS this simulator's clock
}

ObjectServer::ObjectServer(Transport& net, SiteId self, std::size_t num_sites,
                           PushPolicy push, MessageSizes sizes,
                           std::vector<SiteId> cluster, ServerConfig config)
    : net_(net),
      self_(self),
      num_sites_(num_sites),
      push_(push),
      sizes_(sizes),
      cluster_(std::move(cluster)),
      config_(config) {
  if (!cluster_.empty()) {
    bool contains_self = false;
    for (SiteId s : cluster_) contains_self |= (s == self_);
    TIMEDC_ASSERT(contains_self && "cluster must include this server");
  }
}

SiteId ObjectServer::primary_of(ObjectId object) const {
  if (owner_fn_) return owner_fn_(object);
  if (cluster_.empty()) return self_;
  return cluster_[object.value % cluster_.size()];
}

bool ObjectServer::forward_if_not_owner(ObjectId object, const Message& m) {
  const SiteId owner = primary_of(object);
  if (owner == self_) return false;
  ++stats_.forwarded;
  trace(TraceEventType::kClusterForward, object, 0, owner.value, 0);
  if (flight_ != nullptr) {
    flight_->record(TraceEventType::kClusterForward, net_.now().as_micros(),
                    object, 0, owner.value, 0);
  }
  net_.send_message(self_, owner, m, sizes_.of(m));
  return true;
}

void ObjectServer::attach() {
  net_.register_site(self_, [this](SiteId from, const Message& m) {
    on_message(from, m);
  });
}

void ObjectServer::crash() {
  if (!up_) return;
  up_ = false;
  ++epoch_;
  ++stats_.crashes;
  trace(TraceEventType::kServerCrash, kNoObject);
  // Soft state dies with the process; durable object state and the write
  // dedup log survive (see the header).
  for (auto& [object, s] : objects_) {
    s.cachers.clear();
    s.leases.clear();
    s.write_pending = false;
  }
  // Requests deferred on leases were soft too: their scheduled
  // continuations check epoch_ and evaporate. The writer's retry layer
  // re-submits them.
  for (auto& [client, d] : write_dedup_) d.deferred_id = 0;
}

void ObjectServer::restart() {
  if (up_) return;
  up_ = true;
  ++stats_.restarts;
  if (config_.lease_duration > SimTime::zero()) {
    // Conservative lease recovery (Gray-Cheriton): every lease granted
    // before the crash expires by now + lease_duration, so deferring all
    // writes until then preserves the promise made to forgotten readers.
    lease_grace_until_ = net_.now() + config_.lease_duration;
  }
  trace(TraceEventType::kServerRestart, kNoObject, 0, 0,
        config_.lease_duration.as_micros());
}

void ObjectServer::restore_write(const WriteRequest& req,
                                 std::uint64_t version) {
  ++stats_.writes_restored;
  const bool accepted = version != 0;
  if (accepted) {
    Stored& s = stored(req.object);
    s.value = req.value;
    s.version = version;
    s.alpha = req.client_time;
    s.last_writer = req.reply_to.value;
    s.last_request_id = req.request_id;
    if (req.write_ts.num_entries() != 0) {
      s.alpha_l = req.write_ts;
      logical_now_ = logical_now_.num_entries() == 0
                         ? req.write_ts
                         : PlausibleTimestamp::merge_max(logical_now_,
                                                        req.write_ts);
    }
  }
  record_arrival(req.object, AppliedWrite{req.value, net_.now(), accepted});
  // Rebuild the dedup slot with the recorded ack, so a client whose ack was
  // lost in the crash gets the same answer when it retransmits.
  if (req.request_id != 0) {
    WriteDedup& d = write_dedup_[req.reply_to.value];
    if (req.request_id >= d.completed_id) {
      d.completed_id = req.request_id;
      d.ack = WriteAck{req.object, version, req.request_id};
    }
  }
}

void ObjectServer::arm_restart_grace() {
  if (config_.lease_duration == SimTime::zero()) return;
  lease_grace_until_ = net_.now() + config_.lease_duration;
}

void ObjectServer::begin_drain() {
  if (draining_) return;
  draining_ = true;
  ++stats_.drains;
  lease_grace_until_ = SimTime::zero();
  for (auto& [object, s] : objects_) {
    for (const auto& [client, expiry] : s.leases) {
      trace(TraceEventType::kLeaseExpire, object, 0, client, 0);
    }
    s.leases.clear();
  }
}

std::size_t ObjectServer::cacher_entries() const {
  std::size_t n = 0;
  for (const auto& [object, s] : objects_) n += s.cachers.size();
  return n;
}

ObjectServer::Stored& ObjectServer::stored(ObjectId object) {
  return objects_.try_emplace(object).first->second;
}

void ObjectServer::record_arrival(ObjectId object, AppliedWrite w) {
  if (config_.record_history) history_[object].push_back(w);
}

const std::vector<ObjectServer::AppliedWrite>& ObjectServer::applied_writes(
    ObjectId object) const {
  static const std::vector<AppliedWrite> kEmpty;
  const auto it = history_.find(object);
  return it == history_.end() ? kEmpty : it->second;
}

bool ObjectServer::reject_unsequenced(std::uint64_t request_id) {
  // Over a framed transport every legal request carries a client-stamped
  // id >= 1 (messages.hpp); id 0 is the raw in-process test convention and
  // must never be honored off the wire — the reliable-RPC dedup would have
  // no key for it.
  if (request_id != 0 || !net_.requires_sequenced_requests()) return false;
  ++stats_.rejected_unsequenced;
  return true;
}

void ObjectServer::on_message(SiteId from, const Message& msg) {
  (void)from;
  if (!up_) return;  // a crashed server is silent; clients retry elsewhere
  // A serve-here forward (a warming peer's forward-through) pins the
  // request to local state: re-checking ownership would bounce it straight
  // back and loop.
  const bool serve_local = net_.dispatch_serve_locally();
  if (const auto* fetch = std::get_if<FetchRequest>(&msg)) {
    if (reject_unsequenced(fetch->request_id)) return;
    if (!serve_local && primary_of(fetch->object) != self_) {
      // Peer-owned object: a fresh replica answers locally (no hop); a
      // miss forwards to the owner and primes the replica for next time.
      if (config_.cluster_replicas && serve_from_replica(*fetch)) return;
      forward_if_not_owner(fetch->object, msg);
      if (config_.cluster_replicas) refresh_replica(fetch->object);
      return;
    }
    if (!admit_read(fetch->object, fetch->reply_to, fetch->request_id)) return;
    if (warming_ && !serve_local && forward_warm_miss(fetch->object, msg)) {
      return;
    }
    handle_fetch(*fetch);
  } else if (const auto* write = std::get_if<WriteRequest>(&msg)) {
    if (reject_unsequenced(write->request_id)) return;
    if (!serve_local && forward_if_not_owner(write->object, msg)) return;
    handle_write(*write);
  } else if (const auto* validate = std::get_if<ValidateRequest>(&msg)) {
    if (reject_unsequenced(validate->request_id)) return;
    if (!serve_local && forward_if_not_owner(validate->object, msg)) return;
    if (!admit_read(validate->object, validate->reply_to,
                    validate->request_id)) {
      return;
    }
    if (warming_ && !serve_local &&
        forward_warm_miss(validate->object, msg)) {
      return;
    }
    handle_validate(*validate);
  } else if (const auto* inv = std::get_if<Invalidate>(&msg);
             inv != nullptr && config_.cluster_replicas) {
    handle_cluster_invalidate(*inv);
  } else if (const auto* push = std::get_if<PushUpdate>(&msg);
             push != nullptr && config_.cluster_replicas) {
    handle_cluster_push_update(*push);
  } else if (const auto* vrep = std::get_if<ValidateReply>(&msg);
             vrep != nullptr && config_.cluster_replicas) {
    handle_cluster_validate_reply(*vrep);
  } else {
    // A raw sim harness sending a reply-type message at a server is a test
    // bug; a framed peer doing so is just a misbehaving client.
    TIMEDC_ASSERT(net_.requires_sequenced_requests() &&
                  "unexpected message at server");
  }
}

bool ObjectServer::serve_from_replica(const FetchRequest& req) {
  const auto it = replicas_.find(req.object);
  if (it == replicas_.end()) return false;
  const Replica& r = it->second;
  if (r.old || r.copy.version == 0) return false;
  const SimTime now = net_.now();
  if (config_.replica_ttl > SimTime::zero() &&
      now > r.installed_at + config_.replica_ttl) {
    return false;
  }
  ++stats_.replica_hits;
  ObjectCopy copy = r.copy;
  // The subscription is the warrant: the owner pushes every accepted write
  // here (or marks the copy old), so an un-invalidated replica is the
  // owner's current value modulo one in-flight push — this server can
  // vouch for it "now" exactly as the owner would.
  copy.omega = now;
  copy.beta = now;
  if (stats_board_ != nullptr) {
    ++reads_served_;
    stats_board_->set(StatKey::kReadsServed,
                      static_cast<std::int64_t>(reads_served_));
    stats_board_->set(StatKey::kClusterReplicaHits,
                      static_cast<std::int64_t>(stats_.replica_hits));
    const std::int64_t staleness_us = (now - copy.alpha).as_micros();
    stats_board_->record_staleness(staleness_us);
  }
  send(req.reply_to, Message{FetchReply{copy, req.request_id}});
  return true;
}

void ObjectServer::refresh_replica(ObjectId object) {
  Replica& r = replicas_.try_emplace(object).first->second;
  const SiteId owner = primary_of(object);
  if (!r.subscribed && subscribe_sender_) {
    subscribe_sender_(owner, object, config_.cluster_push_mode);
    r.subscribed = true;
    ++stats_.subscribes_sent;
  }
  if (r.validate_inflight) return;
  r.validate_inflight = true;
  // If-modified-since: ask the owner whether our (possibly old) version is
  // still current; the reply installs or refreshes the replica either way.
  ++stats_.replica_validations;
  ValidateRequest v;
  v.object = object;
  v.version = r.copy.version;
  v.reply_to = self_;
  v.request_id = ++self_request_id_;
  net_.send_message(self_, owner, Message{v}, sizes_.of(Message{v}));
}

void ObjectServer::handle_cluster_invalidate(const Invalidate& inv) {
  Replica& r = replicas_.try_emplace(inv.object).first->second;
  // Mark-old, don't drop: the kept copy's version feeds the
  // if-modified-since validation the next fetch triggers.
  r.old = true;
}

void ObjectServer::handle_cluster_push_update(const PushUpdate& push) {
  Replica& r = replicas_.try_emplace(push.copy.object).first->second;
  r.copy = push.copy;
  r.old = false;
  r.installed_at = net_.now();
}

void ObjectServer::handle_cluster_validate_reply(const ValidateReply& rep) {
  Replica& r = replicas_.try_emplace(rep.object).first->second;
  r.validate_inflight = false;
  r.copy = rep.copy;
  r.old = false;
  r.installed_at = net_.now();
}

void ObjectServer::register_server_cacher(ObjectId object, SiteId cacher,
                                          std::uint8_t mode) {
  if (cacher == self_) return;
  server_cachers_[object][cacher.value] = mode;
}

void ObjectServer::push_server_cachers(const WriteRequest& req,
                                       const Stored& s, SimTime now) {
  const auto sc = server_cachers_.find(req.object);
  if (sc == server_cachers_.end()) return;
  for (const auto& [site, mode] : sc->second) {
    ++stats_.server_pushes;
    trace(TraceEventType::kClusterPush, req.object, req.request_id, site,
          mode);
    if (flight_ != nullptr) {
      flight_->record(TraceEventType::kClusterPush, now.as_micros(),
                      req.object, req.request_id, site, mode);
    }
    if (mode == 0) {
      send(SiteId{site}, Message{Invalidate{req.object, s.version}});
    } else {
      send(SiteId{site}, Message{PushUpdate{copy_of(req.object, s, now)}});
    }
  }
  if (stats_board_ != nullptr) {
    stats_board_->set(StatKey::kClusterPushes,
                      static_cast<std::int64_t>(stats_.server_pushes));
  }
}

SimTime ObjectServer::lease_horizon(Stored& s, ObjectId object,
                                    SiteId writer, SimTime now) {
  SimTime horizon = SimTime::zero();
  for (auto it = s.leases.begin(); it != s.leases.end();) {
    if (it->second <= now) {
      trace(TraceEventType::kLeaseExpire, object, 0, it->first,
            (now - it->second).as_micros());
      it = s.leases.erase(it);
      continue;
    }
    if (it->first != writer.value) horizon = max(horizon, it->second);
    ++it;
  }
  return horizon;
}

SimTime ObjectServer::grant_lease(Stored& s, ObjectId object, SiteId client,
                                  SimTime now) {
  if (config_.lease_duration == SimTime::zero() || s.write_pending ||
      draining_) {
    // A draining server makes no promises it cannot keep past shutdown.
    return SimTime::zero();
  }
  s.leases[client.value] = now + config_.lease_duration;
  trace(TraceEventType::kLeaseGrant, object, 0, client.value,
        config_.lease_duration.as_micros());
  return config_.lease_duration;
}

ObjectCopy ObjectServer::copy_of(ObjectId object, const Stored& s,
                                 SimTime now, SimTime lease_extension) const {
  ObjectCopy copy;
  copy.object = object;
  copy.value = s.value;
  copy.version = s.version;
  copy.alpha = s.alpha;
  // The server's current value is valid right now — and, when the caller
  // holds a lease, until the lease expires (writes are deferred past it).
  // beta is the instant the server vouched.
  copy.omega = now + lease_extension;
  copy.beta = now;
  copy.alpha_l = s.alpha_l;
  copy.omega_l = logical_now_;
  return copy;
}

void ObjectServer::handle_fetch(const FetchRequest& req) {
  ++stats_.fetches;
  const SimTime now = net_.now();
  Stored& s = stored(req.object);
  if (push_ != PushPolicy::kNone) s.cachers.insert(req.reply_to.value);
  const SimTime granted = grant_lease(s, req.object, req.reply_to, now);
  if (stats_board_ != nullptr) {
    // Definition-1 staleness of the copy this read observes: how old its
    // start time alpha is at serving time. A never-written object (alpha 0)
    // would report wall-clock age, which is noise, so it is skipped.
    ++reads_served_;
    stats_board_->set(StatKey::kReadsServed,
                      static_cast<std::int64_t>(reads_served_));
    if (s.version > 0) {
      const std::int64_t staleness_us = (now - s.alpha).as_micros();
      stats_board_->record_staleness(staleness_us);
      if (flight_ != nullptr &&
          (reads_served_ % kStalenessSamplePeriod) == 0) {
        flight_->record(TraceEventType::kReadStaleness, now.as_micros(),
                        req.object, req.request_id, /*a=*/0, staleness_us);
      }
    }
  }
  send(req.reply_to,
       Message{FetchReply{copy_of(req.object, s, now, granted),
                          req.request_id}});
}

void ObjectServer::handle_write(const WriteRequest& req) {
  WriteDedup* dedup = nullptr;
  if (req.request_id != 0) {
    WriteDedup& d = write_dedup_[req.reply_to.value];
    if (req.request_id == d.completed_id) {
      // Retransmission of an already-applied write: resend the stored ack
      // instead of applying twice (the original ack was lost or slow).
      ++stats_.duplicate_writes;
      send(req.reply_to, Message{d.ack});
      return;
    }
    if (req.request_id == d.deferred_id || req.request_id < d.completed_id) {
      // Already queued behind a lease (the deferral will ack when it
      // lands), or a stale retransmission of an op the client has since
      // abandoned and moved past: either way, don't apply again.
      ++stats_.duplicate_writes;
      return;
    }
    d.deferred_id = req.request_id;
    dedup = &d;
  }
  admit_or_defer_write(req, /*deferrals=*/0, dedup);
}

bool ObjectServer::admit_op(std::int64_t reserve_micro) {
  const std::int64_t now_us = net_.now().as_micros();
  const std::int64_t cap =
      static_cast<std::int64_t>(config_.admit_burst) * kAdmitOpCostMicro;
  if (now_us > admit_last_refill_us_) {
    // Integer refill: elapsed microseconds times ops-per-second IS
    // micro-tokens per microsecond, no division. The first call sees a huge
    // elapsed span and simply starts the bucket full (the cap).
    admit_tokens_micro_ = std::min(
        cap, admit_tokens_micro_ +
                 (now_us - admit_last_refill_us_) *
                     static_cast<std::int64_t>(config_.admit_rate_per_s));
    admit_last_refill_us_ = now_us;
  }
  if (admit_tokens_micro_ < kAdmitOpCostMicro + reserve_micro) return false;
  admit_tokens_micro_ -= kAdmitOpCostMicro;
  return true;
}

bool ObjectServer::admit_read(ObjectId object, SiteId client,
                              std::uint64_t request_id) {
  if (config_.admit_rate_per_s == 0) return true;  // gate disabled
  // The reserve is what sheds reads first: a quarter of the burst stays
  // earmarked for writes, so reads start bouncing while writes still flow.
  const std::int64_t reserve =
      static_cast<std::int64_t>(config_.admit_burst) * kAdmitOpCostMicro / 4;
  if (admit_op(reserve)) return true;
  ++stats_.admission_reads_shed;
  const std::int64_t deficit =
      kAdmitOpCostMicro + reserve - admit_tokens_micro_;
  std::int64_t retry_us =
      deficit / static_cast<std::int64_t>(config_.admit_rate_per_s);
  retry_us = std::clamp<std::int64_t>(retry_us, 1'000, 50'000);
  if (overloaded_sender_) {
    overloaded_sender_(client, object, request_id, retry_us);
    ++stats_.overloaded_replies;
  }
  if (stats_board_ != nullptr) {
    stats_board_->set(StatKey::kClusterReadsShed,
                      static_cast<std::int64_t>(stats_.admission_reads_shed));
    stats_board_->set(StatKey::kClusterOverloadedReplies,
                      static_cast<std::int64_t>(stats_.overloaded_replies));
  }
  return false;
}

void ObjectServer::admit_or_defer_write(const WriteRequest& req,
                                        std::uint32_t deferrals,
                                        WriteDedup* dedup) {
  if (config_.admit_rate_per_s != 0 && !admit_op(0) &&
      deferrals < config_.admit_max_write_deferrals) {
    // Out of tokens: delay the write until the bucket refills one op's
    // worth. The deferral budget is bounded — once exhausted the write
    // applies anyway, because admission must never drop a write (the
    // client's value would be lost while its retry re-sends the same
    // request_id, which dedup would then swallow).
    ++stats_.admission_writes_deferred;
    if (stats_board_ != nullptr) {
      stats_board_->set(
          StatKey::kClusterWritesDeferred,
          static_cast<std::int64_t>(stats_.admission_writes_deferred));
    }
    std::int64_t delay_us =
        (kAdmitOpCostMicro - admit_tokens_micro_) /
        static_cast<std::int64_t>(config_.admit_rate_per_s);
    delay_us = std::clamp<std::int64_t>(delay_us, 1'000, 50'000);
    const WriteRequest deferred = req;
    const std::uint64_t epoch = epoch_;
    net_.run_after(SimTime::micros(delay_us),
                   [this, deferred, epoch, deferrals] {
                     if (epoch != epoch_ || !up_) return;
                     admit_or_defer_write(deferred, deferrals + 1, nullptr);
                   });
    return;
  }
  defer_or_apply(req, dedup);
}

bool ObjectServer::forward_warm_miss(ObjectId object, const Message& m) {
  if (!warm_miss_forwarder_) return false;
  const auto it = objects_.find(object);
  if (it != objects_.end() && it->second.version > 0) return false;
  // Cold: no write has ever landed here (neither live traffic nor sync nor
  // WAL replay). The previous owner may hold the value — let it answer.
  if (!warm_miss_forwarder_(object, m)) return false;
  ++stats_.warm_forwards;
  return true;
}

bool ObjectServer::collect_slice(SiteId requester, std::uint32_t cursor,
                                 std::uint32_t max_records,
                                 std::int64_t if_newer_than_us,
                                 std::vector<wire::SliceRecord>& out,
                                 std::uint32_t& next_cursor) {
  out.clear();
  slice_ids_.clear();
  for (const auto& [object, s] : objects_) {
    if (s.version == 0) continue;       // never written: nothing to stream
    if (object.value < cursor) continue;  // already streamed (resumable)
    if (s.alpha.as_micros() <= if_newer_than_us) continue;
    // The requester's slice under the donor's CURRENT ring — the donor
    // keeps everything else (its own slice, or a third server's).
    if (primary_of(object) != requester) continue;
    slice_ids_.push_back(object.value);
  }
  std::sort(slice_ids_.begin(), slice_ids_.end());
  const std::size_t n =
      std::min<std::size_t>(slice_ids_.size(), max_records);
  for (std::size_t i = 0; i < n; ++i) {
    const Stored& s = objects_.at(ObjectId{slice_ids_[i]});
    wire::SliceRecord rec;
    rec.object = slice_ids_[i];
    rec.value = s.value.value;
    rec.version = s.version;
    rec.alpha_us = s.alpha.as_micros();
    rec.writer = s.last_writer;
    rec.request_id = s.last_request_id;
    out.push_back(rec);
  }
  const bool done = n == slice_ids_.size();
  next_cursor = n == 0 ? cursor : slice_ids_[n - 1] + 1;
  return done;
}

bool ObjectServer::install_sync_record(const wire::SliceRecord& rec) {
  const ObjectId object{rec.object};
  Stored& s = stored(object);
  const SimTime alpha = SimTime::micros(rec.alpha_us);
  const bool install = s.version == 0 || alpha > s.alpha;
  if (install) {
    s.value = Value{rec.value};
    // Keep the local version counter monotone: a write that already landed
    // here during warming must not see the version go backwards.
    s.version = std::max<std::uint64_t>(rec.version, s.version + 1);
    s.alpha = alpha;
    s.last_writer = rec.writer;
    s.last_request_id = rec.request_id;
    record_arrival(object, AppliedWrite{s.value, net_.now()});
    ++stats_.slices_synced;
    if (stats_board_ != nullptr) {
      stats_board_->set(StatKey::kClusterSlicesSynced,
                        static_cast<std::int64_t>(stats_.slices_synced));
    }
  }
  // Dedup transfers even when the local copy is newer: the record proves
  // the old owner applied (writer, request_id), so a client retransmission
  // must re-ack with the recorded version, never apply a second time.
  if (rec.request_id != 0) {
    WriteDedup& d = write_dedup_[rec.writer];
    if (rec.request_id >= d.completed_id) {
      d.completed_id = rec.request_id;
      d.ack = WriteAck{object, rec.version, rec.request_id};
    }
  }
  return install;
}

void ObjectServer::defer_or_apply(const WriteRequest& req, WriteDedup* dedup) {
  const SimTime now = net_.now();
  Stored& s = stored(req.object);
  // Gray-Cheriton: while another client holds a live lease on this object,
  // the write waits — readers were promised the current value until their
  // lease expires. The writer's own lease never blocks it. After a restart
  // the grace window stands in for every forgotten lease.
  const SimTime horizon =
      max(lease_horizon(s, req.object, req.reply_to, now), lease_grace_until_);
  if (horizon > now) {
    ++stats_.writes_deferred;
    trace(TraceEventType::kWriteDefer, req.object, req.request_id,
          req.reply_to.value, (horizon - now).as_micros());
    s.write_pending = true;  // freeze lease grants until this write lands
    const WriteRequest deferred = req;
    const std::uint64_t epoch = epoch_;
    net_.run_after(horizon - now, [this, deferred, epoch] {
      // The deferral was soft state: a crash in the meantime voids it.
      if (epoch != epoch_ || !up_) return;
      defer_or_apply(deferred, nullptr);
    });
    return;
  }
  s.write_pending = false;
  apply_write(req, s, now, dedup);
}

void ObjectServer::apply_write(const WriteRequest& req, Stored& s,
                               SimTime now, WriteDedup* dedup) {
  const SiteId from = req.reply_to;
  // Last-writer-wins on the start time alpha: a racing write whose
  // effective time is older than the stored value's never becomes current
  // (otherwise the object's value history would contradict the lifetime
  // order and no Delta could make reads look on time). Arrival order breaks
  // exact ties.
  if (s.version > 0 && req.client_time < s.alpha) {
    record_arrival(req.object,
                   AppliedWrite{req.value, now, /*accepted=*/false});
    trace(TraceEventType::kWriteApply, req.object, req.request_id,
          req.value.value, 0);
    // Version 0 in the ack marks the write as superseded: the writer's
    // provisional cache entry keeps version 0 and will fail validation,
    // fetching the winning value instead.
    const WriteAck ack{req.object, 0, req.request_id};
    if (write_log_) write_log_(req, 0);  // durable before the ack leaves
    record_completed(req, ack, dedup);
    send(from, Message{ack});
    return;
  }
  ++stats_.writes_applied;
  s.value = req.value;
  s.version += 1;
  s.alpha = req.client_time;
  s.last_writer = req.reply_to.value;
  s.last_request_id = req.request_id;
  if (req.write_ts.num_entries() != 0) {
    s.alpha_l = req.write_ts;
    logical_now_ = logical_now_.num_entries() == 0
                       ? req.write_ts
                       : PlausibleTimestamp::merge_max(logical_now_, req.write_ts);
  }
  record_arrival(req.object, AppliedWrite{req.value, now});
  trace(TraceEventType::kWriteApply, req.object, req.request_id,
        req.value.value, 1);
  const WriteAck ack{req.object, s.version, req.request_id};
  if (write_log_) write_log_(req, s.version);  // durable before the ack leaves
  record_completed(req, ack, dedup);
  send(from, Message{ack});

  // Peer-server cachers are pushed on every accepted write, independent of
  // the client push policy: the replica protocol is what lets them serve
  // fetches without a hop.
  push_server_cachers(req, s, now);
  if (push_ == PushPolicy::kNone) return;
  for (const std::uint32_t cacher : s.cachers) {
    if (cacher == from.value) continue;
    ++stats_.pushes;
    if (push_ == PushPolicy::kInvalidate) {
      trace(TraceEventType::kPushInvalidate, req.object, 0, cacher);
      send(SiteId{cacher}, Message{Invalidate{req.object, s.version}});
    } else {
      trace(TraceEventType::kPushUpdate, req.object, 0, cacher);
      send(SiteId{cacher}, Message{PushUpdate{copy_of(req.object, s, now)}});
    }
  }
}

void ObjectServer::record_completed(const WriteRequest& req,
                                    const WriteAck& ack, WriteDedup* dedup) {
  if (req.request_id == 0) return;
  WriteDedup& d = dedup != nullptr ? *dedup : write_dedup_[req.reply_to.value];
  if (req.request_id >= d.completed_id) {
    d.completed_id = req.request_id;
    d.ack = ack;
  }
  if (d.deferred_id == req.request_id) d.deferred_id = 0;
}

void ObjectServer::handle_validate(const ValidateRequest& req) {
  const SiteId from = req.reply_to;
  ++stats_.validations;
  const SimTime now = net_.now();
  Stored& s = stored(req.object);
  if (push_ != PushPolicy::kNone) s.cachers.insert(from.value);
  const SimTime granted = grant_lease(s, req.object, from, now);
  ValidateReply reply;
  reply.object = req.object;
  reply.still_valid = (s.version == req.version);
  reply.copy = copy_of(req.object, s, now, granted);
  reply.request_id = req.request_id;
  if (reply.still_valid) ++stats_.validations_ok;
  send(from, Message{reply});
}

void ObjectServer::send(SiteId to, Message m) {
  const std::size_t bytes = sizes_.of(m);
  net_.send_message(self_, to, std::move(m), bytes);
}

}  // namespace timedc
