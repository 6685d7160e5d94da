#include "protocol/timed_serial_cache.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace timedc {

void TimedSerialCache::advance_context_for_timeliness() {
  const SimTime budget = effective_delta();
  if (budget.is_infinite()) return;  // plain SC: rule 3 disabled
  const SimTime t = local_time();
  raise_context(t - budget);
}

void TimedSerialCache::raise_context(SimTime candidate) {
  if (candidate > context_) {
    context_ = candidate;
    sweep();
  }
}

void TimedSerialCache::sweep() {
  // Every valid entry has an index item carrying its current omega, so
  // popping the items below Context_i reaches exactly the entries the full
  // walk would expire. The predicate is re-checked on the live entry:
  // superseded items find it re-installed, old or gone and are dropped.
  while (!expiry_.empty() && expiry_.front().omega < context_) {
    const ObjectId object = expiry_.front().object;
    std::pop_heap(expiry_.begin(), expiry_.end(), Expiry::later);
    expiry_.pop_back();
    const auto it = cache_.find(object);
    if (it == cache_.end()) continue;
    Entry& e = it->second;
    if (e.old || !(e.omega < context_)) continue;
    if (mark_old_) {
      e.old = true;
      ++stats_.marked_old;
    } else {
      ++stats_.invalidations;
      cache_.erase(it);
    }
  }
}

void TimedSerialCache::index(ObjectId object, SimTime omega) {
  if (expiry_.size() >= 2 * cache_.size() + kExpirySlack) {
    // More superseded items than valid entries: rebuild from the map (this
    // entry included). Amortized O(1) per push; the vector's capacity tracks
    // the largest cache seen, so a warm cache allocates nothing here.
    expiry_.clear();
    for (const auto& [id, e] : cache_) {
      if (!e.old) expiry_.push_back(Expiry{e.omega, id});
    }
    std::make_heap(expiry_.begin(), expiry_.end(), Expiry::later);
    return;
  }
  expiry_.push_back(Expiry{omega, object});
  std::push_heap(expiry_.begin(), expiry_.end(), Expiry::later);
}

void TimedSerialCache::install(const ObjectCopy& copy) {
  cache_[copy.object] =
      Entry{copy.value, copy.alpha, copy.omega, copy.version, false};
  index(copy.object, copy.omega);
  raise_context(copy.alpha);  // rule 1
}

void TimedSerialCache::begin_read(ObjectId object) {
  advance_context_for_timeliness();
  const auto it = cache_.find(object);
  if (it != cache_.end() && !it->second.old) {
    ++stats_.cache_hits;
    trace(TraceEventType::kCacheHit, object);
    finish_read(it->second.value);
    return;
  }
  pending_object_ = object;
  if (it != cache_.end()) {
    ++stats_.validations;
    trace(TraceEventType::kCacheValidate, object);
    send_to_server(Message{ValidateRequest{object, it->second.version, self_}},
                   object);
  } else {
    ++stats_.cache_misses;
    trace(TraceEventType::kCacheMiss, object);
    send_to_server(Message{FetchRequest{object, self_}}, object);
  }
}

Value TimedSerialCache::degraded_read_value(ObjectId object) const {
  // No server reachable: serve the cached copy however stale (the caller
  // knows the op was abandoned), or the initial value cold.
  const auto it = cache_.find(object);
  return it == cache_.end() ? CacheClient::degraded_read_value(object)
                            : it->second.value;
}

void TimedSerialCache::begin_write(ObjectId object, Value value) {
  advance_context_for_timeliness();
  const SimTime t = local_time();
  // Rule 2: the local copy starts (and is so far only known valid) at t.
  cache_[object] = Entry{value, t, t, /*version=*/0, false};
  index(object, t);
  raise_context(t);
  send_to_server(Message{WriteRequest{object, value, t, PlausibleTimestamp{}, self_}},
                 object);
}

void TimedSerialCache::handle(const Message& message) {
  if (const auto* reply = std::get_if<FetchReply>(&message)) {
    install(reply->copy);
    if (read_pending() && reply->copy.object == pending_object_) {
      finish_read(reply->copy.value);
    }
    return;
  }
  if (const auto* reply = std::get_if<ValidateReply>(&message)) {
    if (reply->still_valid) {
      ++stats_.validations_ok;
      auto it = cache_.find(reply->object);
      if (it == cache_.end()) {
        // A push invalidation raced past the validation on a non-FIFO
        // network; fall back to a full fetch.
        ++stats_.cache_misses;
        send_to_server(Message{FetchRequest{reply->object, self_}},
                     reply->object);
        return;
      }
      // The server vouched for the value at reply->copy.omega: extend the
      // lifetime and rehabilitate the entry.
      it->second.omega = reply->copy.omega;
      it->second.old = false;
      // The extended ending time may still trail Context_i (e.g. the reply
      // took long); re-check before serving.
      if (it->second.omega < context_) {
        // Entry is uselessly stale: drop and refetch.
        cache_.erase(it);
        ++stats_.invalidations;
        ++stats_.cache_misses;
        send_to_server(Message{FetchRequest{reply->object, self_}},
                     reply->object);
        return;
      }
      index(reply->object, it->second.omega);
      if (read_pending() && reply->object == pending_object_) {
        finish_read(it->second.value);
      }
    } else {
      install(reply->copy);
      if (read_pending() && reply->object == pending_object_) {
        finish_read(reply->copy.value);
      }
    }
    return;
  }
  if (const auto* ack = std::get_if<WriteAck>(&message)) {
    auto it = cache_.find(ack->object);
    if (it != cache_.end() && it->second.version == 0) {
      it->second.version = ack->version;
    }
    finish_write();
    return;
  }
  if (const auto* inv = std::get_if<Invalidate>(&message)) {
    auto it = cache_.find(inv->object);
    if (it != cache_.end() && it->second.version < inv->version) {
      ++stats_.push_invalidations;
      cache_.erase(it);
    }
    return;
  }
  if (const auto* push = std::get_if<PushUpdate>(&message)) {
    ++stats_.push_updates;
    install(push->copy);
    return;
  }
  TIMEDC_ASSERT(false && "unexpected message at client");
}

}  // namespace timedc
