#include "protocol/timed_serial_cache.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace timedc {

void TimedSerialCache::advance_context_for_timeliness(SimTime t) {
  const SimTime budget = effective_delta();
  if (budget.is_infinite()) return;  // plain SC: rule 3 disabled
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
    Entry* e = cache_.find(object.value);
    if (e == nullptr || e->old || !(e->omega < context_)) continue;
    if (mark_old_) {
      e->old = true;
      ++stats_.marked_old;
    } else {
      ++stats_.invalidations;
      cache_.erase(object.value);
    }
  }
}

void TimedSerialCache::index(ObjectId object, SimTime omega) {
  if (expiry_.size() >= 2 * cache_.size() + kExpirySlack) {
    // More superseded items than valid entries: rebuild from the table
    // (this entry included). Amortized O(1) per push; the vector's capacity
    // tracks the largest cache seen, so a warm cache allocates nothing here.
    // The table's order only permutes the heap's input: the sweep pops every
    // item below Context_i whatever the order, so no decision depends on it.
    expiry_.clear();
    for (const auto& [id, e] : cache_) {
      if (!e.old) expiry_.push_back(Expiry{e.omega, ObjectId{id}});
    }
    std::make_heap(expiry_.begin(), expiry_.end(), Expiry::later);
    return;
  }
  // A session's first item reserves room for the slack's worth at once,
  // instead of growing through 1, 2, 4, ... items.
  if (expiry_.capacity() == 0) expiry_.reserve(2 * kExpirySlack);
  expiry_.push_back(Expiry{omega, object});
  std::push_heap(expiry_.begin(), expiry_.end(), Expiry::later);
}

void TimedSerialCache::install(const ObjectCopy& copy) {
  cache_[copy.object.value] =
      Entry{copy.value, copy.alpha, copy.omega, copy.version, false};
  index(copy.object, copy.omega);
  raise_context(copy.alpha);  // rule 1
}

void TimedSerialCache::begin_read(ObjectId object) {
  advance_context_for_timeliness(local_time());
  const Entry* e = cache_.find(object.value);
  if (e != nullptr && !e->old) {
    ++stats_.cache_hits;
    trace(TraceEventType::kCacheHit, object);
    finish_read(e->value);
    return;
  }
  pending_object_ = object;
  if (e != nullptr) {
    ++stats_.validations;
    trace(TraceEventType::kCacheValidate, object);
    send_to_server(Message{ValidateRequest{object, e->version, self_}}, object);
  } else {
    ++stats_.cache_misses;
    trace(TraceEventType::kCacheMiss, object);
    send_to_server(Message{FetchRequest{object, self_}}, object);
  }
}

Value TimedSerialCache::degraded_read_value(ObjectId object) const {
  // No server reachable: serve the cached copy however stale (the caller
  // knows the op was abandoned), or the initial value cold.
  const Entry* e = cache_.find(object.value);
  return e == nullptr ? CacheClient::degraded_read_value(object) : e->value;
}

void TimedSerialCache::begin_write(ObjectId object, Value value) {
  // One clock read serves rules 3 and 2.
  const SimTime t = local_time();
  advance_context_for_timeliness(t);
  // Rule 2: the local copy starts (and is so far only known valid) at t.
  cache_[object.value] = Entry{value, t, t, /*version=*/0, false};
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
      Entry* e = cache_.find(reply->object.value);
      if (e == nullptr) {
        // A push invalidation raced past the validation on a non-FIFO
        // network; fall back to a full fetch.
        ++stats_.cache_misses;
        send_to_server(Message{FetchRequest{reply->object, self_}},
                     reply->object);
        return;
      }
      // The server vouched for the value at reply->copy.omega: extend the
      // lifetime and rehabilitate the entry.
      e->omega = reply->copy.omega;
      e->old = false;
      // The extended ending time may still trail Context_i (e.g. the reply
      // took long); re-check before serving.
      if (e->omega < context_) {
        // Entry is uselessly stale: drop and refetch.
        cache_.erase(reply->object.value);
        ++stats_.invalidations;
        ++stats_.cache_misses;
        send_to_server(Message{FetchRequest{reply->object, self_}},
                     reply->object);
        return;
      }
      index(reply->object, e->omega);
      if (read_pending() && reply->object == pending_object_) {
        finish_read(e->value);
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
    Entry* e = cache_.find(ack->object.value);
    if (e != nullptr && e->version == 0) e->version = ack->version;
    finish_write();
    return;
  }
  if (const auto* inv = std::get_if<Invalidate>(&message)) {
    const Entry* e = cache_.find(inv->object.value);
    if (e != nullptr && e->version < inv->version) {
      ++stats_.push_invalidations;
      cache_.erase(inv->object.value);
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
