// The TSC lifetime cache (Sections 5.1 and 5.2).
//
// Each cached copy X_i carries its lifetime [alpha, omega]. The local
// Context_i keeps the latest start time of any value that has been in the
// cache, maintained by the paper's three rules:
//   1. install copy:        Context_i := max(X_i.alpha, Context_i)
//   2. local write at t:    Context_i := X_i.alpha := t
//   3. timeliness (TSC):    Context_i := max(t_i - Delta, Context_i)
// Any cached Y with Y.omega < Context_i is invalidated — or, under the
// mark-old optimization, demoted to "old" and revalidated with an
// if-modified-since round trip on next access (Section 5.2).
//
// Expiry is driven by an index of the valid entries ordered by omega, so a
// Context_i raise touches only the entries it expires (O(log n) each)
// instead of walking the whole cache; see DESIGN.md section 6.
//
// Delta = infinity disables rule 3 and yields the plain SC lifetime
// protocol of [39]; that degeneration is exercised in the tests.
#pragma once

#include <unordered_map>
#include <vector>

#include "protocol/client_base.hpp"

namespace timedc {

class TimedSerialCache final : public CacheClient {
 public:
  using CacheClient::CacheClient;

  /// An insertion that finds the expiry index at 2 * cached_entries() +
  /// kExpirySlack items rebuilds it from the valid entries instead, so it
  /// never exceeds twice the largest cache plus the slack.
  static constexpr std::size_t kExpirySlack = 32;

  /// Number of entries currently cached (valid or old).
  std::size_t cached_entries() const { return cache_.size(); }
  /// Items in the omega-ordered expiry index, superseded ones included.
  std::size_t expiry_index_size() const { return expiry_.size(); }
  SimTime context() const { return context_; }

 protected:
  void begin_read(ObjectId object) override;
  void begin_write(ObjectId object, Value value) override;
  void handle(const Message& message) override;
  Value degraded_read_value(ObjectId object) const override;

 private:
  struct Entry {
    Value value;
    SimTime alpha;
    SimTime omega;
    std::uint64_t version = 0;
    bool old = false;
  };

  /// One expiry-index item: `object` became valid with this omega. It is
  /// superseded, not removed, when the entry is later re-installed,
  /// rehabilitated, demoted or erased; the sweep re-checks the live entry.
  struct Expiry {
    SimTime omega;
    ObjectId object;
    /// Heap order of a min-heap on omega (std heaps keep the max in front).
    static bool later(const Expiry& a, const Expiry& b) {
      return b.omega < a.omega;
    }
  };

  /// Rule 3 + the invalidation sweep; called before serving any operation.
  void advance_context_for_timeliness();
  void raise_context(SimTime candidate);
  void sweep();
  void install(const ObjectCopy& copy);
  /// Index cache_[object], just set valid with `omega`.
  void index(ObjectId object, SimTime omega);

  std::unordered_map<ObjectId, Entry> cache_;
  std::vector<Expiry> expiry_;  // min-heap on omega
  SimTime context_ = SimTime::zero();
  ObjectId pending_object_;  // object of the in-flight fetch/validate
};

}  // namespace timedc
