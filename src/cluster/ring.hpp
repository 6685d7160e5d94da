// Consistent-hash ownership table for the partitioned object space
// (Section 5.1: "each object has a set of server sites ... a server which
// either has a copy or can obtain it").
//
// The ring maps every ObjectId to exactly one owning server site among the
// current members. Each member contributes kVnodes points so ownership
// spreads evenly and a membership change only remaps the slice of objects
// adjacent to the changed member's points, not the whole space. The table
// is versioned by an epoch that increments on every membership mutation;
// forwarding decisions made under a stale epoch are safe — the receiving
// server re-checks its own table and re-forwards, with the kForward hop
// counter bounding disagreement loops.
//
// Determinism matters more than hash quality here: timedc-load computes the
// same ring from the same member list to dispatch requests owner-aware, so
// owner_of must agree bit-for-bit across processes. splitmix64 is fixed and
// seedless for exactly that reason.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace timedc::cluster {

class HashRing {
 public:
  /// Virtual nodes per member. 64 keeps the worst member's share within a
  /// few percent of 1/N for the cluster sizes the wire caps (kMaxMembers).
  static constexpr std::size_t kVnodes = 64;

  bool empty() const { return points_.empty(); }
  std::size_t size() const { return members_.size(); }
  std::uint64_t epoch() const { return epoch_; }
  std::span<const SiteId> members() const { return members_; }

  /// Replace the member set wholesale (initial configuration). Bumps the
  /// epoch even when the set is identical: the caller asserted a new view.
  void set_members(std::span<const SiteId> members);

  /// Returns true (and bumps the epoch) when the member was not present.
  bool add_member(SiteId site);

  /// Returns true (and bumps the epoch) when the member was present.
  bool remove_member(SiteId site);

  /// The owning site for `object`: the first ring point at or clockwise
  /// after hash(object). Ring must not be empty. O(1) expected: the bucket
  /// of the hash's top bits names where the scan for that point starts.
  SiteId owner_of(ObjectId object) const;

 private:
  struct Point {
    std::uint64_t hash = 0;
    SiteId site;
  };

  void rebuild();

  std::vector<SiteId> members_;
  std::vector<Point> points_;  // sorted by hash
  /// bucket_start_[b]: index of the first point whose hash is at least
  /// b << bucket_shift_. At least as many buckets as points, so a bucket
  /// holds about one point and owner_of scans about one.
  std::vector<std::uint32_t> bucket_start_;
  unsigned bucket_shift_ = 64;
  std::uint64_t epoch_ = 0;
};

/// The fixed object/vnode hash the ring (and owner-aware dispatchers) use.
std::uint64_t ring_hash(std::uint64_t x);

}  // namespace timedc::cluster
