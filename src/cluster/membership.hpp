// Gossip-style cluster membership, piggybacked on supervision heartbeats.
//
// Every server keeps one MembershipTable. Its digest (epoch + one
// MemberEntry per known member) rides a kMembership frame next to each
// heartbeat the transport already sends; receivers merge with standard
// anti-entropy rules:
//
//   - a higher incarnation for a site always wins (a restarted process
//     announces a bigger incarnation, refuting any stale suspicion);
//   - at equal incarnation the worse status wins (dead > suspect > alive),
//     so suspicion spreads until the suspect refutes it;
//   - a node that hears itself reported suspect/dead bumps its own
//     incarnation (the SWIM refutation rule).
//
// The table's epoch is a version counter over the *alive set*: it advances
// whenever a merge or timeout changes which members count as alive, and
// merges also fast-forward it to the largest epoch seen, so epochs are
// monotone cluster-wide. The epoch versions the ownership table (see
// ring.hpp): two servers disagreeing on ownership are by construction at
// different epochs, and the kForward hop counter bounds the disagreement.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "net/wire.hpp"

namespace timedc::cluster {

struct Member {
  std::uint32_t site = 0;
  std::uint64_t incarnation = 0;
  std::uint8_t status = 0;  // 0 alive, 1 suspect, 2 dead (wire encoding)
  std::int64_t last_heard_us = 0;
};

class MembershipTable {
 public:
  static constexpr std::uint8_t kAlive = 0;
  static constexpr std::uint8_t kSuspect = 1;
  static constexpr std::uint8_t kDead = 2;

  MembershipTable(SiteId self, std::uint64_t self_incarnation);

  SiteId self() const { return self_; }
  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t self_incarnation() const { return self_incarnation_; }
  const std::vector<Member>& members() const { return members_; }
  std::size_t alive_count() const;

  /// Seed the table with statically configured peers (status alive). Does
  /// not bump the epoch: this is the configured baseline, not a change.
  void add_configured(SiteId site);

  /// Start the silence clock of every member never heard from at `now_us`
  /// (the node starts serving). Until then a member's clock is 0 and it is
  /// never suspected; after it, a configured member that dies before its
  /// first digest arrives is suspected like any other silent one.
  void start_silence_clocks(std::int64_t now_us);

  /// Direct evidence of life (a frame arrived from `site`). Clears any
  /// suspicion at the current incarnation. Returns true when the alive set
  /// changed (epoch bumped).
  bool heard_from(std::uint32_t site, std::int64_t now_us);

  /// Merge one received gossip digest. Returns true when the alive set
  /// changed (epoch bumped); the epoch also fast-forwards to at least
  /// `remote_epoch`.
  bool merge(std::uint64_t remote_epoch,
             std::span<const wire::MemberEntry> remote, std::int64_t now_us);

  /// Locally suspect members silent for longer than `timeout_us`. Returns
  /// true when the alive set changed (epoch bumped).
  bool suspect_silent(std::int64_t now_us, std::int64_t timeout_us);

  /// Promote suspects to dead once silent past `suspect_timeout_us +
  /// dead_grace_us`: suspicion alone never moves ownership (a paused or
  /// briefly partitioned member keeps its slice), only death past the grace
  /// does. Returns true when the serving set changed (epoch bumped).
  bool kill_silent(std::int64_t now_us, std::int64_t suspect_timeout_us,
                   std::int64_t dead_grace_us);

  /// Fill `out` (cleared, capacity reused) with the serving set — every
  /// member with status < kDead, self included — sorted by site id, so all
  /// servers that agree on the table build bit-identical rings from it.
  void serving_members(std::vector<std::uint32_t>& out) const;

  /// Fill `out` (cleared first, capacity reused) with this table's digest,
  /// capped at wire::kMaxMembers entries.
  void fill_digest(std::vector<wire::MemberEntry>& out) const;

 private:
  Member* find(std::uint32_t site);
  Member& ensure(std::uint32_t site, std::int64_t now_us);

  SiteId self_;
  std::uint64_t self_incarnation_;
  std::uint64_t epoch_ = 0;
  std::vector<Member> members_;
};

}  // namespace timedc::cluster
