#include "cluster/membership.hpp"

#include <algorithm>

namespace timedc::cluster {

MembershipTable::MembershipTable(SiteId self, std::uint64_t self_incarnation)
    : self_(self), self_incarnation_(self_incarnation) {
  members_.push_back(Member{self.value, self_incarnation_, kAlive, 0});
}

std::size_t MembershipTable::alive_count() const {
  return static_cast<std::size_t>(
      std::count_if(members_.begin(), members_.end(),
                    [](const Member& m) { return m.status == kAlive; }));
}

void MembershipTable::add_configured(SiteId site) {
  if (find(site.value) == nullptr) {
    members_.push_back(Member{site.value, 0, kAlive, 0});
  }
}

void MembershipTable::start_silence_clocks(std::int64_t now_us) {
  for (Member& m : members_) {
    if (m.site != self_.value && m.last_heard_us == 0) m.last_heard_us = now_us;
  }
}

Member* MembershipTable::find(std::uint32_t site) {
  for (Member& m : members_) {
    if (m.site == site) return &m;
  }
  return nullptr;
}

Member& MembershipTable::ensure(std::uint32_t site, std::int64_t now_us) {
  if (Member* m = find(site)) return *m;
  members_.push_back(Member{site, 0, kAlive, now_us});
  return members_.back();
}

bool MembershipTable::heard_from(std::uint32_t site, std::int64_t now_us) {
  Member& m = ensure(site, now_us);
  m.last_heard_us = now_us;
  if (m.status == kAlive) return false;
  // Direct contact beats gossip: the member is provably alive now, which
  // refutes suspicion at any incarnation we have recorded.
  m.status = kAlive;
  ++epoch_;
  return true;
}

bool MembershipTable::merge(std::uint64_t remote_epoch,
                            std::span<const wire::MemberEntry> remote,
                            std::int64_t now_us) {
  bool changed = false;
  for (const wire::MemberEntry& e : remote) {
    if (e.site == self_.value) {
      // SWIM refutation: someone thinks we are suspect/dead at an
      // incarnation that covers ours — outlive the rumor.
      if (e.status != kAlive && e.incarnation >= self_incarnation_) {
        self_incarnation_ = e.incarnation + 1;
        Member& me = ensure(self_.value, now_us);
        me.incarnation = self_incarnation_;
        me.status = kAlive;
        changed = true;
      }
      continue;
    }
    Member& m = ensure(e.site, now_us);
    const bool newer = e.incarnation > m.incarnation;
    const bool worse = e.incarnation == m.incarnation && e.status > m.status;
    if (!newer && !worse) continue;
    const bool was_alive = m.status == kAlive;
    const bool was_serving = m.status < kDead;
    m.incarnation = e.incarnation;
    m.status = e.status;
    if (e.status == kAlive) m.last_heard_us = now_us;
    // Both set boundaries version the epoch: alive-set changes (the
    // original gossip contract) and serving-set changes (suspect -> dead at
    // equal incarnation, which moves ownership and must rebuild the ring).
    if (was_alive != (m.status == kAlive)) changed = true;
    if (was_serving != (m.status < kDead)) changed = true;
  }
  if (remote_epoch > epoch_) {
    epoch_ = remote_epoch;
    // Fast-forward only; the +1 below still marks a genuine local change.
  }
  if (changed) ++epoch_;
  return changed;
}

bool MembershipTable::suspect_silent(std::int64_t now_us,
                                     std::int64_t timeout_us) {
  bool changed = false;
  for (Member& m : members_) {
    if (m.site == self_.value || m.status != kAlive) continue;
    if (m.last_heard_us != 0 && now_us - m.last_heard_us > timeout_us) {
      m.status = kSuspect;
      changed = true;
    }
  }
  if (changed) ++epoch_;
  return changed;
}

bool MembershipTable::kill_silent(std::int64_t now_us,
                                  std::int64_t suspect_timeout_us,
                                  std::int64_t dead_grace_us) {
  bool changed = false;
  for (Member& m : members_) {
    if (m.site == self_.value || m.status != kSuspect) continue;
    if (m.last_heard_us != 0 &&
        now_us - m.last_heard_us > suspect_timeout_us + dead_grace_us) {
      m.status = kDead;
      changed = true;
    }
  }
  if (changed) ++epoch_;
  return changed;
}

void MembershipTable::serving_members(std::vector<std::uint32_t>& out) const {
  out.clear();
  for (const Member& m : members_) {
    if (m.status < kDead) out.push_back(m.site);
  }
  std::sort(out.begin(), out.end());
}

void MembershipTable::fill_digest(std::vector<wire::MemberEntry>& out) const {
  out.clear();
  for (const Member& m : members_) {
    if (out.size() >= wire::kMaxMembers) break;
    wire::MemberEntry e;
    e.site = m.site;
    e.incarnation = m.site == self_.value ? self_incarnation_ : m.incarnation;
    e.status = m.status;
    out.push_back(e);
  }
}

}  // namespace timedc::cluster
