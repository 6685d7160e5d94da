// Unit tests for the cluster substrate: the consistent-hash ownership
// ring (cluster/ring.hpp) and the gossip membership table
// (cluster/membership.hpp).
//
// The ring's load-bearing property is DETERMINISM: timedc-load builds the
// same ring from the same member list to dispatch requests owner-aware, so
// owner_of must agree bit-for-bit across processes — no seeds, no
// iteration-order dependence. The membership table's properties are the
// SWIM anti-entropy rules: higher incarnation wins, worse status wins at
// equal incarnation, self-refutation bumps the incarnation, and the epoch
// is a monotone version counter over the alive set.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "cluster/membership.hpp"
#include "cluster/ring.hpp"
#include "common/rng.hpp"

namespace timedc {
namespace {

using cluster::HashRing;
using cluster::MembershipTable;

std::vector<SiteId> sites(std::initializer_list<std::uint32_t> ids) {
  std::vector<SiteId> out;
  for (const std::uint32_t id : ids) out.push_back(SiteId{id});
  return out;
}

TEST(HashRingTest, TwoIndependentlyBuiltRingsAgreeOnEveryObject) {
  HashRing a;
  HashRing b;
  a.set_members(sites({0, 1, 2}));
  // b adds the same members one at a time, in a different order: the
  // resulting ownership must still be identical (timedc-load vs server).
  b.set_members(sites({2}));
  b.add_member(SiteId{0});
  b.add_member(SiteId{1});
  for (std::uint32_t o = 0; o < 4096; ++o) {
    EXPECT_EQ(a.owner_of(ObjectId{o}), b.owner_of(ObjectId{o})) << o;
  }
}

TEST(HashRingTest, OwnershipSpreadsAcrossMembers) {
  HashRing ring;
  ring.set_members(sites({0, 1, 2, 3}));
  std::map<std::uint32_t, std::size_t> share;
  constexpr std::uint32_t kObjects = 20000;
  for (std::uint32_t o = 0; o < kObjects; ++o) {
    ++share[ring.owner_of(ObjectId{o}).value];
  }
  ASSERT_EQ(share.size(), 4u);  // every member owns something
  for (const auto& [site, n] : share) {
    // With 64 vnodes each the worst share stays well inside 2x fair.
    EXPECT_GT(n, kObjects / 8) << "site " << site;
    EXPECT_LT(n, kObjects / 2) << "site " << site;
  }
}

TEST(HashRingTest, MembershipChangeOnlyRemapsTheChangedSlice) {
  HashRing before;
  before.set_members(sites({0, 1, 2, 3}));
  HashRing after;
  after.set_members(sites({0, 1, 2}));
  constexpr std::uint32_t kObjects = 20000;
  std::uint32_t moved = 0;
  for (std::uint32_t o = 0; o < kObjects; ++o) {
    const SiteId owner = before.owner_of(ObjectId{o});
    if (owner.value == 3) {
      // Everything the removed member owned must move...
      EXPECT_NE(after.owner_of(ObjectId{o}).value, 3u);
    } else if (after.owner_of(ObjectId{o}) != owner) {
      // ...and nothing else may.
      ++moved;
    }
  }
  EXPECT_EQ(moved, 0u);
}

TEST(HashRingTest, EpochAdvancesOnEveryMutation) {
  HashRing ring;
  const std::uint64_t e0 = ring.epoch();
  ring.set_members(sites({0, 1}));
  EXPECT_GT(ring.epoch(), e0);
  const std::uint64_t e1 = ring.epoch();
  EXPECT_TRUE(ring.add_member(SiteId{2}));
  EXPECT_GT(ring.epoch(), e1);
  const std::uint64_t e2 = ring.epoch();
  EXPECT_FALSE(ring.add_member(SiteId{2}));  // no-op, no bump
  EXPECT_EQ(ring.epoch(), e2);
  EXPECT_TRUE(ring.remove_member(SiteId{2}));
  EXPECT_GT(ring.epoch(), e2);
  EXPECT_FALSE(ring.remove_member(SiteId{2}));
}

/// The rule owner_of's bucket index replaces: binary search for the first
/// point at or after the hash over points rebuilt from the member list,
/// wrapping to the first point past the last.
class LowerBoundRing {
 public:
  explicit LowerBoundRing(std::span<const SiteId> members) {
    for (const SiteId m : members) {
      for (std::uint64_t v = 0; v < HashRing::kVnodes; ++v) {
        points_.push_back({cluster::ring_hash((v << 32) | m.value), m.value});
      }
    }
    std::sort(points_.begin(), points_.end());
  }
  std::uint32_t owner_of(ObjectId object, bool* wrapped) const {
    const std::uint64_t h = cluster::ring_hash(object.value);
    const auto it = std::lower_bound(
        points_.begin(), points_.end(), h,
        [](const std::pair<std::uint64_t, std::uint32_t>& p,
           std::uint64_t key) { return p.first < key; });
    *wrapped = it == points_.end();
    return *wrapped ? points_.front().second : it->second;
  }

 private:
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;  // (hash, site)
};

TEST(HashRingTest, OwnerOfEqualsTheLowerBoundRuleOnRandomMemberSets) {
  Rng rng(0x51a7);
  std::uint64_t wraps = 0;
  std::uint64_t checks = 0;
  auto check_all = [&](const HashRing& ring) {
    const LowerBoundRing oracle(ring.members());
    Rng ids(rng.uniform_int(0, 1 << 30));
    for (int i = 0; i < 100000; ++i) {
      const ObjectId object{
          static_cast<std::uint32_t>(ids.uniform_int(0, 0xffffffffll))};
      bool wrapped = false;
      const std::uint32_t want = oracle.owner_of(object, &wrapped);
      ASSERT_EQ(ring.owner_of(object).value, want)
          << "object " << object.value << " on " << ring.size() << " members";
      wraps += wrapped ? 1 : 0;
      ++checks;
    }
  };
  for (int trial = 0; trial < 12; ++trial) {
    // 1 to 64 distinct members drawn from a wide id range.
    const auto n = static_cast<std::size_t>(
        trial == 0 ? 1 : rng.uniform_int(1, 64));
    std::vector<SiteId> members;
    while (members.size() < n) {
      const SiteId s{static_cast<std::uint32_t>(rng.uniform_int(0, 5000))};
      if (std::find(members.begin(), members.end(), s) == members.end()) {
        members.push_back(s);
      }
    }
    HashRing ring;
    ring.set_members(members);
    check_all(ring);
    for (int change = 0; change < 4; ++change) {
      if (change % 2 == 0 || ring.size() == 1) {
        // A new member (add_member is false for one already present).
        while (!ring.add_member(SiteId{
            static_cast<std::uint32_t>(rng.uniform_int(5001, 9000))})) {
        }
      } else {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(ring.size()) - 1));
        ASSERT_TRUE(ring.remove_member(ring.members()[pick]));
      }
      check_all(ring);
    }
  }
  // Hashes past the last point wrap to the first; the small rings make
  // that common enough that every run covers it.
  EXPECT_GT(wraps, 0u);
  EXPECT_EQ(checks, 12u * 5u * 100000u);
}

TEST(MembershipTest, ConfiguredBaselineDoesNotBumpEpoch) {
  MembershipTable t(SiteId{0}, /*self_incarnation=*/10);
  const std::uint64_t e0 = t.epoch();
  t.add_configured(SiteId{1});
  t.add_configured(SiteId{2});
  EXPECT_EQ(t.epoch(), e0);
  EXPECT_EQ(t.alive_count(), 3u);  // self + two peers
}

TEST(MembershipTest, SilenceSuspectsAndEvidenceOfLifeRefutes) {
  MembershipTable t(SiteId{0}, 10);
  t.add_configured(SiteId{1});
  // A configured peer never heard from is NOT suspected (time 0 means
  // "no contact yet"; the dial may still be in progress).
  EXPECT_FALSE(t.suspect_silent(1'000'000, 500'000));
  EXPECT_FALSE(t.heard_from(1, /*now_us=*/100));  // already alive
  // Silent past the timeout: suspected, alive set shrinks, epoch bumps.
  const std::uint64_t e0 = t.epoch();
  EXPECT_TRUE(t.suspect_silent(/*now_us=*/1'000'000, /*timeout_us=*/500'000));
  EXPECT_EQ(t.alive_count(), 1u);
  EXPECT_GT(t.epoch(), e0);
  // A frame from the suspect clears the suspicion.
  EXPECT_TRUE(t.heard_from(1, 1'100'000));
  EXPECT_EQ(t.alive_count(), 2u);
}

TEST(MembershipTest, HigherIncarnationWinsAndEqualPrefersWorse) {
  MembershipTable t(SiteId{0}, 10);
  t.add_configured(SiteId{1});
  // A digest reporting site 1 suspect at ITS current incarnation sticks.
  const wire::MemberEntry suspect{1, 0, MembershipTable::kSuspect};
  EXPECT_TRUE(t.merge(0, {&suspect, 1}, /*now_us=*/0));
  EXPECT_EQ(t.alive_count(), 1u);
  // The same report again: no change, no epoch bump.
  const std::uint64_t e1 = t.epoch();
  EXPECT_FALSE(t.merge(0, {&suspect, 1}, 0));
  EXPECT_EQ(t.epoch(), e1);
  // Site 1 restarts with a higher incarnation: alive again, stale
  // suspicion refuted.
  const wire::MemberEntry reborn{1, 5, MembershipTable::kAlive};
  EXPECT_TRUE(t.merge(0, {&reborn, 1}, 0));
  EXPECT_EQ(t.alive_count(), 2u);
  // An OLD suspicion (lower incarnation) arriving late is ignored.
  EXPECT_FALSE(t.merge(0, {&suspect, 1}, 0));
  EXPECT_EQ(t.alive_count(), 2u);
}

TEST(MembershipTest, SelfRefutationBumpsIncarnation) {
  MembershipTable t(SiteId{0}, 10);
  // Someone gossips that WE are suspect at our own incarnation: the SWIM
  // refutation rule answers by bumping our incarnation past theirs, and we
  // stay alive in our own table.
  const wire::MemberEntry slander{0, 10, MembershipTable::kSuspect};
  t.merge(0, {&slander, 1}, 0);
  EXPECT_GT(t.self_incarnation(), 10u);
  EXPECT_EQ(t.alive_count(), 1u);
  std::vector<wire::MemberEntry> digest;
  t.fill_digest(digest);
  ASSERT_FALSE(digest.empty());
  bool found_self = false;
  for (const auto& e : digest) {
    if (e.site == 0) {
      found_self = true;
      EXPECT_EQ(e.status, MembershipTable::kAlive);
      EXPECT_GT(e.incarnation, 10u);
    }
  }
  EXPECT_TRUE(found_self);
}

TEST(MembershipTest, KillSilentPromotesSuspectsOnlyPastTheGrace) {
  MembershipTable t(SiteId{0}, 10);
  t.add_configured(SiteId{1});
  EXPECT_FALSE(t.heard_from(1, /*now_us=*/100));
  // Suspicion alone never moves ownership: the member stays in the
  // serving set through the whole suspect window plus the dead grace.
  ASSERT_TRUE(t.suspect_silent(/*now_us=*/600'000, /*timeout_us=*/500'000));
  std::vector<std::uint32_t> serving;
  t.serving_members(serving);
  EXPECT_EQ(serving, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_FALSE(t.kill_silent(/*now_us=*/900'000, /*suspect_timeout_us=*/
                             500'000, /*dead_grace_us=*/500'000));
  t.serving_members(serving);
  EXPECT_EQ(serving, (std::vector<std::uint32_t>{0, 1}));
  // Past suspect_timeout + dead_grace the suspect is promoted to dead,
  // the serving set shrinks and the epoch bumps.
  const std::uint64_t e0 = t.epoch();
  EXPECT_TRUE(t.kill_silent(1'100'000, 500'000, 500'000));
  EXPECT_GT(t.epoch(), e0);
  t.serving_members(serving);
  EXPECT_EQ(serving, (std::vector<std::uint32_t>{0}));
  // Death is sticky against silence-based resurrection, but direct
  // evidence of life (a frame from the member) brings it back.
  EXPECT_FALSE(t.kill_silent(2'000'000, 500'000, 500'000));
  EXPECT_TRUE(t.heard_from(1, 2'100'000));
  t.serving_members(serving);
  EXPECT_EQ(serving, (std::vector<std::uint32_t>{0, 1}));
}

TEST(MembershipTest, ServingMembersIsSortedAndExcludesOnlyTheDead) {
  MembershipTable t(SiteId{3}, 10);
  t.add_configured(SiteId{1});
  t.add_configured(SiteId{0});
  t.add_configured(SiteId{2});
  std::vector<std::uint32_t> serving;
  t.serving_members(serving);
  EXPECT_EQ(serving, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  // A suspect member still serves (its slice must not move yet)...
  const wire::MemberEntry suspect{1, 0, MembershipTable::kSuspect};
  ASSERT_TRUE(t.merge(0, {&suspect, 1}, 0));
  t.serving_members(serving);
  EXPECT_EQ(serving, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  // ...a dead one does not.
  const wire::MemberEntry dead{1, 0, MembershipTable::kDead};
  ASSERT_TRUE(t.merge(0, {&dead, 1}, 0));
  t.serving_members(serving);
  EXPECT_EQ(serving, (std::vector<std::uint32_t>{0, 2, 3}));
}

TEST(MembershipTest, MergeReportsServingSetChangesFromGossipedDeath) {
  // A death learned purely from gossip (no local timeout involved) must
  // still report "changed" so the server rebuilds its ring.
  MembershipTable t(SiteId{0}, 10);
  t.add_configured(SiteId{1});
  t.add_configured(SiteId{2});
  const wire::MemberEntry dead{2, 0, MembershipTable::kDead};
  const std::uint64_t e0 = t.epoch();
  EXPECT_TRUE(t.merge(0, {&dead, 1}, 0));
  EXPECT_GT(t.epoch(), e0);
  std::vector<std::uint32_t> serving;
  t.serving_members(serving);
  EXPECT_EQ(serving, (std::vector<std::uint32_t>{0, 1}));
  // Replaying the same digest is idempotent: no spurious rebalances.
  EXPECT_FALSE(t.merge(0, {&dead, 1}, 0));
}

TEST(MembershipTest, EpochFastForwardsToRemoteAndStaysMonotone) {
  MembershipTable t(SiteId{0}, 1);
  t.add_configured(SiteId{1});
  const wire::MemberEntry peer{1, 0, MembershipTable::kAlive};
  t.merge(/*remote_epoch=*/40, {&peer, 1}, 0);
  EXPECT_GE(t.epoch(), 40u);
  const std::uint64_t e = t.epoch();
  // A digest from the past cannot roll the epoch back.
  t.merge(/*remote_epoch=*/3, {&peer, 1}, 0);
  EXPECT_GE(t.epoch(), e);
}

TEST(MembershipTest, DigestRoundTripsThroughMerge) {
  // Two tables exchanging digests converge on the same membership view.
  MembershipTable a(SiteId{0}, 10);
  MembershipTable b(SiteId{1}, 20);
  a.add_configured(SiteId{1});
  a.add_configured(SiteId{2});
  b.add_configured(SiteId{0});

  std::vector<wire::MemberEntry> digest;
  a.fill_digest(digest);
  b.merge(a.epoch(), digest, 0);
  EXPECT_EQ(b.alive_count(), 3u);  // b learned about site 2 from a

  b.fill_digest(digest);
  a.merge(b.epoch(), digest, 0);
  EXPECT_EQ(a.alive_count(), 3u);
  EXPECT_EQ(a.epoch(), b.epoch());
}

}  // namespace
}  // namespace timedc
