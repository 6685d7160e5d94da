// Tests for the lifetime-based protocol family: unit-level rule behaviour,
// end-to-end experiment runs, the paper's qualitative cost claims
// (Section 5/6), and the protocol -> checker integration: small recorded
// runs must satisfy TSC / TCC under the appropriate Delta.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>

#include "clocks/physical_clock.hpp"
#include "common/rng.hpp"
#include "core/checkers.hpp"
#include "protocol/experiment.hpp"
#include "protocol/timed_causal_cache.hpp"
#include "protocol/timed_serial_cache.hpp"

namespace timedc {
namespace {

SimTime us(std::int64_t n) { return SimTime::micros(n); }
SimTime ms(std::int64_t n) { return SimTime::millis(n); }

/// A tiny fixture wiring one server and two serial-cache clients directly.
class SerialCacheFixture : public ::testing::Test {
 protected:
  void init(SimTime delta, bool mark_old = true,
            PushPolicy push = PushPolicy::kNone,
            const PhysicalClockModel* clock = nullptr) {
    net_ = std::make_unique<Network>(sim_, 3,
                                     std::make_unique<FixedLatency>(us(10)),
                                     NetworkConfig{}, Rng(1));
    server_ = std::make_unique<ObjectServer>(sim_, *net_, SiteId{2}, 2, push,
                                             MessageSizes{});
    server_->attach();
    for (std::uint32_t c = 0; c < 2; ++c) {
      clients_.push_back(std::make_unique<TimedSerialCache>(
          sim_, *net_, SiteId{c}, SiteId{2}, clock ? clock : &clock_, delta,
          mark_old, MessageSizes{}));
      clients_.back()->attach();
    }
  }

  Value read_now(int c, ObjectId obj) {
    Value got{-1};
    clients_[c]->read(obj, [&](Value v, SimTime) { got = v; });
    sim_.run_until();
    return got;
  }

  void advance_to(SimTime t) {
    sim_.schedule_at(t, [] {});
    sim_.run_until();
  }

  void write_now(int c, ObjectId obj, Value v) {
    clients_[c]->write(obj, v, [](SimTime) {});
    sim_.run_until();
  }

  Simulator sim_;
  PerfectClock clock_;
  DriftingClock behind_{ms(-100), 0.0};
  std::unique_ptr<Network> net_;
  std::unique_ptr<ObjectServer> server_;
  std::vector<std::unique_ptr<TimedSerialCache>> clients_;
};

TEST_F(SerialCacheFixture, ReadThroughAndCacheHit) {
  init(SimTime::infinity());
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});  // initial value
  EXPECT_EQ(clients_[0]->stats().cache_misses, 1u);
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});  // now cached
  EXPECT_EQ(clients_[0]->stats().cache_hits, 1u);
}

TEST_F(SerialCacheFixture, WriteThroughVisibleToOthers) {
  init(SimTime::infinity());
  write_now(0, ObjectId{0}, Value{7});
  EXPECT_EQ(read_now(1, ObjectId{0}), Value{7});
  EXPECT_EQ(server_->stats().writes_applied, 1u);
}

TEST_F(SerialCacheFixture, OwnWriteServedFromCache) {
  init(SimTime::infinity());
  write_now(0, ObjectId{0}, Value{7});
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{7});
  EXPECT_EQ(clients_[0]->stats().cache_hits, 1u);
  EXPECT_EQ(clients_[0]->stats().cache_misses, 0u);
}

TEST_F(SerialCacheFixture, TscRule3ForcesRevalidationAfterDelta) {
  init(us(1000));
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  // Update from the other client; client 0's copy is now stale.
  write_now(1, ObjectId{0}, Value{5});
  // Within Delta the stale copy may still be served (that is the contract).
  // Wait out Delta: the next read must revalidate and see the new value.
  sim_.schedule_after(us(2000), [] {});
  sim_.run_until();
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{5});
  EXPECT_GE(clients_[0]->stats().validations, 1u);
}

TEST_F(SerialCacheFixture, ScDeltaInfinityNeverRevalidatesQuietObjects) {
  init(SimTime::infinity());
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  sim_.schedule_after(SimTime::seconds(100), [] {});
  sim_.run_until();
  // Even after an eternity, a cache hit: no rule 3 without Delta.
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  EXPECT_EQ(clients_[0]->stats().cache_hits, 1u);
  EXPECT_EQ(clients_[0]->stats().validations, 0u);
}

TEST_F(SerialCacheFixture, ValidationExtendsLifetime) {
  init(us(500), /*mark_old=*/true);
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  sim_.schedule_after(us(1000), [] {});
  sim_.run_until();
  // No writes happened: validation returns "still valid" (a 304).
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  EXPECT_EQ(clients_[0]->stats().validations, 1u);
  EXPECT_EQ(clients_[0]->stats().validations_ok, 1u);
}

TEST_F(SerialCacheFixture, InvalidateModeDropsInsteadOfMarking) {
  init(us(500), /*mark_old=*/false);
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  sim_.schedule_after(us(1000), [] {});
  sim_.run_until();
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  // The stale entry was dropped outright: a full miss, not a validation.
  EXPECT_EQ(clients_[0]->stats().invalidations, 1u);
  EXPECT_EQ(clients_[0]->stats().cache_misses, 2u);
  EXPECT_EQ(clients_[0]->stats().validations, 0u);
}

TEST_F(SerialCacheFixture, Rule1InstallRaisesContextAndEvicts) {
  init(SimTime::infinity(), /*mark_old=*/false);
  // Client 0 caches A (omega = fetch time).
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  // Much later, client 1 writes B; client 0 then fetches B whose alpha is
  // far beyond A's omega: rule 1 raises Context past A's lifetime.
  sim_.schedule_after(ms(10), [] {});
  sim_.run_until();
  write_now(1, ObjectId{1}, Value{9});
  EXPECT_EQ(read_now(0, ObjectId{1}), Value{9});
  EXPECT_EQ(clients_[0]->stats().invalidations, 1u);
  EXPECT_EQ(clients_[0]->cached_entries(), 1u);  // only B remains
}

TEST_F(SerialCacheFixture, PushInvalidationKeepsCacheCoherent) {
  init(SimTime::infinity(), true, PushPolicy::kInvalidate);
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  write_now(1, ObjectId{0}, Value{3});
  // The server pushed an invalidation to client 0 (it was a cacher).
  EXPECT_EQ(clients_[0]->stats().push_invalidations, 1u);
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{3});
}

TEST_F(SerialCacheFixture, PushUpdateRefreshesCache) {
  init(SimTime::infinity(), true, PushPolicy::kUpdate);
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  write_now(1, ObjectId{0}, Value{3});
  EXPECT_EQ(clients_[0]->stats().push_updates, 1u);
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{3});
  EXPECT_EQ(clients_[0]->stats().cache_hits, 1u);  // served locally
}

// A server remembers who caches an object only to push to them: under pure
// pull it keeps no entry however many clients read, and under either push
// policy a write reaches every cacher but the writer.
TEST(ServerCachers, KeptOnlyUnderPushAndEveryCacherIsPushed) {
  constexpr std::uint32_t kClients = 1000;
  const SiteId server_site{kClients};
  const ObjectId object{0};
  for (const PushPolicy push :
       {PushPolicy::kNone, PushPolicy::kInvalidate, PushPolicy::kUpdate}) {
    Simulator sim;
    Network net(sim, kClients + 1, std::make_unique<FixedLatency>(us(10)),
                NetworkConfig{}, Rng(1));
    ObjectServer server(sim, net, server_site, kClients + 1, push,
                        MessageSizes{});
    server.attach();
    std::vector<int> invalidates(kClients);
    std::vector<int> updates(kClients);
    for (std::uint32_t c = 0; c < kClients; ++c) {
      net.register_site(SiteId{c}, [&, c](SiteId, const Message& m) {
        invalidates[c] += std::holds_alternative<Invalidate>(m) ? 1 : 0;
        updates[c] += std::holds_alternative<PushUpdate>(m) ? 1 : 0;
      });
    }
    // Every client site reads the object: half fetch, half validate.
    for (std::uint32_t c = 0; c < kClients; ++c) {
      const SiteId client{c};
      if (c % 2 == 0) {
        net.send_message(client, server_site,
                         Message{FetchRequest{object, client}}, 0);
      } else {
        net.send_message(client, server_site,
                         Message{ValidateRequest{object, 0, client}}, 0);
      }
    }
    sim.run_until();
    EXPECT_EQ(server.stats().fetches + server.stats().validations, kClients);
    net.send_message(SiteId{0}, server_site,
                     Message{WriteRequest{object, Value{7}, sim.now(),
                                          PlausibleTimestamp{}, SiteId{0}}},
                     0);
    sim.run_until();
    ASSERT_EQ(server.stats().writes_applied, 1u);
    if (push == PushPolicy::kNone) {
      EXPECT_EQ(server.cacher_entries(), 0u);
      EXPECT_EQ(server.stats().pushes, 0u);
    } else {
      EXPECT_EQ(server.cacher_entries(), kClients);
      EXPECT_EQ(server.stats().pushes, kClients - 1);
    }
    std::vector<int>& pushed =
        push == PushPolicy::kInvalidate ? invalidates : updates;
    const int expected = push == PushPolicy::kNone ? 0 : 1;
    EXPECT_EQ(invalidates[0] + updates[0], 0) << "the writer was pushed";
    for (std::uint32_t c = 1; c < kClients; ++c) {
      ASSERT_EQ(pushed[c], expected) << "client " << c;
      ASSERT_EQ(invalidates[c] + updates[c], expected) << "client " << c;
    }
  }
}

// The retry layer charges an abandoned op only its own wait, from issue to
// abandonment: the client stamps the op's start for it even with no
// tracer attached.
TEST(ReliableRpc, AbandonedOpChargesOnlyItsOwnWait) {
  Simulator sim;
  Network net(sim, 3, std::make_unique<FixedLatency>(us(10)), NetworkConfig{},
              Rng(1));
  net.register_site(SiteId{2}, [](SiteId, const Message&) {});  // never answers
  PerfectClock clock;
  TimedSerialCache client(sim, net, SiteId{0}, SiteId{2}, &clock,
                          SimTime::infinity(), /*mark_old=*/true,
                          MessageSizes{});
  client.attach();
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_timeout = ms(1);
  policy.jitter = 0;
  client.configure_reliability(policy, {}, /*rpc_seed=*/7);
  sim.schedule_at(SimTime::seconds(1), [] {});
  sim.run_until();
  SimTime done_at = SimTime::zero();
  client.read(ObjectId{0}, [&](Value, SimTime t) { done_at = t; });
  sim.run_until();
  ASSERT_TRUE(client.last_op_abandoned());
  // Timeouts of 1, 2 and 4 ms: abandoned 7 ms after it was issued.
  EXPECT_EQ(done_at, SimTime::seconds(1) + ms(7));
  EXPECT_EQ(client.stats().unavailable_us, 7000u);
}

// --- The omega-ordered expiry index -----------------------------------------
//
// The one-way latency is a fixed 10us, so a fetch issued at t is served
// (omega = server time) at t + 10.

/// The four (omega, object) pairs cache_interleaved() leaves, in expiry
/// order; object 4 (omega 410) outlives them all.
constexpr std::pair<std::int64_t, std::uint32_t> kInterleaved[] = {
    {10, 2}, {110, 0}, {210, 3}, {310, 1}};

class ExpiryIndexTest : public SerialCacheFixture {
 protected:
  /// Caches objects 2, 0, 3, 1, 4 at 100us spacing under Delta = 1ms, so
  /// omega order differs from object-id (and hash-map) order.
  void cache_interleaved(bool mark_old) {
    init(us(1000), mark_old);
    for (int k = 0; k < 5; ++k) {
      const std::uint32_t object = k < 4 ? kInterleaved[k].second : 4;
      advance_to(us(100 * k));
      EXPECT_EQ(read_now(0, ObjectId{object}), Value{0});
    }
  }

  /// Rule 3 at local time t: a read of object 4, which stays valid.
  void hit_probe_at(std::int64_t t) {
    advance_to(us(t));
    const std::uint64_t hits = clients_[0]->stats().cache_hits;
    EXPECT_EQ(read_now(0, ObjectId{4}), Value{0});
    EXPECT_EQ(clients_[0]->stats().cache_hits, hits + 1);
  }
};

TEST_F(ExpiryIndexTest, EntriesExpireOneAtATimeAsContextPassesEachOmega) {
  cache_interleaved(/*mark_old=*/true);
  for (std::uint64_t k = 0; k < 4; ++k) {
    const std::int64_t omega = kInterleaved[k].first;
    hit_probe_at(omega + 1000 - 5);  // Context_i = omega - 5: nothing yet
    EXPECT_EQ(clients_[0]->stats().marked_old, k);
    hit_probe_at(omega + 1000 + 5);  // Context_i = omega + 5: this one only
    EXPECT_EQ(clients_[0]->stats().marked_old, k + 1);
    EXPECT_EQ(clients_[0]->context(), us(omega + 5));
  }
  EXPECT_EQ(clients_[0]->cached_entries(), 5u);
  // Each demoted entry now costs a validation, not a refetch.
  for (const auto& [omega, object] : kInterleaved) {
    EXPECT_EQ(read_now(0, ObjectId{object}), Value{0});
  }
  EXPECT_EQ(clients_[0]->stats().validations, 4u);
  EXPECT_EQ(clients_[0]->stats().cache_misses, 5u);
}

TEST_F(ExpiryIndexTest, InvalidateModeErasesTheSameEntries) {
  cache_interleaved(/*mark_old=*/false);
  for (std::uint64_t k = 0; k < 4; ++k) {
    const std::int64_t omega = kInterleaved[k].first;
    hit_probe_at(omega + 1000 - 5);
    EXPECT_EQ(clients_[0]->stats().invalidations, k);
    hit_probe_at(omega + 1000 + 5);
    EXPECT_EQ(clients_[0]->stats().invalidations, k + 1);
    EXPECT_EQ(clients_[0]->cached_entries(), 4 - k);
  }
  EXPECT_EQ(clients_[0]->stats().marked_old, 0u);
  for (const auto& [omega, object] : kInterleaved) {
    EXPECT_EQ(read_now(0, ObjectId{object}), Value{0});
  }
  EXPECT_EQ(clients_[0]->stats().validations, 0u);
  EXPECT_EQ(clients_[0]->stats().cache_misses, 9u);
}

TEST_F(SerialCacheFixture, RevalidatedEntrySurvivesOldOmegaAndExpiresAtNewOne) {
  init(us(1000), /*mark_old=*/true);
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});  // omega 10
  advance_to(us(1030));
  // Context_i = 30 demotes it; the 304 is served at 1040: omega := 1040.
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  EXPECT_EQ(clients_[0]->stats().marked_old, 1u);
  EXPECT_EQ(clients_[0]->stats().validations_ok, 1u);
  advance_to(us(2035));  // Context_i = 1035: past 10, short of 1040
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  EXPECT_EQ(clients_[0]->stats().cache_hits, 1u);
  EXPECT_EQ(clients_[0]->stats().marked_old, 1u);
  advance_to(us(2045));  // Context_i = 1045: past the new omega
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  EXPECT_EQ(clients_[0]->stats().marked_old, 2u);
  EXPECT_EQ(clients_[0]->stats().validations, 2u);
}

TEST_F(SerialCacheFixture, LocalWriteOverValidEntryExpiresAtTheWriteTime) {
  init(us(1000), /*mark_old=*/true);
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});  // omega 10
  advance_to(us(500));
  write_now(0, ObjectId{0}, Value{7});  // rule 2: omega = Context_i = 500
  EXPECT_EQ(clients_[0]->stats().marked_old, 0u);
  advance_to(us(1495));  // Context_i stays 500
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{7});
  EXPECT_EQ(clients_[0]->stats().cache_hits, 1u);
  advance_to(us(1505));  // Context_i = 505: past the write's omega
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{7});
  EXPECT_EQ(clients_[0]->stats().marked_old, 1u);
  EXPECT_EQ(clients_[0]->stats().validations, 1u);
}

TEST_F(SerialCacheFixture, ExpiryIndexStaysBoundedOverALongRun) {
  // Clocks 100ms behind the server keep every server-stamped omega far
  // ahead of Context_i, so each pushed re-install supersedes an item that
  // no sweep pops for 100ms: only the rebuild keeps the index bounded.
  init(us(1000), /*mark_old=*/true, PushPolicy::kUpdate, &behind_);
  advance_to(SimTime::seconds(1));
  constexpr std::size_t kObjects = 8;
  constexpr std::size_t kBound =
      2 * kObjects + TimedSerialCache::kExpirySlack;
  Rng rng(7);
  std::size_t peak = 0;
  for (int op = 0; op < 100000; ++op) {
    const int c = static_cast<int>(rng.uniform_int(0, 1));
    const ObjectId object{static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kObjects) - 1))};
    if (rng.bernoulli(0.3)) {
      write_now(c, object, Value{op + 1});
    } else {
      read_now(c, object);
    }
    for (const auto& client : clients_) {
      ASSERT_LE(client->cached_entries(), kObjects);
      ASSERT_LE(client->expiry_index_size(),
                2 * client->cached_entries() +
                    TimedSerialCache::kExpirySlack);
      peak = std::max(peak, client->expiry_index_size());
    }
    sim_.schedule_after(us(rng.uniform_int(0, 50)), [] {});
    sim_.run_until();
  }
  EXPECT_EQ(peak, kBound);  // the rebuild threshold was reached
}

/// Whole-protocol pin: CacheStats of seeded runs, recorded with the full
/// cache walk the index replaced. Any drift means expiry decisions moved.
struct PinnedRun {
  bool mark_old;
  bool delta_infinite;
  PushPolicy push;
  std::uint64_t seed;
  std::uint64_t hits, misses, validations, validations_ok, marked_old,
      invalidations;
};

class PinnedCacheStats : public ::testing::TestWithParam<PinnedRun> {};

TEST_P(PinnedCacheStats, MatchesTheFullWalk) {
  const PinnedRun& p = GetParam();
  ExperimentConfig config;
  config.kind = ProtocolKind::kTimedSerial;
  config.delta = p.delta_infinite ? SimTime::infinity() : ms(3);
  config.mark_old = p.mark_old;
  config.push = p.push;
  config.seed = p.seed;
  config.workload.num_clients = 4;
  config.workload.num_objects = 16;
  config.workload.write_ratio = 0.3;
  config.workload.mean_think_time = ms(2);
  config.workload.horizon = ms(400);
  config.min_latency = us(100);
  config.max_latency = us(400);
  const CacheStats s = run_experiment(config).cache;
  EXPECT_EQ(s.cache_hits, p.hits);
  EXPECT_EQ(s.cache_misses, p.misses);
  EXPECT_EQ(s.validations, p.validations);
  EXPECT_EQ(s.validations_ok, p.validations_ok);
  EXPECT_EQ(s.marked_old, p.marked_old);
  EXPECT_EQ(s.invalidations, p.invalidations);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PinnedCacheStats,
    ::testing::Values(
        //       mark_old, Delta=inf, push, seed, hits, misses, validations,
        //       validations_ok, marked_old, invalidations
        PinnedRun{true, false, PushPolicy::kNone, 41, 64, 47, 453, 209, 731, 0},
        PinnedRun{false, false, PushPolicy::kNone, 41, 64, 500, 0, 0, 0, 731},
        PinnedRun{true, true, PushPolicy::kNone, 41, 108, 47, 409, 176, 656, 0},
        PinnedRun{false, true, PushPolicy::kNone, 41, 108, 456, 0, 0, 0, 656},
        PinnedRun{true, false, PushPolicy::kUpdate, 42, 84, 49, 457, 435, 1120,
                  0},
        PinnedRun{false, false, PushPolicy::kUpdate, 42, 84, 506, 0, 0, 0,
                  1120},
        PinnedRun{true, true, PushPolicy::kUpdate, 42, 108, 49, 433, 416, 1082,
                  0},
        PinnedRun{false, true, PushPolicy::kUpdate, 42, 108, 482, 0, 0, 0,
                  1082}));

// --- Causal cache ----------------------------------------------------------

class CausalCacheFixture : public ::testing::Test {
 protected:
  void init(SimTime delta, bool mark_old = true) {
    net_ = std::make_unique<Network>(sim_, 3,
                                     std::make_unique<FixedLatency>(us(10)),
                                     NetworkConfig{}, Rng(2));
    server_ = std::make_unique<ObjectServer>(sim_, *net_, SiteId{2}, 2,
                                             PushPolicy::kNone, MessageSizes{});
    server_->attach();
    for (std::uint32_t c = 0; c < 2; ++c) {
      clients_.push_back(std::make_unique<TimedCausalCache>(
          sim_, *net_, SiteId{c}, SiteId{2}, &clock_, delta, mark_old,
          MessageSizes{}, 2));
      clients_.back()->attach();
    }
  }

  Value read_now(int c, ObjectId obj) {
    Value got{-1};
    clients_[c]->read(obj, [&](Value v, SimTime) { got = v; });
    sim_.run_until();
    return got;
  }

  void write_now(int c, ObjectId obj, Value v) {
    clients_[c]->write(obj, v, [](SimTime) {});
    sim_.run_until();
  }

  Simulator sim_;
  PerfectClock clock_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<ObjectServer> server_;
  std::vector<std::unique_ptr<TimedCausalCache>> clients_;
};

TEST_F(CausalCacheFixture, BasicReadWrite) {
  init(SimTime::infinity());
  write_now(0, ObjectId{0}, Value{4});
  EXPECT_EQ(read_now(1, ObjectId{0}), Value{4});
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{4});  // own write cached
}

TEST_F(CausalCacheFixture, CausalInvalidationOnDependentRead) {
  init(SimTime::infinity(), /*mark_old=*/false);
  // Client 0 caches X. Client 1 writes X' then Y. When client 0 reads Y it
  // learns a timestamp causally after X's overwrite... X's cached omega_l is
  // the server knowledge at fetch time, which precedes the new writes, so
  // the causal sweep must evict X (the paper's CNN / Dow Jones scenario).
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  write_now(1, ObjectId{0}, Value{5});
  write_now(1, ObjectId{1}, Value{6});
  EXPECT_EQ(read_now(0, ObjectId{1}), Value{6});
  EXPECT_GE(clients_[0]->stats().invalidations, 1u);
  // The re-read of X now fetches the new value: causality preserved.
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{5});
}

TEST_F(CausalCacheFixture, OwnWriteDemotedAfterRemoteKnowledgeButCheap) {
  // Deviation from [39] (see timed_causal_cache.hpp): a locally written
  // copy is NOT exempt from the causal sweep — learning remote information
  // demotes it to old — but the recovery is a cheap 304-style validation,
  // not a refetch, and the value survives.
  init(SimTime::infinity(), /*mark_old=*/true);
  write_now(0, ObjectId{0}, Value{4});
  write_now(1, ObjectId{1}, Value{5});
  EXPECT_EQ(read_now(0, ObjectId{1}), Value{5});  // raises client 0's context
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{4});
  EXPECT_GE(clients_[0]->stats().validations_ok, 1u);
}

TEST_F(CausalCacheFixture, OwnStaleCopyNotServedAfterCausalOverwrite) {
  // The hidden-write pattern the [39] exemption would admit: client 0
  // writes X; client 1 reads it, overwrites X (causally after), then writes
  // Y. Once client 0 reads Y it is causally after the overwrite and must
  // not keep serving its own stale X.
  init(SimTime::infinity(), /*mark_old=*/true);
  write_now(0, ObjectId{0}, Value{4});
  EXPECT_EQ(read_now(1, ObjectId{0}), Value{4});
  write_now(1, ObjectId{0}, Value{6});
  write_now(1, ObjectId{1}, Value{7});
  EXPECT_EQ(read_now(0, ObjectId{1}), Value{7});
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{6});  // not the stale own 4
}

TEST_F(CausalCacheFixture, BetaRuleForcesTimeliness) {
  init(ms(1));
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  write_now(1, ObjectId{0}, Value{5});
  sim_.schedule_after(ms(5), [] {});
  sim_.run_until();
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{5});
  EXPECT_GE(clients_[0]->stats().validations, 1u);
}

TEST_F(CausalCacheFixture, DeltaInfinityNeverBetaInvalidates) {
  init(SimTime::infinity());
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  sim_.schedule_after(SimTime::seconds(1000), [] {});
  sim_.run_until();
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  EXPECT_EQ(clients_[0]->stats().cache_hits, 1u);
}

// --- End-to-end experiments ------------------------------------------------

ExperimentConfig small_config(ProtocolKind kind, SimTime delta,
                              std::uint64_t seed) {
  ExperimentConfig config;
  config.kind = kind;
  config.delta = delta;
  config.seed = seed;
  config.workload.num_clients = 3;
  config.workload.num_objects = 4;
  config.workload.write_ratio = 0.3;
  config.workload.mean_think_time = ms(5);
  config.workload.horizon = ms(120);
  config.min_latency = us(100);
  config.max_latency = us(400);
  return config;
}

TEST(ExperimentTest, RunsToCompletionAndRecordsHistory) {
  const auto result =
      run_experiment(small_config(ProtocolKind::kTimedSerial, ms(10), 3));
  EXPECT_GT(result.operations, 10u);
  EXPECT_EQ(result.history.size(), result.operations);
  EXPECT_FALSE(result.history.has_thin_air_read());
  EXPECT_GT(result.messages_per_op, 0.0);
}

TEST(ExperimentTest, DeterministicForSeed) {
  const auto a =
      run_experiment(small_config(ProtocolKind::kTimedCausal, ms(10), 7));
  const auto b =
      run_experiment(small_config(ProtocolKind::kTimedCausal, ms(10), 7));
  EXPECT_EQ(a.network.messages_sent, b.network.messages_sent);
  EXPECT_EQ(a.cache.cache_hits, b.cache.cache_hits);
  EXPECT_EQ(a.mean_staleness_us, b.mean_staleness_us);
}

TEST(ExperimentTest, MultiSeedReplicationMatchesSerialRuns) {
  // run_experiment_seeds fans seeds over the thread pool; each run must be
  // bit-identical to calling run_experiment with that seed serially.
  const auto config = small_config(ProtocolKind::kTimedSerial, ms(10), 0);
  const std::vector<std::uint64_t> seeds = {3, 14, 159, 2653};
  const auto parallel = run_experiment_seeds(config, seeds, 4);
  ASSERT_EQ(parallel.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    auto c = config;
    c.seed = seeds[i];
    const auto serial = run_experiment(c);
    EXPECT_EQ(parallel[i].network.messages_sent, serial.network.messages_sent);
    EXPECT_EQ(parallel[i].network.bytes_sent, serial.network.bytes_sent);
    EXPECT_EQ(parallel[i].cache.cache_hits, serial.cache.cache_hits);
    EXPECT_EQ(parallel[i].mean_staleness_us, serial.mean_staleness_us);
    EXPECT_EQ(parallel[i].history.to_string(), serial.history.to_string());
  }
}

TEST(ExperimentTest, TscStalenessBoundedByDeltaPlusSlack) {
  // The TSC protocol promise: a read never returns a value that has been
  // replaced for more than Delta (+ messaging slack: the value may be
  // overwritten while the reply is in flight, and the entry may be used
  // right at its freshness boundary).
  const SimTime delta = ms(5);
  auto config = small_config(ProtocolKind::kTimedSerial, delta, 11);
  config.workload.horizon = ms(300);
  const auto result = run_experiment(config);
  const SimTime slack = config.max_latency * 4;
  EXPECT_LE(result.max_staleness, delta + slack)
      << "staleness " << result.max_staleness.to_string();
}

TEST(ExperimentTest, SmallerDeltaReducesStaleness) {
  auto base = small_config(ProtocolKind::kTimedSerial, SimTime::infinity(), 13);
  base.workload.horizon = ms(400);
  base.workload.write_ratio = 0.4;
  auto timed = base;
  timed.delta = ms(2);
  const auto loose = run_experiment(base);
  const auto tight = run_experiment(timed);
  EXPECT_LE(tight.max_staleness, loose.max_staleness);
  EXPECT_LE(tight.mean_staleness_us, loose.mean_staleness_us + 1.0);
}

TEST(ExperimentTest, SmallerDeltaCostsMoreMessages) {
  auto base = small_config(ProtocolKind::kTimedSerial, SimTime::infinity(), 17);
  base.workload.horizon = ms(400);
  auto timed = base;
  timed.delta = ms(1);
  const auto loose = run_experiment(base);
  const auto tight = run_experiment(timed);
  EXPECT_GE(tight.messages_per_op, loose.messages_per_op);
  EXPECT_LE(tight.cache.hit_ratio(), loose.cache.hit_ratio() + 1e-9);
}

TEST(ExperimentTest, TscInvalidatesAtLeastAsMuchAsTcc) {
  // Section 5.3: "this implementation of TCC tends to invalidate more
  // objects than CC but less than TSC".
  const SimTime delta = ms(3);
  auto cfg_tsc = small_config(ProtocolKind::kTimedSerial, delta, 19);
  auto cfg_tcc = small_config(ProtocolKind::kTimedCausal, delta, 19);
  cfg_tsc.workload.horizon = cfg_tcc.workload.horizon = ms(400);
  const auto tsc = run_experiment(cfg_tsc);
  const auto tcc = run_experiment(cfg_tcc);
  const auto churn = [](const ExperimentResult& r) {
    return r.cache.invalidations + r.cache.marked_old;
  };
  EXPECT_GE(churn(tsc), churn(tcc));

  auto cfg_cc = small_config(ProtocolKind::kTimedCausal, SimTime::infinity(), 19);
  cfg_cc.workload.horizon = ms(400);
  const auto cc = run_experiment(cfg_cc);
  EXPECT_GE(churn(tcc), churn(cc));
}

// --- Protocol -> checker integration ---------------------------------------

class ProtocolCheckerIntegration
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolCheckerIntegration, SerialRunsReadOnTime) {
  // A short TSC run must produce a history whose reads are all on time at
  // Delta + messaging slack (Definition 1 with the protocol's real-time
  // budget). This ties the implementation back to the formal model.
  ExperimentConfig config =
      small_config(ProtocolKind::kTimedSerial, ms(4), GetParam());
  config.workload.horizon = ms(60);
  config.workload.mean_think_time = ms(4);
  const auto result = run_experiment(config);
  const SimTime slack = config.max_latency * 4;
  const auto timing =
      reads_on_time(result.history, TimedSpecPerfect{config.delta + slack});
  EXPECT_TRUE(timing.all_on_time) << "late reads: " << timing.late_reads.size();
}

TEST_P(ProtocolCheckerIntegration, CausalRunsPassCcFastChecks) {
  ExperimentConfig config =
      small_config(ProtocolKind::kTimedCausal, ms(4), GetParam());
  config.workload.horizon = ms(60);
  const auto result = run_experiment(config);
  const CausalOrder co = CausalOrder::build(result.history);
  EXPECT_TRUE(passes_cc_fast_checks(result.history, co));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolCheckerIntegration,
                         ::testing::Values(31, 32, 33, 34, 35));

}  // namespace
}  // namespace timedc
