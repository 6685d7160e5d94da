// Equivalence of the checker fast paths (prefilters, forced-order
// constraint graph, seed-order pass, packed memo key) with the plain
// exhaustive engine, and of the sorted-scan timed check and staleness scan
// with the naive O(R x W) references — property-tested over generated
// histories of both families. Verdicts must match exactly; witnesses may
// differ.
#include <gtest/gtest.h>

#include "clocks/physical_clock.hpp"
#include "core/checkers.hpp"
#include "core/history_gen.hpp"
#include "core/timed.hpp"

namespace timedc {
namespace {

History generate(std::uint64_t seed, int i) {
  Rng rng = Rng::stream(seed, static_cast<std::uint64_t>(i));
  switch (i % 4) {
    case 0: {
      RandomHistoryParams p;
      p.num_ops = 12;
      p.num_sites = 3;
      p.num_objects = 2;
      return random_history(p, rng);
    }
    case 1: {
      ReplicaHistoryParams p;
      p.num_ops = 16;
      p.num_sites = 3;
      p.num_objects = 2;
      p.max_delay_micros = 120;
      return replica_history(p, rng);
    }
    case 2: {
      // More sites/objects, higher write ratio: exercises the constraint
      // graph harder (more forced edges, more inconsistent histories).
      RandomHistoryParams p;
      p.num_ops = 14;
      p.num_sites = 4;
      p.num_objects = 3;
      p.write_ratio = 0.6;
      return random_history(p, rng);
    }
    default: {
      ReplicaHistoryParams p;
      p.num_ops = 20;
      p.num_sites = 4;
      p.num_objects = 3;
      p.max_delay_micros = 400;
      return replica_history(p, rng);
    }
  }
}

TEST(CheckerFastPathTest, VerdictsMatchExhaustiveOn600Histories) {
  SearchLimits fast, exhaustive;
  fast.fast_paths = true;
  exhaustive.fast_paths = false;
  for (int i = 0; i < 600; ++i) {
    const History h = generate(20250805, i);
    const auto lin_f = check_lin(h, fast);
    const auto lin_e = check_lin(h, exhaustive);
    EXPECT_EQ(lin_f.verdict, lin_e.verdict) << "lin mismatch at i=" << i << "\n"
                                            << h.to_string();
    const auto sc_f = check_sc(h, fast);
    const auto sc_e = check_sc(h, exhaustive);
    EXPECT_EQ(sc_f.verdict, sc_e.verdict) << "sc mismatch at i=" << i << "\n"
                                          << h.to_string();
    const auto cc_f = check_cc(h, fast);
    const auto cc_e = check_cc(h, exhaustive);
    EXPECT_EQ(cc_f.verdict, cc_e.verdict) << "cc mismatch at i=" << i << "\n"
                                          << h.to_string();
    // Fast-path witnesses must still be real witnesses: legal and
    // constraint-respecting serializations are re-checkable via the
    // serialization validator used elsewhere; here we at least require a
    // full-length permutation.
    if (sc_f.ok()) EXPECT_EQ(sc_f.witness.size(), h.size());
    if (lin_f.ok()) EXPECT_EQ(lin_f.witness.size(), h.size());
  }
}

/// The pre-optimization Def 2 scan, kept as the test oracle.
TimedCheckResult naive_reads_on_time(const History& h, const TimedSpecEpsilon& spec) {
  TimedCheckResult result;
  for (const Operation& r : h.operations()) {
    if (!r.is_read()) continue;
    const auto src = h.forced_source(r.index);
    std::vector<OpIndex> w_r;
    for (OpIndex w2 : h.writes_to(r.object)) {
      if (src && w2 == *src) continue;
      const bool newer =
          !src || definitely_before(h.op(*src).time, h.op(w2).time, spec.eps);
      const bool stale =
          definitely_before(h.op(w2).time, r.time - spec.delta, spec.eps);
      if (newer && stale) w_r.push_back(w2);
    }
    if (!w_r.empty()) {
      result.all_on_time = false;
      result.late_reads.push_back(LateRead{r.index, src, std::move(w_r)});
    }
  }
  return result;
}

TEST(TimedFastPathTest, SortedScanMatchesNaiveIncludingWrContents) {
  const std::int64_t deltas[] = {0, 10, 40, 120, 640, -1};
  const std::int64_t epss[] = {0, 15, 60};
  for (int i = 0; i < 200; ++i) {
    const History h = generate(424242, i);
    for (const std::int64_t d : deltas) {
      for (const std::int64_t e : epss) {
        const TimedSpecEpsilon spec{
            d < 0 ? SimTime::infinity() : SimTime::micros(d), SimTime::micros(e)};
        const auto fast = reads_on_time(h, spec);
        const auto naive = naive_reads_on_time(h, spec);
        ASSERT_EQ(fast.all_on_time, naive.all_on_time)
            << "i=" << i << " delta=" << d << " eps=" << e;
        ASSERT_EQ(fast.late_reads.size(), naive.late_reads.size());
        for (std::size_t k = 0; k < fast.late_reads.size(); ++k) {
          EXPECT_EQ(fast.late_reads[k].read, naive.late_reads[k].read);
          EXPECT_EQ(fast.late_reads[k].source, naive.late_reads[k].source);
          EXPECT_EQ(fast.late_reads[k].w_r, naive.late_reads[k].w_r)
              << "W_r mismatch i=" << i << " delta=" << d << " eps=" << e;
        }
      }
    }
  }
}

/// The O(R x W) staleness scan, kept as the test oracle.
std::vector<ReadStaleness> naive_per_read_staleness(const History& h) {
  std::vector<ReadStaleness> out;
  for (const Operation& r : h.operations()) {
    if (!r.is_read()) continue;
    ReadStaleness rs{r.index, SimTime::zero()};
    const std::optional<OpIndex> src = h.forced_source(r.index);
    for (OpIndex w2 : h.writes_to(r.object)) {
      if (src && w2 == *src) continue;
      const SimTime t_w2 = h.op(w2).time;
      if (src && t_w2 <= h.op(*src).time) continue;
      const SimTime gap = r.time - t_w2;
      if (gap > rs.staleness) rs.staleness = gap;
    }
    out.push_back(rs);
  }
  return out;
}

/// A history built for the staleness scan's edge cases: 1-2 us steps, so
/// sites tie in time; every object's values counting from 1, so one value
/// is written to several objects and read back from each; and reads that
/// return the initial value.
History tie_history(Rng& rng) {
  constexpr std::int64_t kSites = 4;
  constexpr std::int64_t kObjects = 3;
  HistoryBuilder builder(kSites);
  std::vector<std::int64_t> now(kSites, 0);
  std::vector<std::int64_t> written(kObjects, 0);  // values 1..written[o]
  for (int k = 0; k < 40; ++k) {
    const auto site = static_cast<std::uint32_t>(rng.uniform_int(0, kSites - 1));
    const auto obj = static_cast<std::uint32_t>(rng.uniform_int(0, kObjects - 1));
    now[site] += rng.uniform_int(1, 2);
    const SimTime t = SimTime::micros(now[site]);
    if (rng.bernoulli(0.4)) {
      builder.write(SiteId{site}, ObjectId{obj}, Value{++written[obj]}, t);
    } else {
      builder.read(SiteId{site}, ObjectId{obj},
                   Value{rng.uniform_int(0, written[obj])}, t);
    }
  }
  return builder.build();
}

TEST(TimedFastPathTest, PerReadStalenessMatchesNaive) {
  for (int i = 0; i < 600; ++i) {
    Rng rng = Rng::stream(8675309, static_cast<std::uint64_t>(i));
    const History h = i % 3 == 0 ? tie_history(rng) : generate(8675309, i);
    const auto fast = per_read_staleness(h);
    const auto naive = naive_per_read_staleness(h);
    ASSERT_EQ(fast.size(), naive.size());
    for (std::size_t k = 0; k < fast.size(); ++k) {
      EXPECT_EQ(fast[k].read, naive[k].read);
      EXPECT_EQ(fast[k].staleness.as_micros(), naive[k].staleness.as_micros())
          << "i=" << i << " read " << fast[k].read.value << "\n"
          << h.to_string();
    }
  }
}

TEST(TimedFastPathTest, LargeHistorySpotCheck) {
  Rng rng(2718);
  ReplicaHistoryParams p;
  p.num_ops = 400;
  p.num_sites = 6;
  p.num_objects = 8;
  p.max_delay_micros = 900;
  const History h = replica_history(p, rng);
  for (const std::int64_t d : {0, 100, 1000, 5000}) {
    const TimedSpecEpsilon spec{SimTime::micros(d), SimTime::micros(50)};
    const auto fast = reads_on_time(h, spec);
    const auto naive = naive_reads_on_time(h, spec);
    ASSERT_EQ(fast.late_reads.size(), naive.late_reads.size());
    for (std::size_t k = 0; k < fast.late_reads.size(); ++k) {
      ASSERT_EQ(fast.late_reads[k].w_r, naive.late_reads[k].w_r);
    }
  }
}

TEST(CheckerFastPathTest, NodesAreCountedAndPruned) {
  // On a mixed batch the pruned engine must expand no more nodes than the
  // exhaustive one in total (that is the point of the constraint graph).
  SearchLimits fast, exhaustive;
  fast.fast_paths = true;
  exhaustive.fast_paths = false;
  std::uint64_t fast_nodes = 0, exhaustive_nodes = 0;
  for (int i = 0; i < 200; ++i) {
    const History h = generate(31337, i);
    fast_nodes += check_sc(h, fast).nodes;
    exhaustive_nodes += check_sc(h, exhaustive).nodes;
  }
  EXPECT_LT(fast_nodes, exhaustive_nodes);
}

}  // namespace
}  // namespace timedc
