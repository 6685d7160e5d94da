#include "core/timed.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "clocks/physical_clock.hpp"
#include "common/assert.hpp"

namespace timedc {
namespace {

/// Shared scan: for each read, collect W_r via a predicate deciding whether
/// a candidate write w' interferes given the source write (or none).
template <typename Interferes>
TimedCheckResult scan(const History& h, Interferes&& interferes) {
  TimedCheckResult result;
  for (const Operation& r : h.operations()) {
    if (!r.is_read()) continue;
    const std::optional<OpIndex> src = h.forced_source(r.index);
    std::vector<OpIndex> w_r;
    for (OpIndex w2 : h.writes_to(r.object)) {
      if (src && w2 == *src) continue;
      if (interferes(src, w2, r.index)) w_r.push_back(w2);
    }
    if (!w_r.empty()) {
      result.all_on_time = false;
      result.late_reads.push_back(LateRead{r.index, src, std::move(w_r)});
    }
  }
  return result;
}

}  // namespace

TimedCheckResult reads_on_time(const History& h, const TimedSpecPerfect& spec) {
  return reads_on_time(h, TimedSpecEpsilon{spec.delta, SimTime::zero()});
}

TimedCheckResult reads_on_time(const History& h, const TimedSpecEpsilon& spec) {
  // Both Def 1/2 predicates are monotone in T(w'): "definitely newer than
  // the source" admits a suffix of the time-sorted writes, "definitely more
  // than delta old" a prefix. So W_r is a contiguous run of
  // writes_to_by_time(X) found by two binary searches — O(R log W) overall
  // instead of the naive O(R x W) product (property-tested equivalent).
  TimedCheckResult result;
  for (const Operation& r : h.operations()) {
    if (!r.is_read()) continue;
    const std::optional<OpIndex> src = h.forced_source(r.index);
    const auto& ws = h.writes_to_by_time(r.object);
    // First write definitely newer than the source. A read of the initial
    // value has a virtual source at -infinity: every write qualifies.
    auto first_newer = ws.begin();
    if (src) {
      const SimTime t_src = h.op(*src).time;
      first_newer = std::partition_point(ws.begin(), ws.end(), [&](OpIndex w) {
        return !definitely_before(t_src, h.op(w).time, spec.eps);
      });
    }
    // Within the newer suffix, "definitely older than T(r) - delta" holds on
    // a prefix. (The source itself can never land in the run: it is not
    // definitely newer than itself.)
    const SimTime bound = r.time - spec.delta;
    const auto end_stale = std::partition_point(first_newer, ws.end(), [&](OpIndex w) {
      return definitely_before(h.op(w).time, bound, spec.eps);
    });
    if (first_newer != end_stale) {
      std::vector<OpIndex> w_r(first_newer, end_stale);
      std::sort(w_r.begin(), w_r.end());  // report in history (append) order
      result.all_on_time = false;
      result.late_reads.push_back(LateRead{r.index, src, std::move(w_r)});
    }
  }
  return result;
}

TimedCheckResult reads_on_time(const History& h, const TimedSpecXi& spec) {
  TIMEDC_ASSERT(spec.xi != nullptr);
  TIMEDC_ASSERT(h.has_logical_times());
  const auto& lt = h.logical_times();
  const XiMap& xi = *spec.xi;
  return scan(h, [&](std::optional<OpIndex> src, OpIndex w2, OpIndex r) {
    const double x_w2 = xi(lt[w2.value]);
    const double x_r = xi(lt[r.value]);
    const bool newer = !src || xi(lt[src->value]) < x_w2;
    const bool stale = x_w2 < x_r - spec.delta;
    return newer && stale;
  });
}

bool is_timed_serialization(const History& h, std::span<const OpIndex> order,
                            const TimedSpecEpsilon& spec) {
  // Last write per object seen so far in S.
  std::unordered_map<ObjectId, OpIndex> last_write;
  for (OpIndex i : order) {
    const Operation& op = h.op(i);
    if (op.is_write()) {
      last_write[op.object] = i;
      continue;
    }
    const auto src = last_write.find(op.object);
    const SimTime t_r = op.time;
    for (OpIndex w2 : h.writes_to(op.object)) {
      if (src != last_write.end() && w2 == src->second) continue;
      const SimTime t_w2 = h.op(w2).time;
      const bool newer =
          src == last_write.end() ||
          definitely_before(h.op(src->second).time, t_w2, spec.eps);
      if (newer && definitely_before(t_w2, t_r - spec.delta, spec.eps)) {
        return false;
      }
    }
  }
  return true;
}

std::vector<OpIndex> interference_set(const History& h, OpIndex read,
                                      SimTime delta, SimTime eps) {
  TIMEDC_ASSERT(h.op(read).is_read());
  const auto result = reads_on_time(h, TimedSpecEpsilon{delta, eps});
  for (const LateRead& lr : result.late_reads) {
    if (lr.read == read) return lr.w_r;
  }
  return {};
}

SimTime min_timed_delta(const History& h) {
  return min_timed_delta(h, SimTime::zero());
}

SimTime min_timed_delta(const History& h, SimTime eps) {
  SimTime worst = SimTime::zero();
  for (const Operation& r : h.operations()) {
    if (!r.is_read()) continue;
    const std::optional<OpIndex> src = h.forced_source(r.index);
    for (OpIndex w2 : h.writes_to(r.object)) {
      if (src && w2 == *src) continue;
      const SimTime t_w2 = h.op(w2).time;
      if (src && !definitely_before(h.op(*src).time, t_w2, eps)) continue;
      // W_r empty at delta iff NOT (t_w2 + eps < t_r - delta), i.e.
      // delta >= t_r - t_w2 - eps.
      const SimTime gap = r.time - t_w2 - eps;
      worst = max(worst, gap);
    }
  }
  return worst;
}

std::vector<SimTime> staleness_gaps(const History& h) {
  std::vector<SimTime> gaps;
  for (const Operation& r : h.operations()) {
    if (!r.is_read()) continue;
    const std::optional<OpIndex> src = h.forced_source(r.index);
    for (OpIndex w2 : h.writes_to(r.object)) {
      if (src && w2 == *src) continue;
      const SimTime t_w2 = h.op(w2).time;
      if (src && t_w2 <= h.op(*src).time) continue;
      const SimTime gap = r.time - t_w2;
      if (gap > SimTime::zero()) gaps.push_back(gap);
    }
  }
  std::sort(gaps.begin(), gaps.end(), std::greater<>());
  return gaps;
}

std::vector<ReadStaleness> per_read_staleness(const History& h) {
  // A read is as stale as the oldest write it missed: the first write to
  // its object later than its source (for an initial-value read, the
  // object's first write). One binary search over writes_to_by_time per
  // read, O(R log W), instead of the O(R x W) scan over every write
  // (property-tested equivalent).
  std::vector<ReadStaleness> out;
  for (const Operation& r : h.operations()) {
    if (!r.is_read()) continue;
    ReadStaleness rs{r.index, SimTime::zero()};
    const auto& ws = h.writes_to_by_time(r.object);
    auto first_missed = ws.begin();
    if (const std::optional<OpIndex> src = h.forced_source(r.index)) {
      const SimTime t_src = h.op(*src).time;
      first_missed = std::partition_point(
          ws.begin(), ws.end(), [&](OpIndex w) { return h.op(w).time <= t_src; });
    }
    if (first_missed != ws.end()) {
      rs.staleness = max(rs.staleness, r.time - h.op(*first_missed).time);
    }
    out.push_back(rs);
  }
  return out;
}

}  // namespace timedc
