#include "verify.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/history.hpp"
#include "core/timed.hpp"

namespace perfbench {

using namespace timedc;

VerifyResult& VerifyResult::operator+=(const VerifyResult& o) {
  ops += o.ops;
  reads += o.reads;
  unfinished += o.unfinished;
  wrong_values += o.wrong_values;
  late_reads += o.late_reads;
  late_after_ack += o.late_after_ack;
  max_late_us = std::max(max_late_us, o.max_late_us);
  failed += o.failed;
  return *this;
}

namespace {

/// Ops per History built at once (an object group's share of the run).
constexpr std::size_t kGroupOps = 250000;

std::int64_t stamp_ns(const OpRecord& r) { return r.issue_ns + r.stamp_off_ns; }

/// Checks one object group's ops, given in program order per client.
VerifyResult verify_group(std::span<const OpRecord* const> ops,
                          std::size_t num_clients, std::int64_t delta_us) {
  VerifyResult result;
  // History conventions of the protocol experiments: a write takes effect at
  // the client's own timestamp (the client_time the server orders by, so
  // two writes the server saw as tied stay tied), a read at its completion.
  // Unfinished writes stay in: the server may have applied them and another
  // client may have read their values. History times are in nanoseconds
  // (Delta scaled to match); equal times along one client are bumped by 1ns
  // to keep each site's times increasing.
  HistoryBuilder builder(num_clients);
  std::vector<std::int64_t> last(num_clients, -1);
  std::vector<const OpRecord*> op_of;  // history index -> record
  for (const OpRecord* rp : ops) {
    const OpRecord& r = *rp;
    ++result.ops;
    if (r.done_ns == kUnfinished) ++result.unfinished;
    if (!r.is_write) ++result.reads;
    if (!r.is_write && r.done_ns == kUnfinished) continue;
    const std::int64_t t =
        std::max(r.is_write ? stamp_ns(r) : r.done_ns, last[r.client] + 1);
    last[r.client] = t;
    if (r.is_write) {
      builder.write(SiteId{r.client}, ObjectId{r.object}, Value{r.value},
                    SimTime::micros(t));
    } else {
      builder.read(SiteId{r.client}, ObjectId{r.object}, Value{r.value},
                   SimTime::micros(t));
    }
    op_of.push_back(rp);
  }
  if (op_of.empty()) return result;
  const History h = builder.build();

  std::vector<bool> bad(h.size(), false);
  for (const Operation& op : h.operations()) {
    if (!op.is_read() || op.value == kInitialValue) continue;
    const auto src = h.writer_of(op.object, op.value);
    // Unbumped clocks: the source write must have been stamped no later
    // than this read completed.
    if (!src || stamp_ns(*op_of[src->value]) > op_of[op.index.value]->done_ns) {
      bad[op.index.value] = true;
      ++result.wrong_values;
    }
  }
  const SimTime delta = SimTime::micros(delta_us * 1000);  // ns units
  const TimedCheckResult timed =
      reads_on_time(h, TimedSpecEpsilon{delta, SimTime::zero()});
  result.late_reads = timed.late_reads.size();
  for (const LateRead& late : timed.late_reads) {
    SimTime oldest = SimTime::infinity();
    bool missed_acked = false;
    for (const OpIndex w : late.w_r) {
      oldest = std::min(oldest, h.op(w).time);
      // Late with both ops taken as intervals: the read began more than
      // Delta after the write it missed was acknowledged (plus 1us, the
      // grain of the protocol's timestamps).
      const OpRecord& wr = *op_of[w.value];
      missed_acked |= wr.done_ns != kUnfinished &&
                      op_of[late.read.value]->issue_ns > wr.done_ns + delta_us * 1000 + 1000;
    }
    result.max_late_us = std::max(
        result.max_late_us, (h.op(late.read).time - delta - oldest).as_micros() / 1000);
    if (missed_acked) {
      bad[late.read.value] = true;
      ++result.late_after_ack;
    }
  }
  result.failed = result.unfinished;
  for (const bool b : bad) result.failed += b ? 1 : 0;
  return result;
}

}  // namespace

VerifyResult verify(std::span<const std::span<const OpRecord>> parts,
                    std::int64_t delta_us) {
  std::size_t total = 0;
  std::size_t num_clients = 0;
  for (const auto& part : parts) {
    total += part.size();
    for (const OpRecord& r : part) {
      num_clients = std::max<std::size_t>(num_clients, r.client + 1u);
    }
  }
  // Bucket the records by object group, keeping their order (a stable
  // counting sort), then check each group as its own History.
  const std::size_t groups = std::max<std::size_t>(1, (total + kGroupOps - 1) / kGroupOps);
  std::vector<std::size_t> start(groups + 1, 0);
  for (const auto& part : parts) {
    for (const OpRecord& r : part) ++start[r.object % groups + 1];
  }
  for (std::size_t g = 0; g < groups; ++g) start[g + 1] += start[g];
  std::vector<const OpRecord*> by_group(total);
  std::vector<std::size_t> next(start.begin(), start.end() - 1);
  for (const auto& part : parts) {
    for (const OpRecord& r : part) by_group[next[r.object % groups]++] = &r;
  }
  VerifyResult result;
  for (std::size_t g = 0; g < groups; ++g) {
    result += verify_group(std::span(by_group).subspan(start[g], start[g + 1] - start[g]),
                           num_clients, delta_us);
  }
  return result;
}

namespace {

OpRecord write_op(std::uint16_t client, std::uint32_t object,
                  std::int64_t value, std::int64_t issue_us,
                  std::int64_t done_us) {
  OpRecord r;
  r.client = client;
  r.object = object;
  r.value = value;
  r.issue_ns = issue_us * 1000;
  r.done_ns = done_us == kUnfinished ? kUnfinished : done_us * 1000;
  r.is_write = 1;
  return r;
}

OpRecord read_op(std::uint16_t client, std::uint32_t object,
                 std::int64_t value, std::int64_t issue_us,
                 std::int64_t done_us) {
  OpRecord r = write_op(client, object, value, issue_us, done_us);
  r.is_write = 0;
  return r;
}

bool expect(const char* name, std::vector<OpRecord> ops,
            std::uint64_t want_wrong, std::uint64_t want_late,
            std::uint64_t want_failed) {
  constexpr std::int64_t kDeltaUs = 20000;
  const std::span<const OpRecord> part(ops);
  const VerifyResult r = verify(std::span(&part, 1), kDeltaUs);
  const bool ok = r.wrong_values == want_wrong && r.late_reads == want_late &&
                  r.failed == want_failed;
  std::printf("%-38s wrong %llu late %llu failed %llu: %s\n", name,
              static_cast<unsigned long long>(r.wrong_values),
              static_cast<unsigned long long>(r.late_reads),
              static_cast<unsigned long long>(r.failed),
              ok ? "ok" : "MISSED");
  return ok;
}

}  // namespace

bool self_test() {
  // Two writes to object 7 by client 0, 1ms apart; client 1 reads.
  const OpRecord w1 = write_op(0, 7, 101, 1000, 1200);
  const OpRecord w2 = write_op(0, 7, 102, 2000, 2200);
  bool ok = true;
  ok &= expect("clean history", {w1, w2, read_op(1, 7, 102, 2300, 2400),
                                 read_op(1, 7, 0, 2500, 2600)},
               0, 0, 0);
  ok &= expect("stale but on time", {w1, w2, read_op(1, 7, 101, 3000, 21999)},
               0, 0, 0);
  ok &= expect("forged value never written",
               {w1, w2, read_op(1, 7, 999, 2300, 2400)}, 1, 0, 1);
  ok &= expect("forged value of another object",
               {w1, w2, write_op(2, 8, 201, 100, 200),
                read_op(1, 7, 201, 2300, 2400)},
               1, 0, 1);
  ok &= expect("forged value from the future",
               {read_op(1, 7, 101, 500, 900), w1}, 1, 0, 1);
  // w2 was acknowledged at 2200us: a read of 101 that began before
  // 2200us + Delta (+1us) is late only by w2's stamp, one that began after
  // fails.
  ok &= expect("late by stamp, began before ack+Delta",
               {w1, w2, read_op(1, 7, 101, 3000, 22001)}, 0, 1, 0);
  ok &= expect("forged late read (Def 1)",
               {w1, w2, read_op(1, 7, 101, 23300, 23400)}, 0, 1, 1);
  ok &= expect("forged late initial-value read",
               {w1, read_op(1, 7, 0, 22300, 22400)}, 0, 1, 1);
  // Two writes stamped in the same microsecond: the server keeps the first
  // to arrive, and neither is newer than the other.
  ok &= expect("tied writes, first one kept",
               {write_op(0, 9, 301, 5000, 5100), write_op(2, 9, 302, 5000, 5200),
                read_op(1, 9, 301, 30000, 30100)},
               0, 0, 0);
  OpRecord lost = read_op(1, 7, 0, 3000, kUnfinished);
  ok &= expect("unfinished at the bell", {w1, lost}, 0, 0, 1);
  return ok;
}

}  // namespace perfbench
