// Live introspection: StatsBoard/StatsHub semantics, the AtomicLogHistogram
// quantiles, and the wire-level kStatsRequest/kStatsReply path end to end —
// a poller scraping a live multi-reactor server over a real TCP connection,
// including the reader-computed stall watchdog.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/node.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"
#include "obs/stats_board.hpp"
#include "protocol/messages.hpp"

namespace timedc {
namespace {

TEST(AtomicLogHistogram, EmptyReportsMinusOne) {
  AtomicLogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), -1);
  EXPECT_EQ(h.percentile(0.99), -1);
}

TEST(AtomicLogHistogram, QuantilesAreOrderedAndBounded) {
  AtomicLogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i);
  const std::int64_t p50 = h.percentile(0.50);
  const std::int64_t p95 = h.percentile(0.95);
  const std::int64_t p99 = h.percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.max());
  EXPECT_EQ(h.max(), 1000);
  // Log2 buckets: estimates are coarse but must land within a factor-of-2
  // band of the exact answer.
  EXPECT_GE(p50, 250);
  EXPECT_LE(p50, 1000);
  EXPECT_GE(p99, 500);
}

TEST(AtomicLogHistogram, ZeroAndNegativeLandInBucketZero) {
  AtomicLogHistogram h;
  h.record(0);
  h.record(-5);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.percentile(0.99), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(StatsBoard, CollectEmitsEveryKeyInEnumOrder) {
  StatsBoard board(42);
  std::vector<StatsEntry> out;
  board.collect(/*now_us=*/1000, out);
  ASSERT_EQ(out.size(), kNumStatKeys);
  for (std::size_t i = 0; i < kNumStatKeys; ++i) {
    EXPECT_EQ(out[i].key, i) << "key order";
    EXPECT_NE(to_cstring(static_cast<StatKey>(i)), nullptr);
  }
  EXPECT_EQ(to_cstring(StatKey::kNumStatKeys), nullptr);
}

TEST(StatsBoard, WatchdogAgeIsComputedByTheReader) {
  StatsBoard board(1);
  std::vector<StatsEntry> out;
  // Before the first tick: no last-tick-end, age is unknown (-1).
  board.collect(5000, out);
  const auto find = [&](StatKey k) {
    return out[static_cast<std::size_t>(k)].value;
  };
  EXPECT_EQ(find(StatKey::kLastTickAgeUs), -1);
  EXPECT_EQ(find(StatKey::kEpsUs), -1);
  EXPECT_EQ(find(StatKey::kEffectiveDeltaUs), -1);

  // A reactor that last ticked at t=2000 read at t=9000 is 7000us stalled —
  // computed from the reader's clock, exactly what a wedged loop can no
  // longer refresh.
  board.set(StatKey::kLastTickEndUs, 2000);
  out.clear();
  board.collect(9000, out);
  EXPECT_EQ(find(StatKey::kLastTickAgeUs), 7000);

  // Never negative, even with clock skew between reader and reactor.
  out.clear();
  board.collect(1500, out);
  EXPECT_EQ(find(StatKey::kLastTickAgeUs), 0);
}

TEST(StatsBoard, StageAndStalenessSummariesFlowIntoCollect) {
  StatsBoard board(1);
  for (int i = 0; i < 100; ++i) {
    board.record_stage(Stage::kDecode, 10);
    board.record_staleness(5000);
  }
  std::vector<StatsEntry> out;
  board.collect(0, out);
  const auto find = [&](StatKey k) {
    return out[static_cast<std::size_t>(k)].value;
  };
  EXPECT_GT(find(StatKey::kStageDecodeP50Us), 0);
  EXPECT_EQ(find(StatKey::kStageDecodeMaxUs), 10);
  EXPECT_GT(find(StatKey::kStalenessP99Us), 0);
  EXPECT_EQ(find(StatKey::kStalenessMaxUs), 5000);
  // Untouched stages stay "no data".
  EXPECT_EQ(find(StatKey::kStageApplyMaxUs), -1);
  EXPECT_EQ(find(StatKey::kStageApplyP50Us), -1);
}

TEST(StatsHub, RegistersUpToCapacityAndFindsBySite) {
  StatsHub hub;
  std::vector<std::unique_ptr<StatsBoard>> boards;
  for (std::size_t i = 0; i < StatsHub::kMaxBoards; ++i) {
    boards.push_back(std::make_unique<StatsBoard>(100 + i));
    EXPECT_TRUE(hub.add(boards.back().get()));
  }
  StatsBoard overflow(999);
  EXPECT_FALSE(hub.add(&overflow));
  EXPECT_EQ(hub.size(), StatsHub::kMaxBoards);
  EXPECT_EQ(hub.find(105), boards[5].get());
  EXPECT_EQ(hub.find(999), nullptr);
}

// One connection to ANY reactor scrapes EVERY reactor's board: a
// two-reactor node (the timedc-server daemon) serves real traffic first so
// the boards carry nonzero ops, then a separate poller transport issues
// one kStatsRequest for all sites.
TEST(Introspection, WireScrapeOfLiveMultiReactorServer) {
  constexpr std::size_t kReactors = 2;
  constexpr std::uint32_t kSiteBase = 0;  // sites 0 and 1 own every object
  constexpr int kOps = 300;

  cluster::NodeConfig config;
  config.reactors = kReactors;
  config.site_base = kSiteBase;
  config.flight_capacity = 1u << 10;
  std::string error;
  const auto node = cluster::Node::create(config, &error);
  ASSERT_NE(node, nullptr) << error;
  const std::uint16_t port = node->port();
  node->start();

  // One continuous loop run, phases chained by callbacks: drive fetches at
  // both server sites, then an all-sites scrape, then a targeted scrape.
  net::EventLoop loop;
  net::TcpTransport tx(loop, SimTime::millis(100));
  const SiteId site0{kSiteBase};
  const SiteId site1{kSiteBase + 1};
  tx.add_route(site0, "127.0.0.1", port);
  tx.add_route(site1, "127.0.0.1", port);
  std::map<std::uint32_t, std::map<std::uint16_t, std::int64_t>> scraped;
  std::map<std::uint32_t, std::map<std::uint16_t, std::int64_t>> targeted;
  std::uint64_t reply_seq = 0;
  int replies = 0;
  int scrape_attempts = 0;
  constexpr std::uint64_t kScrapeSeqBase = 4242;
  constexpr std::uint64_t kTargetedSeq = 9999;
  const auto send_all_sites_scrape = [&] {
    wire::StatsRequest rq;
    rq.seq = kScrapeSeqBase + static_cast<std::uint64_t>(scrape_attempts++);
    rq.target_site = wire::kAllSites;
    ASSERT_TRUE(tx.send_stats_request(SiteId{500}, site0, rq));
  };
  tx.register_site(SiteId{500}, [&](SiteId, const Message& m) {
    ASSERT_TRUE(std::holds_alternative<FetchReply>(m));
    if (++replies == kOps) send_all_sites_scrape();
  });
  // Boards publish at tick cadence, so a scrape racing the very tick that
  // flushed the last replies may read a board an in-progress tick early;
  // monitors (and this test) re-poll until the counters converge.
  const auto boards_converged = [&] {
    if (scraped.size() != kReactors) return false;
    for (auto& [site, board] : scraped) {
      if (board[static_cast<std::uint16_t>(StatKey::kTicks)] <= 0 ||
          board[static_cast<std::uint16_t>(StatKey::kOpsApplied)] <= 0) {
        return false;
      }
    }
    return true;
  };
  tx.set_stats_reply_handler(
      [&](SiteId, std::uint64_t seq, std::span<const wire::StatsRow> rows) {
        if (seq != kTargetedSeq) {
          reply_seq = seq;
          scraped.clear();
          for (const wire::StatsRow& row : rows) {
            scraped[row.site][row.key] = row.value;
          }
          if (!boards_converged() && scrape_attempts < 500) {
            loop.run_after(SimTime::millis(2),
                           [&] { send_all_sites_scrape(); });
            return;
          }
          wire::StatsRequest rq;
          rq.seq = kTargetedSeq;
          rq.target_site = kSiteBase + 1;
          ASSERT_TRUE(tx.send_stats_request(SiteId{500}, site1, rq));
        } else {
          for (const wire::StatsRow& row : rows) {
            targeted[row.site][row.key] = row.value;
          }
          loop.stop();
        }
      });
  loop.post([&] {
    for (int i = 0; i < kOps; ++i) {
      FetchRequest req;
      req.object = ObjectId{static_cast<std::uint32_t>(i % 8)};
      req.reply_to = SiteId{500};
      req.request_id = static_cast<std::uint64_t>(i + 1);
      tx.send_message(SiteId{500}, i % 2 == 0 ? site0 : site1, Message{req},
                      64);
    }
  });
  loop.run_after(SimTime::seconds(30), [&] { loop.stop(); });  // hang guard
  loop.run();
  ASSERT_EQ(replies, kOps);

  EXPECT_GE(reply_seq, kScrapeSeqBase);
  ASSERT_EQ(scraped.size(), kReactors) << "one board per reactor";
  std::int64_t total_reads = 0;
  for (std::size_t r = 0; r < kReactors; ++r) {
    auto& board = scraped[kSiteBase + static_cast<std::uint32_t>(r)];
    ASSERT_EQ(board.size(), kNumStatKeys);
    const auto val = [&](StatKey k) {
      return board[static_cast<std::uint16_t>(k)];
    };
    EXPECT_GT(val(StatKey::kTicks), 0) << "reactor " << r;
    EXPECT_GT(val(StatKey::kFramesIn), 0) << "reactor " << r;
    EXPECT_GT(val(StatKey::kOpsApplied), 0) << "reactor " << r;
    EXPECT_GE(val(StatKey::kLastTickAgeUs), 0) << "reactor " << r;
    total_reads += val(StatKey::kReadsServed);
    // Staleness percentiles are finite once reads flowed on this reactor.
    if (val(StatKey::kReadsServed) > 0 && val(StatKey::kStalenessMaxUs) >= 0) {
      EXPECT_GE(val(StatKey::kStalenessP50Us), 0);
      EXPECT_LE(val(StatKey::kStalenessP50Us), val(StatKey::kStalenessMaxUs));
    }
  }
  EXPECT_EQ(total_reads, kOps);

  // The targeted scrape (issued from inside the all-sites reply handler)
  // returned exactly one board.
  ASSERT_EQ(targeted.size(), 1u);
  EXPECT_EQ(targeted.begin()->first, kSiteBase + 1);

  // Transport stats are loop-thread-owned; read them only after stop()
  // has joined the reactor threads.
  node->stop(0);
  EXPECT_GT(node->transport(0).stats().stats_requests_served +
                node->transport(1).stats().stats_requests_served,
            0u);
}

// The local path: a transport that hosts the polled site answers through
// the loop, so timedc-server can self-scrape for --metrics-out dumps.
TEST(Introspection, LocalStatsRequestAnswersFromOwnHub) {
  net::EventLoop loop;
  net::TcpTransport tx(loop);
  StatsBoard board(77);
  StatsHub hub;
  hub.add(&board);
  // No set_stats_board here: the tick hook would republish live transport
  // counters over the values this test plants by hand. The hub alone is
  // what the local answer path consults.
  tx.set_stats_hub(&hub);
  tx.register_site(SiteId{5}, [](SiteId, const Message&) {});
  board.set(StatKey::kOpsApplied, 123);

  std::size_t rows_seen = 0;
  std::int64_t ops = -1;
  tx.set_stats_reply_handler(
      [&](SiteId from, std::uint64_t seq, std::span<const wire::StatsRow> rows) {
        EXPECT_EQ(from, SiteId{5});
        EXPECT_EQ(seq, 9u);
        rows_seen = rows.size();
        for (const wire::StatsRow& r : rows) {
          if (r.key == static_cast<std::uint16_t>(StatKey::kOpsApplied)) {
            ops = r.value;
          }
        }
        loop.stop();
      });
  loop.post([&] {
    wire::StatsRequest rq;
    rq.seq = 9;
    ASSERT_TRUE(tx.send_stats_request(SiteId{5}, SiteId{5}, rq));
  });
  loop.run_after(SimTime::seconds(10), [&] { loop.stop(); });  // hang guard
  loop.run();
  EXPECT_EQ(rows_seen, kNumStatKeys);
  EXPECT_EQ(ops, 123);
}

}  // namespace
}  // namespace timedc
