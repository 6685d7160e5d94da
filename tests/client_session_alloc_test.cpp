// Allocation gate for TSC client sessions over real sockets.
//
// A load generator that renews its clients (a fresh TimedSerialCache on a new
// site every 512 ops, as perfbench's cluster_ring workload does) pays each
// session's set-up on the client's event-loop thread: the client object,
// its handler, and the growth of its cache table and expiry index. This
// test runs such sessions against an in-process timedc server (a
// cluster::Node on loopback) and bounds what they cost the client thread,
// allocations per op once every slot has renewed, so a per-entry node or a
// per-op allocation on the client path shows up as a failure.
//
// Accounting: this binary replaces global operator new. Only allocations
// made on the client loop thread while the window is open are counted; the
// server's reactor threads and gtest run outside it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "clocks/physical_clock.hpp"
#include "cluster/node.hpp"
#include "common/rng.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"
#include "protocol/timed_serial_cache.hpp"

namespace {
thread_local bool t_counting = false;
thread_local std::uint64_t t_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (t_counting) ++t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace timedc {
namespace {

constexpr std::uint32_t kSlots = 8;          // clients, one op in flight each
constexpr std::int64_t kSessionOps = 512;    // ops per client session
constexpr std::uint32_t kWarmSessions = 16;  // 2 per slot before the window
constexpr std::uint32_t kMeasuredSessions = 64;
constexpr std::uint32_t kClientSiteBase = 1000;
constexpr double kMaxAllocsPerOp = 0.05;

/// Closed-loop sessions over one client transport, driven from a tick-end
/// hook like perfbench's load worker: 20% writes over 1,024 objects with
/// Zipf 0.6 popularity, Delta 20 ms, mark-old caches.
class RenewingLoad {
 public:
  RenewingLoad(net::EventLoop& loop, net::TcpTransport& tx)
      : loop_(loop), tx_(tx), zipf_(1024, 0.6) {
    ready_.reserve(kSlots);
    issuing_.reserve(kSlots);
    for (std::uint32_t k = 0; k < kSlots; ++k) {
      clients_.push_back(new_client());
      left_.push_back(kSessionOps);
      ready_.push_back(k);
    }
    loop_.add_tick_end_hook([this] { pump(); });
  }

  std::uint64_t window_ops() const { return window_ops_; }
  std::uint64_t window_allocs() const { return window_allocs_; }
  std::uint32_t sessions() const { return sessions_; }

 private:
  std::unique_ptr<TimedSerialCache> new_client() {
    ++sessions_;
    auto client = std::make_unique<TimedSerialCache>(
        tx_, SiteId{next_site_++}, SiteId{0}, &clock_, SimTime::millis(20),
        /*mark_old=*/true, MessageSizes{});
    client->attach();
    return client;
  }

  void pump() {
    // Synchronous completions (cache hits) refill ready_ while it is
    // walked, so drain it until a pass leaves every client waiting on the
    // wire.
    while (!ready_.empty()) {
      issuing_.clear();
      issuing_.swap(ready_);
      for (const std::uint32_t k : issuing_) issue(k);
    }
    if (draining_ && in_flight_ == 0) {
      t_counting = false;
      window_allocs_ = t_allocs;
      loop_.stop();
    }
  }

  void issue(std::uint32_t k) {
    if (left_[k] == 0) {
      if (sessions_ == kWarmSessions + kSlots && !t_counting) {
        // Every slot has renewed twice: the window opens.
        t_allocs = 0;
        t_counting = true;
      }
      if (sessions_ == kWarmSessions + kSlots + kMeasuredSessions) {
        draining_ = true;
        return;
      }
      // As perfbench does: the old site keeps a no-op handler.
      tx_.register_site(clients_[k]->site(), [](SiteId, const Message&) {});
      clients_[k] = new_client();
      left_[k] = kSessionOps;
    }
    --left_[k];
    ++in_flight_;
    const ObjectId object{static_cast<std::uint32_t>(zipf_.sample(rng_))};
    if (rng_.uniform_int(0, 99) < 20) {
      clients_[k]->write(object, Value{++value_seq_},
                         [this, k](SimTime) { done(k); });
    } else {
      clients_[k]->read(object, [this, k](Value, SimTime) { done(k); });
    }
  }

  void done(std::uint32_t k) {
    --in_flight_;
    if (t_counting) ++window_ops_;
    ready_.push_back(k);
  }

  net::EventLoop& loop_;
  net::TcpTransport& tx_;
  PerfectClock clock_;
  Rng rng_{42};
  ZipfDistribution zipf_;
  std::vector<std::unique_ptr<TimedSerialCache>> clients_;
  std::vector<std::int64_t> left_;
  std::vector<std::uint32_t> ready_;
  std::vector<std::uint32_t> issuing_;  // reused swap target
  std::uint32_t next_site_ = kClientSiteBase;
  std::uint32_t sessions_ = 0;
  std::uint32_t in_flight_ = 0;
  std::int64_t value_seq_ = 0;
  bool draining_ = false;
  std::uint64_t window_ops_ = 0;
  std::uint64_t window_allocs_ = 0;
};

TEST(ClientSessionAllocs, RenewedTscSessionsStayUnderTheAllocationBudget) {
  std::string error;
  const std::unique_ptr<cluster::Node> server =
      cluster::Node::create(cluster::NodeConfig{}, &error);
  ASSERT_NE(server, nullptr) << error;
  server->start();

  net::EventLoop loop;
  net::TcpTransport tx(loop);
  tx.add_route(SiteId{0}, "127.0.0.1", server->port());
  RenewingLoad load(loop, tx);
  loop.post([] {});  // the first tick issues every slot's first op
  bool hung = false;
  loop.run_after(SimTime::seconds(60), [&] {
    hung = true;
    loop.stop();
  });
  loop.run();
  server->stop(0);

  ASSERT_FALSE(hung) << "sessions did not finish within 60 s";
  EXPECT_EQ(load.sessions(), kWarmSessions + kSlots + kMeasuredSessions);
  ASSERT_GE(load.window_ops(),
            static_cast<std::uint64_t>(kMeasuredSessions * kSessionOps));
  const double per_op = static_cast<double>(load.window_allocs()) /
                        static_cast<double>(load.window_ops());
  std::printf("client loop thread: %llu allocations over %llu ops = %.4f/op\n",
              static_cast<unsigned long long>(load.window_allocs()),
              static_cast<unsigned long long>(load.window_ops()), per_op);
  EXPECT_LE(per_op, kMaxAllocsPerOp);
  EXPECT_EQ(tx.stats().unroutable, 0u);
}

}  // namespace
}  // namespace timedc
