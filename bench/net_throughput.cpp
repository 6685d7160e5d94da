// PERF — net_throughput: the real-socket serving stack's throughput
// recorder behind BENCH_net.json.
//
// Measures aggregate fetch throughput against a ReactorGroup (N
// single-threaded reactors sharing one SO_REUSEPORT listening port, each
// hosting an ObjectServer) from raw pipelined client connections, sweeping
// the reactor count 1..max. The client side is deliberately NOT the TSC
// cache stack: each connection pre-encodes one block of `--pipeline`
// FetchRequest frames once, then replays that block with plain write() and
// counts replies with wire::peek_frame (header-only, no body decode, no
// allocation), so the bench measures the server hot path — decode view,
// batch apply, coalesced sendmsg flush — and not client bookkeeping.
//
// Allocation accounting: this binary overrides global operator new.
// Reactor threads tag themselves via ReactorGroup::start's on_thread_start
// hook, and every allocation they make inside the steady-state measurement
// window is counted. The recorded `reactor_allocs` must be 0: after
// warmup (which populates the object maps, cacher sets, per-connection
// buffers and the dirty-connection flush lists) the serve path touches no
// heap. CI gates on that and on a generous ops/s floor. When a window
// counts any allocation, the stack of its first one is printed to stderr
// (symbolized with -rdynamic; `addr2line -fCe net_throughput ADDR` resolves
// the rest), so a gate failure names its call site.
//
// The sweep runs with the FULL observability stack armed (per-reactor
// StatsBoard, flight recorder, 1-in-64 stage sampling) — the shape
// production serves in — and the zero-allocation gate applies unchanged.
// One extra run of the largest point with observability off records the
// overhead as the "flight_recorder" block of BENCH_net.json.
//
// Open loop: --open-loop RATE replaces the closed-loop top-up with a fixed
// arrival schedule (blocks of `--pipeline` ops per connection, evenly
// spaced), charging each op's latency from its INTENDED arrival time, so
// server stalls surface as tail latency instead of silently slowing the
// offered load (no coordinated omission). Open-loop runs measure a single
// point at --reactors-max instead of sweeping.
//
// Usage: net_throughput [--quick] [--out FILE.json] [--reactors-max N]
//                       [--connections-per-reactor C] [--pipeline P]
//                       [--measure-s S] [--objects K] [--open-loop RATE]
#include <execinfo.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "net/reactor_group.hpp"
#include "net/wire.hpp"
#include "protocol/messages.hpp"
#include "protocol/server.hpp"

// ---------------------------------------------------------------------------
// Global allocation accounting. Reactor threads set t_on_reactor; every
// operator-new on such a thread while the measurement window is open is
// counted. The overrides otherwise forward to malloc/free, so behaviour is
// unchanged outside the counting.
namespace {
std::atomic<bool> g_alloc_window{false};
std::atomic<std::uint64_t> g_reactor_allocs{0};
thread_local bool t_on_reactor = false;

// The stack of the window's first counted allocation. One thread claims the
// slot; the depth is published last, so a reader that sees it sees the
// frames. t_capturing keeps anything backtrace() allocates out of the count.
constexpr int kMaxStackFrames = 32;
void* g_first_stack[kMaxStackFrames];
std::atomic<bool> g_stack_claimed{false};
std::atomic<int> g_stack_depth{0};
thread_local bool t_capturing = false;

inline void note_alloc() {
  if (!t_on_reactor || t_capturing ||
      !g_alloc_window.load(std::memory_order_relaxed)) {
    return;
  }
  g_reactor_allocs.fetch_add(1, std::memory_order_relaxed);
  if (g_stack_claimed.exchange(true, std::memory_order_relaxed)) return;
  t_capturing = true;
  g_stack_depth.store(backtrace(g_first_stack, kMaxStackFrames),
                      std::memory_order_release);
  t_capturing = false;
}

void open_alloc_window() {
  g_reactor_allocs.store(0, std::memory_order_relaxed);
  g_stack_depth.store(0, std::memory_order_relaxed);
  g_stack_claimed.store(false, std::memory_order_relaxed);
  g_alloc_window.store(true, std::memory_order_relaxed);
}

void print_first_alloc_stack(std::size_t reactors, std::uint64_t allocs) {
  std::fprintf(stderr,
               "net_throughput: %zu reactor(s): %llu counted reactor "
               "allocation(s); the first one's stack:\n",
               reactors, static_cast<unsigned long long>(allocs));
  const int depth = g_stack_depth.load(std::memory_order_acquire);
  if (depth <= 0) {
    std::fprintf(stderr, "  (not captured)\n");
    return;
  }
  std::fflush(stderr);
  backtrace_symbols_fd(g_first_stack, depth, STDERR_FILENO);
}

void* checked_malloc(std::size_t n) {
  note_alloc();
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t n) { return checked_malloc(n); }
void* operator new[](std::size_t n) { return checked_malloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(n != 0 ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t a) {
  note_alloc();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(a), n != 0 ? n : 1) != 0) {
    throw std::bad_alloc{};
  }
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
// ---------------------------------------------------------------------------

namespace timedc {
namespace {

/// The recorded single-reactor, pre-batching baseline this bench's speedup
/// is measured against (timedc-load closed loop against one shard, PR 6).
constexpr double kBaselineOpsPerSec = 129000.0;

struct Options {
  bool quick = false;
  std::string out = "BENCH_net.json";
  std::size_t reactors_max = 4;
  std::size_t conns_per_reactor = 2;
  std::size_t pipeline = 128;  // frames per pre-encoded block
  double measure_s = 2.0;
  double warmup_s = 0.4;
  std::size_t objects = 64;  // distinct objects per connection
  double open_loop = 0;      // aggregate ops/s; 0 = closed loop
};

std::int64_t now_us() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec * 1000000LL + ts.tv_nsec / 1000;
}

/// One raw pipelined client connection. The same pre-encoded request block
/// is replayed for the whole run; replies are counted with peek_frame.
struct RawConn {
  int fd = -1;
  bool connected = false;
  std::uint32_t client_site = 0;
  std::uint32_t server_site = 0;
  // Write side: how many whole blocks remain to send, and the offset into
  // the block currently on the wire. The bytes are always `block`.
  std::vector<std::uint8_t> block;
  std::size_t blocks_pending = 0;
  std::size_t block_off = 0;
  // Read side: scan buffer with a carried partial-frame tail.
  std::vector<std::uint8_t> rbuf = std::vector<std::uint8_t>(256 * 1024);
  std::size_t rlen = 0;
  std::size_t outstanding = 0;  // requests sent or queued, reply not seen
  std::uint64_t completed = 0;
  // Latency bookkeeping: one intended-arrival stamp per outstanding op.
  std::deque<std::int64_t> stamps;
  // Open loop: this connection's block arrival schedule.
  double next_block_at_us = 0;
  double block_period_us = 0;
  std::deque<std::int64_t> backlog;  // intended stamps of unsent blocks
};

void die(const char* what) {
  std::perror(what);
  std::exit(1);
}

int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) die("socket");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 &&
      errno != EINPROGRESS) {
    die("connect");
  }
  return fd;
}

/// Enqueue one block of requests (bookkeeping only; bytes move in
/// pump_writes). `intended_us` stamps every op in the block.
void enqueue_block(RawConn& c, std::size_t pipeline, std::int64_t intended_us) {
  ++c.blocks_pending;
  c.outstanding += pipeline;
  for (std::size_t j = 0; j < pipeline; ++j) c.stamps.push_back(intended_us);
}

/// Write as much queued block data as the socket accepts.
/// Returns false when the connection died.
bool pump_writes(RawConn& c) {
  while (c.blocks_pending > 0) {
    const ssize_t n = ::send(c.fd, c.block.data() + c.block_off,
                             c.block.size() - c.block_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    c.block_off += static_cast<std::size_t>(n);
    if (c.block_off == c.block.size()) {
      c.block_off = 0;
      --c.blocks_pending;
    }
  }
  return true;
}

/// Read and count replies; records per-op latency into `lat` (closed loop
/// passes nullptr). Returns false when the connection died.
bool pump_reads(RawConn& c, std::vector<std::int64_t>* lat) {
  for (;;) {
    if (c.rlen == c.rbuf.size()) break;  // scan below will make room
    const ssize_t n =
        ::recv(c.fd, c.rbuf.data() + c.rlen, c.rbuf.size() - c.rlen, 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    c.rlen += static_cast<std::size_t>(n);
    // Header-only scan: count whole frames, keep the partial tail.
    std::size_t off = 0;
    const std::int64_t t = now_us();
    for (;;) {
      const wire::FrameView view = wire::peek_frame(
          std::span<const std::uint8_t>(c.rbuf.data() + off, c.rlen - off));
      if (view.status == wire::DecodeStatus::kNeedMore) break;
      if (!view.ok()) {
        std::fprintf(stderr, "net_throughput: bad reply frame (%s)\n",
                     wire::to_cstring(view.status));
        return false;
      }
      off += view.consumed;
      ++c.completed;
      --c.outstanding;
      if (!c.stamps.empty()) {
        if (lat != nullptr) lat->push_back(t - c.stamps.front());
        c.stamps.pop_front();
      }
    }
    if (off > 0) {
      std::memmove(c.rbuf.data(), c.rbuf.data() + off, c.rlen - off);
      c.rlen -= off;
    }
  }
  return true;
}

struct PointResult {
  std::size_t reactors = 0;
  std::size_t connections = 0;
  double ops_per_sec = 0;
  std::uint64_t ops = 0;
  std::uint64_t reactor_allocs = 0;
  double allocs_per_op = 0;
  double frames_per_sendmsg = 0;  // server-side coalescing factor
  std::uint64_t steered = 0;
  std::uint64_t batch_flushes = 0;
  std::uint64_t flight_recorded = 0;  // flight events across all reactors
  // Open loop only:
  double offered_ops_per_sec = 0;
  std::int64_t lat_p50_us = 0;
  std::int64_t lat_p99_us = 0;
  std::int64_t lat_max_us = 0;
};

std::int64_t percentile(std::vector<std::int64_t>& v, double p) {
  if (v.empty()) return 0;
  const std::size_t at = std::min(
      v.size() - 1, static_cast<std::size_t>(p * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(at),
                   v.end());
  return v[static_cast<std::ptrdiff_t>(at)];
}

net::TcpTransportStats snapshot(net::ReactorGroup& group, std::size_t i) {
  std::promise<net::TcpTransportStats> p;
  auto fut = p.get_future();
  group.loop(i).post([&] { p.set_value(group.transport(i).stats()); });
  return fut.get();
}

/// Run one measured point: R reactors, closed-loop pipelined or open-loop
/// scheduled, warmup then a steady-state window with allocation counting.
/// `flight_on` arms the full observability stack (per-reactor StatsBoard +
/// flight recorder + stage sampling) — the shape production serves in; the
/// recorded sweep runs WITH it on and the zero-allocation gate applies
/// unchanged, which is exactly the claim the flight recorder makes.
PointResult run_point(const Options& opt, std::size_t reactors,
                      bool flight_on) {
  const std::size_t conns = reactors * opt.conns_per_reactor;
  // Sites 0..R-1 are the reactors' servers; anything else (the clients)
  // stays on whichever reactor accepted it.
  net::ReactorGroup group(
      reactors, [reactors](SiteId to) -> std::size_t {
        return to.value < reactors ? to.value : reactors;
      });
  if (flight_on) group.enable_observability(/*site_base=*/0);
  std::vector<std::unique_ptr<ObjectServer>> servers;
  for (std::size_t i = 0; i < reactors; ++i) {
    auto server = std::make_unique<ObjectServer>(
        group.transport(i), SiteId{static_cast<std::uint32_t>(i)},
        /*num_sites=*/reactors, PushPolicy::kNone, MessageSizes{});
    if (flight_on) {
      server->set_stats_board(group.stats_board(i));
      server->set_flight_recorder(group.flight_recorder(i));
    }
    server->attach();
    servers.push_back(std::move(server));
  }
  const std::uint16_t port = group.listen_shared(0);
  group.start([](std::size_t) { t_on_reactor = true; });

  // Dial and pre-encode. Connection c serves server site c % reactors and
  // identifies as client site 1000 + c (unique, so replies route cleanly
  // even after steering moves the fd between reactors).
  std::vector<RawConn> cs(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    cs[c].fd = dial(port);
    cs[c].client_site = static_cast<std::uint32_t>(1000 + c);
    cs[c].server_site = static_cast<std::uint32_t>(c % reactors);
    for (std::size_t j = 0; j < opt.pipeline; ++j) {
      const FetchRequest req{
          ObjectId{static_cast<std::uint32_t>(j % opt.objects)},
          SiteId{cs[c].client_site}, /*request_id=*/j + 1};
      wire::encode_frame(SiteId{cs[c].client_site}, SiteId{cs[c].server_site},
                         Message{req}, cs[c].block);
    }
  }

  const bool open = opt.open_loop > 0;
  const double warmup_s = opt.quick ? opt.warmup_s * 0.5 : opt.warmup_s;
  std::vector<pollfd> pfds(conns);
  std::vector<std::int64_t> latencies;
  bool measuring = false;
  std::uint64_t ops_at_start = 0;
  std::int64_t window_start_us = 0;
  std::uint64_t offered_at_start = 0;
  net::TcpTransportStats before{};

  const std::int64_t t0 = now_us();
  const std::int64_t warmup_until = t0 + static_cast<std::int64_t>(warmup_s * 1e6);
  const std::int64_t end_at =
      warmup_until + static_cast<std::int64_t>(opt.measure_s * 1e6);
  std::uint64_t offered = 0;  // blocks enqueued (open loop)

  if (open) {
    // Each connection serves an equal slice of the aggregate rate, one
    // block of `pipeline` ops at a time.
    const double conn_rate = opt.open_loop / static_cast<double>(conns);
    for (auto& c : cs) {
      c.block_period_us = 1e6 * static_cast<double>(opt.pipeline) / conn_rate;
      c.next_block_at_us = static_cast<double>(t0);
    }
  }

  for (;;) {
    const std::int64_t t = now_us();
    if (t >= end_at) break;
    if (!measuring && t >= warmup_until) {
      // Steady state begins: zero the op counters, open the allocation
      // window, snapshot the server-side flush counters.
      measuring = true;
      window_start_us = t;
      for (const auto& c : cs) ops_at_start += c.completed;
      offered_at_start = offered;
      before = snapshot(group, 0);
      for (std::size_t i = 1; i < reactors; ++i) {
        const auto s = snapshot(group, i);
        before.frames_sent += s.frames_sent;
        before.flush_syscalls += s.flush_syscalls;
        before.batch_flushes += s.batch_flushes;
      }
      open_alloc_window();
    }

    for (auto& c : cs) {
      if (open) {
        // Arrivals keep their schedule; blocks that find the pipe full
        // wait in the backlog, charged from their intended time.
        const double now_d = static_cast<double>(t);
        while (c.next_block_at_us <= now_d) {
          c.backlog.push_back(static_cast<std::int64_t>(c.next_block_at_us));
          c.next_block_at_us += c.block_period_us;
          ++offered;
        }
        while (!c.backlog.empty() && c.outstanding < 4 * opt.pipeline) {
          enqueue_block(c, opt.pipeline, c.backlog.front());
          c.backlog.pop_front();
        }
      } else {
        // Closed loop: keep up to two blocks in flight so the server
        // never drains the pipe while the next block is in transit.
        while (c.outstanding + opt.pipeline <= 2 * opt.pipeline) {
          enqueue_block(c, opt.pipeline, t);
        }
      }
    }

    for (std::size_t i = 0; i < conns; ++i) {
      pfds[i].fd = cs[i].fd;
      pfds[i].events = static_cast<short>(
          POLLIN | (cs[i].blocks_pending > 0 ? POLLOUT : 0));
      pfds[i].revents = 0;
    }
    if (::poll(pfds.data(), pfds.size(), 1) < 0 && errno != EINTR) die("poll");
    for (std::size_t i = 0; i < conns; ++i) {
      RawConn& c = cs[i];
      if ((pfds[i].revents & (POLLERR | POLLHUP)) != 0) {
        std::fprintf(stderr, "net_throughput: connection %zu dropped\n", i);
        std::exit(1);
      }
      if ((pfds[i].revents & POLLOUT) != 0 && !pump_writes(c)) die("send");
      if ((pfds[i].revents & POLLIN) != 0 &&
          !pump_reads(c, measuring && open ? &latencies : nullptr)) {
        die("recv");
      }
    }
  }

  g_alloc_window.store(false, std::memory_order_relaxed);
  const std::int64_t window_us = now_us() - window_start_us;

  PointResult r;
  r.reactors = reactors;
  r.connections = conns;
  std::uint64_t ops_total = 0;
  for (const auto& c : cs) ops_total += c.completed;
  r.ops = ops_total - ops_at_start;
  r.ops_per_sec = static_cast<double>(r.ops) * 1e6 /
                  static_cast<double>(window_us > 0 ? window_us : 1);
  r.reactor_allocs = g_reactor_allocs.load(std::memory_order_relaxed);
  if (r.reactor_allocs > 0) {
    print_first_alloc_stack(reactors, r.reactor_allocs);
  }
  r.allocs_per_op =
      r.ops > 0 ? static_cast<double>(r.reactor_allocs) /
                      static_cast<double>(r.ops)
                : 0;
  net::TcpTransportStats after{};
  for (std::size_t i = 0; i < reactors; ++i) {
    const auto s = snapshot(group, i);
    after.frames_sent += s.frames_sent;
    after.flush_syscalls += s.flush_syscalls;
    after.batch_flushes += s.batch_flushes;
    after.connections_steered_out += s.connections_steered_out;
  }
  const std::uint64_t frames = after.frames_sent - before.frames_sent;
  const std::uint64_t syscalls = after.flush_syscalls - before.flush_syscalls;
  r.frames_per_sendmsg =
      syscalls > 0 ? static_cast<double>(frames) / static_cast<double>(syscalls)
                   : 0;
  r.batch_flushes = after.batch_flushes - before.batch_flushes;
  r.steered = after.connections_steered_out;
  if (flight_on) {
    for (std::size_t i = 0; i < reactors; ++i) {
      if (const FlightRecorder* fr = group.flight_recorder(i)) {
        r.flight_recorded += fr->recorded();
      }
    }
  }
  if (open) {
    r.offered_ops_per_sec = static_cast<double>(offered - offered_at_start) *
                            static_cast<double>(opt.pipeline) * 1e6 /
                            static_cast<double>(window_us > 0 ? window_us : 1);
    r.lat_p50_us = percentile(latencies, 0.50);
    r.lat_p99_us = percentile(latencies, 0.99);
    r.lat_max_us =
        latencies.empty()
            ? 0
            : *std::max_element(latencies.begin(), latencies.end());
  }

  for (auto& c : cs) ::close(c.fd);
  group.stop();
  return r;
}

}  // namespace
}  // namespace timedc

int main(int argc, char** argv) {
  using namespace timedc;
  // backtrace() loads its unwinder on first use; do that here, not inside
  // a measurement window.
  void* warm[1];
  backtrace(warm, 1);
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--out") {
      opt.out = next();
    } else if (arg == "--reactors-max") {
      opt.reactors_max = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--connections-per-reactor") {
      opt.conns_per_reactor = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--pipeline") {
      opt.pipeline = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--measure-s") {
      opt.measure_s = std::atof(next());
    } else if (arg == "--objects") {
      opt.objects = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--open-loop") {
      opt.open_loop = std::atof(next());
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out FILE.json] [--reactors-max N]\n"
                   "          [--connections-per-reactor C] [--pipeline P]\n"
                   "          [--measure-s S] [--objects K] [--open-loop R]\n",
                   argv[0]);
      return 2;
    }
  }
  if (opt.reactors_max < 1 || opt.pipeline < 1 || opt.conns_per_reactor < 1) {
    std::fprintf(stderr, "net_throughput: bad arguments\n");
    return 2;
  }
  if (opt.quick) opt.measure_s = std::min(opt.measure_s, 0.5);

  // Sweep 1, 2, 4, ... up to --reactors-max (quick: 1 and 2). Open-loop
  // measures the single point at --reactors-max.
  std::vector<std::size_t> sweep;
  if (opt.open_loop > 0) {
    sweep.push_back(opt.reactors_max);
  } else {
    for (std::size_t r = 1; r <= opt.reactors_max; r *= 2) sweep.push_back(r);
    if (sweep.back() != opt.reactors_max) sweep.push_back(opt.reactors_max);
    if (opt.quick && sweep.size() > 2) sweep.resize(2);
  }

  std::vector<PointResult> results;
  for (const std::size_t r : sweep) {
    std::fprintf(stderr, "net_throughput: reactors=%zu ...\n", r);
    results.push_back(run_point(opt, r, /*flight_on=*/true));
    const PointResult& p = results.back();
    std::fprintf(stderr,
                 "  %zu reactors, %zu conns: %.0f ops/s (%.1fx baseline), "
                 "%.1f frames/sendmsg, %llu reactor allocs, "
                 "%llu flight events\n",
                 p.reactors, p.connections, p.ops_per_sec,
                 p.ops_per_sec / kBaselineOpsPerSec, p.frames_per_sendmsg,
                 static_cast<unsigned long long>(p.reactor_allocs),
                 static_cast<unsigned long long>(p.flight_recorded));
  }

  // Overhead check: re-run the largest sweep point with the observability
  // stack off. The delta is what the flight recorder + stage sampling +
  // board publishing cost the hot path (noise makes small negatives normal).
  std::fprintf(stderr, "net_throughput: reactors=%zu (flight off) ...\n",
               sweep.back());
  const PointResult off = run_point(opt, sweep.back(), /*flight_on=*/false);
  const PointResult& on = results.back();
  const double overhead_pct =
      off.ops_per_sec > 0
          ? (off.ops_per_sec - on.ops_per_sec) * 100.0 / off.ops_per_sec
          : 0;
  std::fprintf(stderr,
               "  flight off: %.0f ops/s vs on: %.0f ops/s "
               "(overhead %.2f%%)\n",
               off.ops_per_sec, on.ops_per_sec, overhead_pct);

  double peak = 0;
  for (const auto& p : results) peak = std::max(peak, p.ops_per_sec);

  std::FILE* out = std::fopen(opt.out.c_str(), "w");
  if (out == nullptr) {
    std::perror("fopen");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"net_throughput\",\n");
  std::fprintf(out, "  \"quick\": %s,\n", opt.quick ? "true" : "false");
  std::fprintf(out, "  \"mode\": \"%s\",\n",
               opt.open_loop > 0 ? "open_loop" : "closed_loop");
  std::fprintf(out, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"baseline_ops_per_sec\": %.1f,\n", kBaselineOpsPerSec);
  std::fprintf(out,
               "  \"config\": {\"connections_per_reactor\": %zu, "
               "\"pipeline\": %zu, \"measure_s\": %.3f, \"objects\": %zu",
               opt.conns_per_reactor, opt.pipeline, opt.measure_s, opt.objects);
  if (opt.open_loop > 0) {
    std::fprintf(out, ", \"open_loop_rate\": %.1f", opt.open_loop);
  }
  std::fprintf(out, "},\n");
  std::fprintf(out, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PointResult& p = results[i];
    std::fprintf(out,
                 "    {\"reactors\": %zu, \"connections\": %zu, "
                 "\"ops\": %llu, \"ops_per_sec\": %.1f, "
                 "\"speedup_vs_baseline\": %.2f, "
                 "\"reactor_allocs\": %llu, \"allocs_per_op\": %.6f, "
                 "\"frames_per_sendmsg\": %.2f, \"batch_flushes\": %llu, "
                 "\"steered_connections\": %llu, \"flight_recorded\": %llu",
                 p.reactors, p.connections,
                 static_cast<unsigned long long>(p.ops), p.ops_per_sec,
                 p.ops_per_sec / kBaselineOpsPerSec,
                 static_cast<unsigned long long>(p.reactor_allocs),
                 p.allocs_per_op, p.frames_per_sendmsg,
                 static_cast<unsigned long long>(p.batch_flushes),
                 static_cast<unsigned long long>(p.steered),
                 static_cast<unsigned long long>(p.flight_recorded));
    if (opt.open_loop > 0) {
      std::fprintf(out,
                   ", \"offered_ops_per_sec\": %.1f, \"latency_p50_us\": %lld, "
                   "\"latency_p99_us\": %lld, \"latency_max_us\": %lld",
                   p.offered_ops_per_sec,
                   static_cast<long long>(p.lat_p50_us),
                   static_cast<long long>(p.lat_p99_us),
                   static_cast<long long>(p.lat_max_us));
    }
    std::fprintf(out, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"flight_recorder\": {\"sweep_enabled\": true, "
               "\"off_ops_per_sec\": %.1f, \"on_ops_per_sec\": %.1f, "
               "\"overhead_pct\": %.2f},\n",
               off.ops_per_sec, on.ops_per_sec, overhead_pct);
  std::fprintf(out, "  \"peak_ops_per_sec\": %.1f,\n", peak);
  std::fprintf(out, "  \"peak_speedup_vs_baseline\": %.2f\n",
               peak / kBaselineOpsPerSec);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::fprintf(stderr, "net_throughput: peak %.0f ops/s (%.1fx) -> %s\n", peak,
               peak / kBaselineOpsPerSec, opt.out.c_str());
  return 0;
}
