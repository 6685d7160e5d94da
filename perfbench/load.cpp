// perfbench-load: end-to-end TSC client -> timedc-server benchmark.
//
// Starts real timedc-server processes from their command line, drives real
// TimedSerialCache clients over TcpTransport from this one process, checks
// every op afterwards (verify.hpp) and prints one JSON object with every
// end-to-end and per-layer metric. perfbench/run.py builds this binary and
// the server, and selects the metrics a run reports.
//
// One run:
//   1. set-up, repeated kSetups times: spawn fresh servers with an empty
//      WAL directory, read their ports from the LISTENING line, connect the
//      clients and warm up (every client completes kWarmOps ops). Each
//      set-up is timed; all but the last are torn down right away;
//   2. on the last set-up, a ramp until every client slot has started a
//      new session (see Workload::session_ops), so the load is stationary;
//   3. the measured window of --seconds. Servers are scraped at both window
//      edges: StatsBoards over wire kStatsRequest (sent on this process's own
//      connections), /proc/<pid>/task/*/stat and schedstat, VmHWM and the
//      WAL file sizes. End-to-end figures cover the whole window: every op
//      completed in it, and CPU time between its edges (the p99s are the
//      median of per-sub-window p99s; see main);
//   4. the bell: clients stop issuing, in-flight ops get kDrainUs to finish;
//   5. teardown, then verify() over every op of every set-up.
//
// All workloads are closed loops: each client issues its next op as soon
// as the previous one completes.
//
// Layers measured from outside: `protocol` (time inside read()/write(),
// CacheStats), `net` (load-thread CPU, operator-new calls and frames per
// flush on the client side; board counters and stage percentiles on the
// server side; the wire codec over the run's message mix), `wal` (bytes and
// records appended per write) and `cluster` (the ring lookup the router
// makes, gossip, forwarding).
//
// Tracing (--trace 1): the window is cut into kSliceNs slices that
// alternate traced / untraced. Traced slices record an `op` span per op
// with `protocol.issue` and `cluster.route` children, plus thread CPU and
// allocation counts at the slice edges; the ops/s gap between the two
// slice kinds is the tracing overhead. Spans stay in memory and are written
// to --spans-out when the run ends.
//
// Usage:
//   perfbench-load --workload NAME --seed N --seconds S --trace 0|1
//                    --server BIN --work-dir DIR [--spans-out FILE]
//   perfbench-load --self-test
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "clocks/physical_clock.hpp"
#include "cluster/ring.hpp"
#include "common/rng.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"
#include "net/wire.hpp"
#include "obs/stats_board.hpp"
#include "protocol/timed_serial_cache.hpp"
#include "alloc_count.hpp"
#include "verify.hpp"

namespace {

using namespace timedc;
using perfbench::OpBuffer;
using perfbench::OpRecord;

constexpr int kSetups = 11;
constexpr int kWarmOps = 100;               // per client, closed loop
constexpr std::int64_t kDrainUs = 2000000;  // grace after the bell
constexpr std::int64_t kSliceNs = 200000000;  // traced/untraced alternation
constexpr std::int64_t kSubNs = 100000000;  // p99 sub-window (see main)
constexpr std::uint32_t kClientSiteBase = 1000;
constexpr std::uint32_t kPollerSite = 0xfffffff0u;
constexpr std::size_t kMaxSpanOps = 20000;  // op span trees written out
// Record capacity per load thread and second of run; the buffer's pages
// are only touched as ops are recorded.
constexpr std::size_t kOpsPerThreadSecond = 600000;

struct Workload {
  const char* name;
  int processes;  // timedc-server processes
  int reactors;   // shards per process: --reactors N, or --shards 1
  bool cluster;   // --cluster members with owner-aware ring routing
  int threads;    // client event-loop threads
  int clients;    // TSC clients, split evenly over the threads
  int write_pct;
  std::uint32_t objects;
  double zipf;
  std::int64_t delta_us;
  // A TSC cache never drops entries (mark-old keeps them) and its rule-3
  // sweep costs O(entries) per op, so a client that lived forever would
  // slow down for the whole run. Each client slot instead runs sessions of
  // this many ops, each on a fresh client, so cache sizes, and with them
  // the per-op cost, stay stationary once every slot has renewed once.
  std::int64_t session_ops;
};

constexpr Workload kWorkloads[] = {
    {"write_wal", 1, 2, false, 2, 64, 50, 256, 0.6, 20000, 4096},
    // A closed loop: open-loop latency on a virtual machine mostly measures
    // how fast the host wakes an idle vCPU, which varied 2x between runs.
    {"cluster_ring", 3, 1, true, 1, 64, 20, 1024, 0.6, 20000, 512},
};

struct Options {
  const Workload* workload = nullptr;
  // CPU pinning (empty = unpinned): one CPU per load thread, and per
  // server process one CPU per reactor, all distinct.
  std::vector<int> load_cpus;
  std::vector<std::vector<int>> server_cpus;
  std::uint64_t seed = 1;
  std::int64_t seconds = 10;
  bool trace = false;
  std::string server;
  std::string work_dir;
  std::string spans_out;
};

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "perfbench-load: %s\n", what);
  std::exit(1);
}

std::int64_t realtime_us() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

std::int64_t realtime_ns() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void sleep_until_us(std::int64_t at_us) {
  for (;;) {
    const std::int64_t left = at_us - realtime_us();
    if (left <= 0) return;
    timespec ts{left / 1000000, (left % 1000000) * 1000};
    nanosleep(&ts, nullptr);
  }
}

/// Fixed-capacity FIFO; never allocates after construction.
template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity) : slots_(capacity) {}
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  bool push(T v) {
    if (size_ == slots_.size()) return false;
    slots_[(head_ + size_++) % slots_.size()] = v;
    return true;
  }
  T pop() {
    T v = slots_[head_];
    head_ = (head_ + 1) % slots_.size();
    --size_;
    return v;
  }

 private:
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

// --- server processes ------------------------------------------------------

/// A free loopback port for a cluster member: its peers' --peer flags must
/// name it before it starts, so it cannot be chosen by the member itself.
std::uint16_t reserve_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) die("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    die("cannot reserve a loopback port");
  }
  ::close(fd);
  return ntohs(addr.sin_port);
}

void remove_tree(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      if (std::strcmp(e->d_name, ".") != 0 && std::strcmp(e->d_name, "..") != 0) {
        ::unlink((dir + "/" + e->d_name).c_str());
      }
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

/// The servers of one set-up: fresh processes on a fresh, empty WAL
/// directory that is deleted on teardown.
class Topology {
 public:
  Topology(const Workload& w, const Options& opt, int setup)
      : w_(w), opt_(opt) {
    dir_ = opt.work_dir + "/run-" + std::to_string(::getpid()) + "-" +
           std::to_string(setup);
    remove_tree(dir_);
    if (::mkdir(dir_.c_str(), 0755) != 0) die("cannot create the WAL dir");
  }
  ~Topology() { stop(); }
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Spawns every server and waits for each LISTENING line.
  void start() {
    std::vector<std::uint16_t> reserved;
    if (w_.cluster) {
      for (int i = 0; i < w_.processes; ++i) reserved.push_back(reserve_port());
    }
    std::vector<int> out_fds;
    for (int p = 0; p < w_.processes; ++p) {
      // --metrics-out keeps the server's exit dump off the stdout pipe.
      std::vector<std::string> args = {opt_.server, "--state-file",
                                       dir_ + "/wal", "--drain-ms", "0",
                                       "--metrics-out",
                                       dir_ + "/metrics." + std::to_string(p)};
      if (w_.cluster) {
        args.insert(args.end(),
                    {"--port", std::to_string(reserved[p]), "--shards", "1",
                     "--site-base", std::to_string(p), "--cluster",
                     "--cluster-size", std::to_string(w_.processes)});
        for (int q = 0; q < w_.processes; ++q) {
          if (q == p) continue;
          args.push_back("--peer");
          args.push_back(std::to_string(q) + ":127.0.0.1:" +
                         std::to_string(reserved[q]));
        }
      } else {
        args.insert(args.end(), {"--port", "0", "--reactors",
                                 std::to_string(w_.reactors)});
      }
      out_fds.push_back(spawn(args, dir_ + "/stderr." + std::to_string(p),
                              opt_.server_cpus.empty() ? std::vector<int>{}
                                                       : opt_.server_cpus[p]));
    }
    for (int p = 0; p < w_.processes; ++p) {
      const std::vector<std::uint16_t> ports = read_listening(out_fds[p], p);
      ::close(out_fds[p]);
      if (static_cast<int>(ports.size()) != w_.reactors) {
        die("unexpected LISTENING line");
      }
      for (int r = 0; r < w_.reactors; ++r) {
        if (w_.cluster && ports[r] != reserved[p]) die("cluster port moved");
        const auto site = static_cast<std::uint32_t>(p * w_.reactors + r);
        site_ports_.push_back(ports[r]);
        sites_.push_back(SiteId{site});
        wal_paths_.push_back(dir_ + "/wal." + std::to_string(site));
      }
      // One scrape per process: its reactor answers for every local board.
      scrape_sites_.push_back(SiteId{static_cast<std::uint32_t>(p * w_.reactors)});
    }
  }

  /// SIGTERM, wait for exit (SIGKILL after 5s), delete the WAL directory.
  void stop() {
    for (const pid_t pid : pids_) ::kill(pid, SIGTERM);
    for (const pid_t pid : pids_) {
      int status = 0;
      bool exited = false;
      for (int i = 0; i < 500 && !exited; ++i) {
        exited = ::waitpid(pid, &status, WNOHANG) == pid;
        if (!exited) ::usleep(10000);
      }
      if (!exited) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        clean_exit_ = false;
      } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        clean_exit_ = false;
      }
    }
    pids_.clear();
    if (!dir_.empty()) remove_tree(dir_);
    dir_.clear();
  }

  const std::vector<SiteId>& sites() const { return sites_; }
  const std::vector<std::uint16_t>& site_ports() const { return site_ports_; }
  const std::vector<SiteId>& scrape_sites() const { return scrape_sites_; }
  const std::vector<pid_t>& pids() const { return pids_; }
  const std::vector<std::string>& wal_paths() const { return wal_paths_; }
  bool clean_exit() const { return clean_exit_; }

 private:
  int spawn(const std::vector<std::string>& args, const std::string& err,
            const std::vector<int>& cpus) {
    int fds[2];
    if (::pipe(fds) != 0) die("pipe() failed");
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus) CPU_SET(cpu, &set);
    // Everything the child needs is built before fork: it only makes
    // system calls until execv.
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) die("fork() failed");
    if (pid == 0) {
      // The servers die with this process, whatever ends it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (!cpus.empty()) ::sched_setaffinity(0, sizeof set, &set);
      ::dup2(fds[1], STDOUT_FILENO);
      const int efd = ::open(err.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (efd >= 0) ::dup2(efd, STDERR_FILENO);
      ::close(fds[0]);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    pids_.push_back(pid);
    return fds[0];
  }

  std::vector<std::uint16_t> read_listening(int fd, int p) {
    std::string line;
    const std::int64_t deadline = realtime_us() + 10000000;
    while (line.find('\n') == std::string::npos) {
      pollfd pfd{fd, POLLIN, 0};
      const auto left = static_cast<int>((deadline - realtime_us()) / 1000);
      char buf[256];
      ssize_t n = 0;
      if (left <= 0 || ::poll(&pfd, 1, left) <= 0 ||
          (n = ::read(fd, buf, sizeof buf)) <= 0) {
        std::fprintf(stderr, "perfbench-load: server %d never listened\n", p);
        stop();
        std::exit(1);
      }
      line.append(buf, static_cast<std::size_t>(n));
    }
    std::vector<std::uint16_t> ports;
    if (line.rfind("LISTENING", 0) != 0) return ports;
    const char* s = line.c_str() + 9;
    char* end = nullptr;
    for (long v = std::strtol(s, &end, 10); end != s;
         v = std::strtol(s, &end, 10)) {
      ports.push_back(static_cast<std::uint16_t>(v));
      s = end;
    }
    return ports;
  }

  const Workload& w_;
  const Options& opt_;
  std::string dir_;
  std::vector<pid_t> pids_;
  std::vector<SiteId> sites_;
  std::vector<std::uint16_t> site_ports_;
  std::vector<SiteId> scrape_sites_;
  std::vector<std::string> wal_paths_;
  bool clean_exit_ = true;
};

// --- load threads ------------------------------------------------------------

/// Per-slice-kind sums (index 1 = traced slices, 0 = untraced).
struct SliceSums {
  std::int64_t cpu_ns = 0;
  std::uint64_t allocs = 0;
  std::int64_t read_issue_ns = 0;
  std::uint64_t read_issues = 0;
  std::int64_t write_issue_ns = 0;
  std::uint64_t write_issues = 0;
  std::int64_t route_ns = 0;
  std::uint64_t routes = 0;

  SliceSums& operator+=(const SliceSums& o) {
    cpu_ns += o.cpu_ns;
    allocs += o.allocs;
    read_issue_ns += o.read_issue_ns;
    read_issues += o.read_issues;
    write_issue_ns += o.write_issue_ns;
    write_issues += o.write_issues;
    route_ns += o.route_ns;
    routes += o.routes;
    return *this;
  }
};

/// Loop-thread counters snapshotted at the window edges.
struct EdgeSnap {
  CacheStats cache;
  std::uint64_t frames_sent = 0;
  std::uint64_t flush_syscalls = 0;
  std::uint64_t cached_entries = 0;
};

/// The clients' clock: perfect (the loop's CLOCK_REALTIME), and it keeps
/// its last reading. A write's last clock read inside write() is the
/// timestamp it sends, so the verifier can order writes exactly as the
/// server's last-writer-wins rule does.
class StampClock final : public PhysicalClockModel {
 public:
  SimTime read(SimTime true_time) const override {
    last_ = true_time;
    return true_time;
  }
  SimTime max_offset() const override { return SimTime::zero(); }
  SimTime last() const { return last_; }

 private:
  mutable SimTime last_ = SimTime::zero();
};

struct SpanRecord {
  std::uint32_t op = 0;  // index into the worker's OpBuffer
  std::uint32_t issue_ns = 0;
  std::uint32_t route_start_ns = 0;  // offset inside protocol.issue
  std::uint32_t route_ns = 0;        // 0 = no route call (cache hit)
};

struct Window {  // CLOCK_REALTIME ns
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
};

/// One load thread: an EventLoop, a TcpTransport and its share of the
/// TSC clients. Everything below is loop-thread-confined; main reads it
/// only after join().
class Worker {
 public:
  Worker(const Workload& w, const Options& opt, const Topology& topo, int index)
      : w_(w),
        opt_(opt),
        index_(index),
        transport_(loop_),
        zipf_(w.objects, w.zipf),
        buf_(kOpsPerThreadSecond *
             static_cast<std::size_t>(opt.seconds + 5 + kDrainUs / 1000000)),
        spans_(opt.trace ? kOpsPerThreadSecond *
                               static_cast<std::size_t>(opt.seconds)
                         : 1),
        ready_(static_cast<std::size_t>(w.clients)) {
    const auto& sites = topo.sites();
    for (std::size_t s = 0; s < sites.size(); ++s) {
      transport_.add_route(sites[s], "127.0.0.1", topo.site_ports()[s]);
    }
    if (w.cluster) ring_.set_members(sites);
    num_sites_ = static_cast<std::uint32_t>(sites.size());
    const int n = w.clients / w.threads;
    for (int k = 0; k < n; ++k) {
      const auto slot = static_cast<std::uint32_t>(index * n + k);
      ClientState st{Rng::stream(opt.seed, slot), slot, slot};
      // Staggered first sessions spread this thread's cache sizes evenly
      // over a session, so the thread's total sweep work stays level.
      st.session_left = std::max<std::int64_t>(1, w.session_ops * (k + 1) / n);
      state_.push_back(st);
      clients_.push_back(new_client(slot));
    }
    transport_.set_stats_reply_handler(
        [this](SiteId, std::uint64_t seq, std::span<const wire::StatsRow> rows) {
          std::lock_guard<std::mutex> lock(scrape_mu_);
          if (seq != scrape_seq_) return;
          scrape_rows_.insert(scrape_rows_.end(), rows.begin(), rows.end());
          ++scrape_replies_;
          scrape_cv_.notify_all();
        });
    scrape_rows_.reserve(4096);
  }

  ~Worker() {
    if (thread_.joinable()) {
      loop_.stop();
      thread_.join();
    }
  }
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// `warmed` counts threads whose clients all finished kWarmOps ops,
  /// `ramped` threads whose client slots have all renewed once.
  void start(std::atomic<int>& warmed, std::atomic<int>& ramped) {
    warmed_ = &warmed;
    ramped_ = &ramped;
    thread_ = std::thread([this] {
      if (!opt_.load_cpus.empty()) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(opt_.load_cpus[static_cast<std::size_t>(index_)], &set);
        ::sched_setaffinity(0, sizeof set, &set);
      }
      loop_.post([this] {
        loop_.add_tick_end_hook([this] { pump(); });
        for (std::uint32_t k = 0; k < state_.size(); ++k) ready_.push(k);
      });
      loop_.run();
    });
  }

  /// From main: the window edges. Issuing stops at t1 (the bell).
  void begin_window(Window win) {
    loop_.post([this, win] {
      window_ = win;
      bell_ns_ = win.t1_ns;
      next_edge_ns_ = win.t0_ns;
    });
  }

  /// From main: stop issuing (if the window has not already) and let
  /// in-flight ops drain for kDrainUs; the thread then exits.
  void ring_bell() {
    loop_.post([this] {
      bell_ns_ = 0;
      issuing_ = false;
      bell_rung_ = true;
      loop_.run_after(SimTime::micros(kDrainUs), [this] { finish(); });
      maybe_finish();
    });
  }

  void join() { thread_.join(); }

  /// Sends kStatsRequest to each site on this thread's connections and
  /// waits for every reply (false on timeout).
  bool scrape(const std::vector<SiteId>& sites,
              std::vector<wire::StatsRow>& out) {
    std::unique_lock<std::mutex> lock(scrape_mu_);
    scrape_rows_.clear();
    scrape_replies_ = 0;
    const std::uint64_t seq = ++scrape_seq_;
    lock.unlock();
    loop_.post([this, sites, seq] {
      for (const SiteId site : sites) {
        wire::StatsRequest rq;
        rq.seq = seq;
        rq.target_site = wire::kAllSites;
        transport_.send_stats_request(SiteId{kPollerSite}, site, rq);
      }
    });
    lock.lock();
    const bool ok = scrape_cv_.wait_for(lock, std::chrono::seconds(3), [&] {
      return scrape_replies_ == sites.size();
    });
    out = scrape_rows_;
    return ok;
  }

  std::span<const OpRecord> records() const { return buf_.records(); }
  std::span<const SpanRecord> spans() const { return spans_.records(); }
  bool overflowed() const { return overflow_; }
  const SliceSums& slice(int traced) const { return sums_[traced]; }
  const EdgeSnap& edge(int i) const { return edges_[i]; }
  int edges_taken() const { return edges_taken_; }

 private:
  struct ClientState {
    Rng rng;
    std::uint32_t slot = 0;     // index among the workload's clients
    std::uint32_t session = 0;  // history site: slot + clients * renewals
    std::int64_t session_left = 0;
    bool renewed = false;
    std::uint64_t value_seq = 0;
    int warm_left = kWarmOps;
    std::size_t rec = 0;        // record of its op in flight
  };

  /// A fresh TSC client (empty cache) for history site `session`.
  std::unique_ptr<TimedSerialCache> new_client(std::uint32_t session) {
    auto client = std::make_unique<TimedSerialCache>(
        transport_, SiteId{kClientSiteBase + session}, SiteId{0}, &clock_,
        SimTime::micros(w_.delta_us), /*mark_old=*/true, MessageSizes{});
    client->set_route([this](ObjectId object) {
      const std::int64_t start = route_timing_ ? steady_ns() : 0;
      const SiteId owner = w_.cluster ? ring_.owner_of(object)
                                      : SiteId{object.value % num_sites_};
      if (route_timing_) {
        route_start_ns_ = start;
        route_ns_ = steady_ns() - start;
      }
      return owner;
    });
    client->attach();
    return client;
  }

  /// Ends client k's session: the next session is a new client on a new
  /// site id (the server dedups writes by site and request id). The old
  /// site keeps a no-op handler, so nothing can reach the freed client.
  void renew(std::uint32_t k) {
    ClientState& st = state_[k];
    st.session += static_cast<std::uint32_t>(w_.clients);
    if (st.session > std::numeric_limits<std::uint16_t>::max()) {
      die("more client sessions than the history can name");
    }
    st.session_left = w_.session_ops;
    st.value_seq = 0;
    retired_ += clients_[k]->stats();
    if (!st.renewed) {
      st.renewed = true;
      if (++renewed_slots_ == clients_.size()) ramped_->fetch_add(1);
    }
    transport_.register_site(clients_[k]->site(), [](SiteId, const Message&) {});
    clients_[k] = new_client(st.session);
  }

  /// Tick-end hook: window edges, then dispatch what is ready. Bounded per
  /// tick; a chain of synchronous cache hits re-posts itself rather than
  /// spinning inside one tick.
  void pump() {
    const std::int64_t now = realtime_ns();
    if (next_edge_ns_ != 0 && now >= next_edge_ns_) cross_edge(now);
    std::size_t budget = 4 * clients_.size();
    while (!ready_.empty() && issuing_ && budget-- > 0) {
      if (realtime_ns() >= bell_ns_) {
        issuing_ = false;
        break;
      }
      issue(ready_.pop());
    }
    if (!ready_.empty() && issuing_ && !repost_pending_) {
      repost_pending_ = true;
      loop_.post([this] {
        repost_pending_ = false;
        pump();
      });
    }
    maybe_finish();
  }

  void issue(std::uint32_t k) {
    ClientState& st = state_[k];
    OpRecord r;
    r.issue_ns = realtime_ns();
    r.object = static_cast<std::uint32_t>(zipf_.sample(st.rng));
    if (st.session_left == 0) renew(k);
    --st.session_left;
    r.client = static_cast<std::uint16_t>(st.session);
    r.is_write = st.rng.uniform_int(0, 99) < w_.write_pct ? 1 : 0;
    if (r.is_write) {
      r.value = (static_cast<std::int64_t>(st.session + 1) << 32) +
                static_cast<std::int64_t>(++st.value_seq);
    }
    const std::int64_t idx = buf_.append(r);
    if (idx < 0) {
      overflow_ = true;
      issuing_ = false;
      ready_.push(k);
      return;
    }
    st.rec = static_cast<std::size_t>(idx);
    ++outstanding_;
    const bool traced = tracing_ && !spans_.full();
    route_timing_ = traced;
    route_ns_ = 0;
    const std::int64_t t_start = traced ? steady_ns() : 0;
    if (r.is_write) {
      clients_[k]->write(ObjectId{r.object}, Value{r.value},
                         [this, k](SimTime) { complete(k, 0); });
    } else {
      clients_[k]->read(ObjectId{r.object}, [this, k](Value v, SimTime) {
        complete(k, v.value);
      });
    }
    if (r.is_write) {
      buf_[st.rec].stamp_off_ns =
          static_cast<std::int32_t>(clock_.last().as_micros() * 1000 - r.issue_ns);
    }
    if (traced) {
      const std::int64_t spent = steady_ns() - t_start;
      route_timing_ = false;
      SliceSums& s = sums_[1];
      (r.is_write ? s.write_issue_ns : s.read_issue_ns) += spent;
      ++(r.is_write ? s.write_issues : s.read_issues);
      SpanRecord span;
      span.op = static_cast<std::uint32_t>(idx);
      span.issue_ns = static_cast<std::uint32_t>(spent);
      if (route_ns_ > 0) {
        s.route_ns += route_ns_;
        ++s.routes;
        span.route_start_ns = static_cast<std::uint32_t>(route_start_ns_ - t_start);
        span.route_ns = static_cast<std::uint32_t>(route_ns_);
      }
      spans_.append(span);
    }
  }

  void complete(std::uint32_t k, std::int64_t value) {
    ClientState& st = state_[k];
    OpRecord& r = buf_[st.rec];
    r.done_ns = realtime_ns();
    if (!r.is_write) r.value = value;
    --outstanding_;
    ready_.push(k);
    if (st.warm_left > 0 && --st.warm_left == 0 &&
        ++warm_clients_ == clients_.size()) {
      warmed_->fetch_add(1);
    }
  }

  void maybe_finish() {
    if (bell_rung_ && outstanding_ == 0) finish();
  }

  void finish() {
    if (finished_) return;
    finished_ = true;
    if (next_edge_ns_ != 0) cross_edge(realtime_ns());
    transport_.close_all();
    loop_.stop();
  }

  /// Slice edge: charge thread CPU and allocations since the previous edge
  /// to the slice that just ended; snapshot counters at t0 and t1.
  void cross_edge(std::int64_t now) {
    const std::int64_t cpu = thread_cpu_ns();
    const std::uint64_t allocs = perfbench::thread_allocs();
    if (edges_taken_ > 0) {
      SliceSums& s = sums_[tracing_ ? 1 : 0];
      s.cpu_ns += cpu - last_cpu_ns_;
      s.allocs += allocs - last_allocs_;
    }
    last_cpu_ns_ = cpu;
    last_allocs_ = allocs;
    const bool at_end = now >= window_.t1_ns || finished_;
    if (edges_taken_ == 0 || at_end) snapshot(edges_[edges_taken_ == 0 ? 0 : 1]);
    ++edges_taken_;
    if (at_end) {
      tracing_ = false;
      next_edge_ns_ = 0;
      return;
    }
    const std::int64_t slice = (now - window_.t0_ns) / kSliceNs;
    tracing_ = opt_.trace && slice % 2 == 0;
    next_edge_ns_ = std::min(window_.t0_ns + (slice + 1) * kSliceNs, window_.t1_ns);
  }

  void snapshot(EdgeSnap& e) {
    e = EdgeSnap{};
    e.cache = retired_;
    for (const auto& c : clients_) {
      e.cache += c->stats();
      e.cached_entries += c->cached_entries();
    }
    const net::TcpTransportStats& ts = transport_.stats();
    e.frames_sent = ts.frames_sent;
    e.flush_syscalls = ts.flush_syscalls;
  }

  const Workload& w_;
  const Options& opt_;
  int index_;
  net::EventLoop loop_;
  net::TcpTransport transport_;
  StampClock clock_;
  ZipfDistribution zipf_;
  cluster::HashRing ring_;
  std::uint32_t num_sites_ = 0;
  std::vector<std::unique_ptr<TimedSerialCache>> clients_;
  std::vector<ClientState> state_;
  OpBuffer buf_;
  perfbench::FixedBuffer<SpanRecord> spans_;
  Ring<std::uint32_t> ready_;
  std::atomic<int>* warmed_ = nullptr;
  std::atomic<int>* ramped_ = nullptr;
  std::size_t warm_clients_ = 0;
  std::size_t renewed_slots_ = 0;
  CacheStats retired_;  // stats of the clients of finished sessions
  std::size_t outstanding_ = 0;
  bool issuing_ = true;
  std::int64_t bell_ns_ = std::numeric_limits<std::int64_t>::max();
  bool bell_rung_ = false;
  bool finished_ = false;
  bool repost_pending_ = false;
  bool overflow_ = false;
  // Window and tracing.
  Window window_;
  std::int64_t next_edge_ns_ = 0;
  bool tracing_ = false;
  bool route_timing_ = false;
  std::int64_t route_start_ns_ = 0;
  std::int64_t route_ns_ = 0;
  std::int64_t last_cpu_ns_ = 0;
  std::uint64_t last_allocs_ = 0;
  int edges_taken_ = 0;
  SliceSums sums_[2];
  EdgeSnap edges_[2];
  // Scrapes: written on the loop thread, read by main.
  std::mutex scrape_mu_;
  std::condition_variable scrape_cv_;
  std::uint64_t scrape_seq_ = 0;
  std::size_t scrape_replies_ = 0;
  std::vector<wire::StatsRow> scrape_rows_;
  std::thread thread_;
};

// --- outside-in server ledger ------------------------------------------------

struct ProcSnap {
  std::map<long, std::int64_t> task_ticks;  // utime + stime per thread
  std::int64_t hwm_kb = 0;                   // VmHWM
};

std::int64_t stat_ticks(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return -1;
  char buf[1024];
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) return -1;
  // Fields after "comm)": state is field 3, utime 14, stime 15.
  std::int64_t utime = 0, stime = 0;
  int field = 2;
  for (const char* tok = std::strtok(const_cast<char*>(p + 1), " "); tok;
       tok = std::strtok(nullptr, " ")) {
    ++field;
    if (field == 14) utime = std::atoll(tok);
    if (field == 15) {
      stime = std::atoll(tok);
      break;
    }
  }
  return utime + stime;
}

ProcSnap read_proc(pid_t pid) {
  ProcSnap s;
  const std::string base = "/proc/" + std::to_string(pid);
  if (DIR* d = ::opendir((base + "/task").c_str())) {
    while (const dirent* e = ::readdir(d)) {
      if (e->d_name[0] == '.') continue;
      s.task_ticks[std::atol(e->d_name)] =
          stat_ticks(base + "/task/" + e->d_name + "/stat");
    }
    ::closedir(d);
  }
  if (FILE* f = std::fopen((base + "/status").c_str(), "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) s.hwm_kb = std::atoll(line + 6);
    }
    std::fclose(f);
  }
  return s;
}

/// CPU time of every thread of `pid` in nanoseconds (the first field of
/// each /proc/<pid>/task/<tid>/schedstat): the scheduler's own clock, far
/// finer than the 10ms ticks of /proc/<pid>/stat.
std::int64_t cpu_ns(pid_t pid) {
  const std::string base = "/proc/" + std::to_string(pid) + "/task";
  std::int64_t sum = 0;
  if (DIR* d = ::opendir(base.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      if (e->d_name[0] == '.') continue;
      if (FILE* f = std::fopen((base + "/" + e->d_name + "/schedstat").c_str(), "r")) {
        long long ns = 0;
        if (std::fscanf(f, "%lld", &ns) == 1) sum += ns;
        std::fclose(f);
      }
    }
    ::closedir(d);
  }
  return sum;
}

/// Host steal time of all CPUs, in clock ticks (the aggregate cpu line of
/// /proc/stat, 8th value).
std::int64_t steal_ticks() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  long long v[8] = {};
  const int n = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

std::int64_t file_size(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::int64_t>(st.st_size) : 0;
}

/// Newlines (WAL records) in bytes [from, to) of `path`.
std::uint64_t count_records(const std::string& path, std::int64_t from,
                            std::int64_t to) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::uint64_t lines = 0;
  if (std::fseek(f, from, SEEK_SET) == 0) {
    std::vector<char> buf(1 << 16);
    std::int64_t left = to - from;
    while (left > 0) {
      const auto want = static_cast<std::size_t>(
          std::min<std::int64_t>(left, static_cast<std::int64_t>(buf.size())));
      const std::size_t got = std::fread(buf.data(), 1, want, f);
      if (got == 0) break;
      lines += static_cast<std::uint64_t>(std::count(buf.data(), buf.data() + got, '\n'));
      left -= static_cast<std::int64_t>(got);
    }
  }
  std::fclose(f);
  return lines;
}

using Boards = std::map<std::uint32_t, std::array<std::int64_t, kNumStatKeys>>;

struct ServerSnap {
  Boards boards;
  std::vector<ProcSnap> procs;
  std::vector<std::int64_t> wal_bytes;
};

ServerSnap snap_servers(Worker& poller, const Topology& topo) {
  ServerSnap s;
  std::vector<wire::StatsRow> rows;
  if (!poller.scrape(topo.scrape_sites(), rows)) die("StatsBoard scrape timed out");
  for (const wire::StatsRow& row : rows) {
    auto& board = s.boards[row.site];
    if (row.key < kNumStatKeys) board[row.key] = row.value;
  }
  for (const pid_t pid : topo.pids()) s.procs.push_back(read_proc(pid));
  for (const std::string& wal : topo.wal_paths()) s.wal_bytes.push_back(file_size(wal));
  return s;
}

std::int64_t board_sum(const Boards& b, StatKey key) {
  std::int64_t sum = 0;
  for (const auto& [site, v] : b) sum += v[static_cast<std::size_t>(key)];
  return sum;
}

std::int64_t board_max(const Boards& b, StatKey key) {
  std::int64_t m = 0;
  for (const auto& [site, v] : b) m = std::max(m, v[static_cast<std::size_t>(key)]);
  return m;
}

// --- metrics -----------------------------------------------------------------

double percentile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return std::nan("");
  const auto at = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(at), v.end());
  return static_cast<double>(v[at]);
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The median, over the non-empty sub-windows, of each one's q-quantile.
double median_quantile(std::vector<std::vector<std::int64_t>>& subs, double q) {
  std::vector<double> per_sub;
  for (std::vector<std::int64_t>& s : subs) {
    if (!s.empty()) per_sub.push_back(percentile(s, q));
  }
  return median(per_sub);
}

/// Every sub-window's samples in one vector; empties `subs`.
std::vector<std::int64_t> concat(std::vector<std::vector<std::int64_t>>& subs) {
  std::size_t n = 0;
  for (const auto& s : subs) n += s.size();
  std::vector<std::int64_t> all;
  all.reserve(n);
  for (auto& s : subs) {
    all.insert(all.end(), s.begin(), s.end());
    std::vector<std::int64_t>().swap(s);
  }
  return all;
}

/// Codec cost over the window's message mix: client requests encoded,
/// server replies peeked and decoded the way the transport does it.
std::pair<double, double> codec_ns(const CacheStats& mix, std::uint64_t seed) {
  const double fetches = static_cast<double>(mix.cache_misses);
  const double validates = static_cast<double>(mix.validations);
  const double writes = static_cast<double>(mix.writes);
  const double total = fetches + validates + writes;
  if (total == 0) return {0, 0};
  Rng rng(seed);
  std::vector<Message> requests;
  std::vector<std::uint8_t> replies;
  ObjectCopy copy{ObjectId{7}, Value{(5ll << 32) + 9}, 3, SimTime::micros(1000),
                  SimTime::micros(2000), SimTime::zero(), {}, {}};
  for (int i = 0; i < 1024; ++i) {
    const double u = rng.uniform01() * total;
    const ObjectId obj{static_cast<std::uint32_t>(i)};
    const auto id = static_cast<std::uint64_t>(i + 1);
    Message rq, rp;
    if (u < fetches) {
      rq = FetchRequest{obj, SiteId{1000}, id};
      rp = FetchReply{copy, id};
    } else if (u < fetches + validates) {
      rq = ValidateRequest{obj, 3, SiteId{1000}, id};
      rp = ValidateReply{obj, rng.uniform01() < ratio(static_cast<double>(mix.validations_ok), validates),
                         copy, id};
    } else {
      rq = WriteRequest{obj, Value{(7ll << 32) + i}, SimTime::micros(1500), {},
                        SiteId{1000}, id};
      rp = WriteAck{obj, 4, id};
    }
    requests.push_back(rq);
    wire::encode_frame(SiteId{0}, SiteId{1000}, rp, replies);
  }
  constexpr int kReps = 200;
  std::vector<std::uint8_t> out;
  out.reserve(256);
  std::int64_t t0 = steady_ns();
  std::size_t bytes = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const Message& m : requests) {
      out.clear();
      wire::encode_frame(SiteId{1000}, SiteId{0}, m, out);
      bytes += out.size();
    }
  }
  const double encode =
      static_cast<double>(steady_ns() - t0) / (kReps * static_cast<double>(requests.size()));
  wire::DecodedFrame scratch;
  std::size_t ok = 0;
  t0 = steady_ns();
  for (int rep = 0; rep < kReps; ++rep) {
    std::span<const std::uint8_t> rest(replies);
    while (!rest.empty()) {
      const wire::FrameView view = wire::peek_frame(rest);
      if (!view.ok()) die("codec bench: bad frame");
      ok += wire::decode_frame_view(view, scratch) == wire::DecodeStatus::kOk;
      rest = rest.subspan(view.consumed);
    }
  }
  const double decode =
      static_cast<double>(steady_ns() - t0) / (kReps * static_cast<double>(requests.size()));
  if (ok != kReps * requests.size() || bytes == 0) die("codec bench: decode failed");
  return {encode, decode};
}

class Json {
 public:
  void num(const std::string& key, double v) {
    sep();
    if (std::isfinite(v)) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.10g", v);
      out_ += "\"" + key + "\":" + buf;
    } else {
      out_ += "\"" + key + "\":null";
    }
  }
  void raw(const std::string& key, const std::string& v) {
    sep();
    out_ += "\"" + key + "\":" + v;
  }
  std::string str() const { return "{" + out_ + "}"; }

 private:
  void sep() {
    if (!out_.empty()) out_ += ",";
  }
  std::string out_;
};

void write_spans(const std::string& path, const std::vector<std::unique_ptr<Worker>>& workers,
                 std::int64_t t0_ns) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::size_t written = 0;
  std::uint64_t id = 0;
  for (const auto& w : workers) {
    const auto recs = w->records();
    for (const SpanRecord& s : w->spans()) {
      if (written++ >= kMaxSpanOps) break;
      const OpRecord& r = recs[s.op];
      const std::uint64_t op = ++id;
      const std::uint64_t issue = ++id;
      std::fprintf(f,
                   "{\"id\":%llu,\"name\":\"op\",\"parent\":null,\"client\":%u,"
                   "\"kind\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<unsigned long long>(op), r.client,
                   r.is_write ? "write" : "read",
                   static_cast<long long>(r.issue_ns - t0_ns),
                   static_cast<long long>(r.done_ns == perfbench::kUnfinished
                                              ? -1
                                              : r.done_ns - t0_ns));
      std::fprintf(f,
                   "{\"id\":%llu,\"name\":\"protocol.issue\",\"parent\":%llu,"
                   "\"start_ns\":0,\"dur_ns\":%u}\n",
                   static_cast<unsigned long long>(issue),
                   static_cast<unsigned long long>(op), s.issue_ns);
      if (s.route_ns > 0) {
        std::fprintf(f,
                     "{\"id\":%llu,\"name\":\"cluster.route\",\"parent\":%llu,"
                     "\"start_ns\":%u,\"dur_ns\":%u}\n",
                     static_cast<unsigned long long>(++id),
                     static_cast<unsigned long long>(issue), s.route_start_ns,
                     s.route_ns);
      }
    }
  }
  std::fclose(f);
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* v = argv[i + 1];
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, v) == 0) opt.workload = &w;
      }
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atoll(v);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--server") {
      opt.server = v;
    } else if (arg == "--work-dir") {
      opt.work_dir = v;
    } else if (arg == "--spans-out") {
      opt.spans_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && opt.workload != nullptr && opt.seconds >= 1 &&
         opt.seconds <= 60 && !opt.server.empty() && !opt.work_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    return perfbench::self_test() ? 0 : 1;
  }
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload write_wal|cluster_ring --seed N "
                 "--seconds S --trace 0|1 --server BIN --work-dir DIR "
                 "[--spans-out FILE]\n       %s --self-test\n",
                 argv[0], argv[0]);
    return 2;
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench-load: refusing a %s build; timings need "
                 "CMAKE_BUILD_TYPE=Release\n", PERFBENCH_BUILD_TYPE);
    return 1;
  }
  ::signal(SIGPIPE, SIG_IGN);
  const Workload& w = *opt.workload;
  // Pin every busy thread to its own CPU when there are enough of them:
  // migrations and two loops sharing a core are the largest run-to-run
  // noise on a small host.
  {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    std::vector<int> cpus;
    if (::sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
      }
    }
    if (cpus.size() >= static_cast<std::size_t>(w.threads + w.processes * w.reactors)) {
      std::size_t next = 0;
      for (int t = 0; t < w.threads; ++t) opt.load_cpus.push_back(cpus[next++]);
      for (int p = 0; p < w.processes; ++p) {
        opt.server_cpus.emplace_back();
        for (int r = 0; r < w.reactors; ++r) opt.server_cpus.back().push_back(cpus[next++]);
      }
    }
  }

  std::vector<double> setup_s;
  perfbench::VerifyResult v;  // summed over the set-ups, each its own history
  auto verify_workers = [&](const std::vector<std::unique_ptr<Worker>>& ws) {
    std::vector<std::span<const OpRecord>> parts;
    for (const auto& wk : ws) parts.push_back(wk->records());
    v += perfbench::verify(parts, w.delta_us);
  };
  std::unique_ptr<Topology> topo;
  std::vector<std::unique_ptr<Worker>> workers;
  std::atomic<int> warmed{0};
  std::atomic<int> ramped{0};
  for (int setup = 0; setup < kSetups; ++setup) {
    const std::int64_t t_spawn = steady_ns();
    topo = std::make_unique<Topology>(w, opt, setup);
    topo->start();
    workers.clear();
    warmed = 0;
    ramped = 0;
    for (int t = 0; t < w.threads; ++t) {
      workers.push_back(std::make_unique<Worker>(w, opt, *topo, t));
    }
    for (auto& wk : workers) wk->start(warmed, ramped);
    const std::int64_t give_up = steady_ns() + 30'000'000'000;
    while (warmed.load() < w.threads) {
      if (steady_ns() > give_up) die("warm-up did not finish in 30s");
      ::usleep(200);
    }
    setup_s.push_back(static_cast<double>(steady_ns() - t_spawn) / 1e9);
    if (setup + 1 == kSetups) break;
    for (auto& wk : workers) wk->ring_bell();
    for (auto& wk : workers) wk->join();
    verify_workers(workers);
    topo->stop();
    if (!topo->clean_exit()) die("a server exited uncleanly");
  }

  // The measured window on the last set-up, once the load is stationary.
  const std::int64_t ramp_start = steady_ns();
  while (ramped.load() < w.threads) {
    if (steady_ns() - ramp_start > 60'000'000'000) die("ramp did not finish in 60s");
    ::usleep(1000);
  }
  const double ramp_s = static_cast<double>(steady_ns() - ramp_start) / 1e9;
  Window win;
  win.t0_ns = realtime_ns() + 20000000;
  win.t1_ns = win.t0_ns + opt.seconds * 1000000000;
  for (auto& wk : workers) wk->begin_window(win);
  // CPU at the window edges: this process (the clients), the servers
  // (/proc/<pid>/task/*/schedstat) and the host's steal time.
  struct CpuSample {
    double client_us = 0;
    double server_ns = 0;
    double steal_ticks = 0;
  };
  auto sample_cpu = [&] {
    CpuSample c;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    c.client_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
                  static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
    for (const pid_t pid : topo->pids()) c.server_ns += static_cast<double>(cpu_ns(pid));
    c.steal_ticks = static_cast<double>(steal_ticks());
    return c;
  };
  sleep_until_us(win.t0_ns / 1000);
  const CpuSample cpu0 = sample_cpu();
  const ServerSnap s0 = snap_servers(*workers[0], *topo);
  sleep_until_us(win.t1_ns / 1000);
  const CpuSample cpu1 = sample_cpu();
  const ServerSnap s1 = snap_servers(*workers[0], *topo);
  for (auto& wk : workers) wk->ring_bell();
  for (auto& wk : workers) wk->join();
  std::vector<std::uint64_t> wal_records;
  for (std::size_t i = 0; i < topo->wal_paths().size(); ++i) {
    wal_records.push_back(count_records(topo->wal_paths()[i], s0.wal_bytes[i],
                                        s1.wal_bytes[i]));
  }
  const std::vector<pid_t> server_pids = topo->pids();
  topo->stop();
  const bool servers_clean = topo->clean_exit();

  verify_workers(workers);
  bool overflow = false;
  for (const auto& wk : workers) overflow |= wk->overflowed();

  // Window ops: every op completed inside [t0, t1), by kSubNs sub-window.
  const auto subs = static_cast<std::size_t>((win.t1_ns - win.t0_ns + kSubNs - 1) / kSubNs);
  std::vector<std::vector<std::int64_t>> read_subs(subs), write_subs(subs);
  std::uint64_t slice_ops[2] = {0, 0};
  for (const auto& wk : workers) {
    for (const OpRecord& r : wk->records()) {
      if (r.done_ns == perfbench::kUnfinished || r.done_ns < win.t0_ns ||
          r.done_ns >= win.t1_ns) {
        continue;
      }
      const auto sub = static_cast<std::size_t>((r.done_ns - win.t0_ns) / kSubNs);
      (r.is_write ? write_subs : read_subs)[sub].push_back(r.done_ns - r.issue_ns);
      ++slice_ops[((r.done_ns - win.t0_ns) / kSliceNs) % 2 == 0 ? 1 : 0];
    }
  }
  const double read_p99_sub = median_quantile(read_subs, 0.99);
  const double write_p99_sub = median_quantile(write_subs, 0.99);
  std::vector<std::int64_t> read_lat = concat(read_subs);
  std::vector<std::int64_t> write_lat = concat(write_subs);
  const std::uint64_t window_writes = write_lat.size();
  const std::uint64_t window_ops = read_lat.size() + window_writes;
  const double window_s = static_cast<double>(win.t1_ns - win.t0_ns) / 1e9;
  const double ops = static_cast<double>(window_ops);
  const double tick_us = 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  const auto cpu_count = static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
  // server_rss_mb is the peak RSS when the window opens: the servers have
  // then served a fixed number of ops (warm-up and ramp are counted in ops),
  // while their RSS keeps growing with every write applied (ObjectServer
  // keeps each object's write history), which protocol.server_bytes_per_write
  // reports per window write.
  double busiest_ticks = 0, hwm_kb = 0, hwm_growth_kb = 0;
  for (std::size_t p = 0; p < s1.procs.size(); ++p) {
    for (const auto& [tid, ticks] : s1.procs[p].task_ticks) {
      const auto before = s0.procs[p].task_ticks.find(tid);
      if (before == s0.procs[p].task_ticks.end()) continue;
      busiest_ticks = std::max(busiest_ticks, static_cast<double>(ticks - before->second));
    }
    hwm_kb += static_cast<double>(s0.procs[p].hwm_kb);
    hwm_growth_kb += static_cast<double>(s1.procs[p].hwm_kb - s0.procs[p].hwm_kb);
  }
  auto delta = [&](StatKey key) {
    return static_cast<double>(board_sum(s1.boards, key) - board_sum(s0.boards, key));
  };
  const double forwards = delta(StatKey::kClusterForwardsOut);
  const double relayed = delta(StatKey::kClusterRelayed);
  const bool cluster_ok = forwards == 0 && relayed == 0;
  const bool correct = v.wrong_values == 0 && !overflow && servers_clean &&
                       cluster_ok && window_ops > 0;

  Json e2e;
  // Every figure covers the whole window except the p99s: those are the
  // median over kSubNs sub-windows of each one's p99. On a shared virtual
  // machine the whole-window p99 is set by how long the host stalled the
  // vCPUs during the run, and it moved 0.7-0.9 IQR/median between runs on a
  // 4-vCPU KVM guest; it is reported under counts as *_p99_window_us.
  e2e.num("ops_per_s", ops / window_s);
  e2e.num("read_p50_us", percentile(read_lat, 0.50) / 1e3);
  e2e.num("read_p99_us", read_p99_sub / 1e3);
  e2e.num("write_p50_us", percentile(write_lat, 0.50) / 1e3);
  e2e.num("write_p99_us", write_p99_sub / 1e3);
  e2e.num("client_cpu_us_per_op", ratio(cpu1.client_us - cpu0.client_us, ops));
  e2e.num("server_cpu_us_per_op", ratio((cpu1.server_ns - cpu0.server_ns) / 1e3, ops));
  e2e.num("setup_s", median(setup_s));
  e2e.num("server_rss_mb", hwm_kb / 1024.0);

  Json layer;
  if (opt.trace) {
    SliceSums traced;
    for (const auto& wk : workers) traced += wk->slice(1);
    CacheStats c0, c1;
    double frames = 0, flushes = 0, entries = 0;
    for (const auto& wk : workers) {
      if (wk->edges_taken() < 2) die("window edges were not observed");
      c0 += wk->edge(0).cache;
      c1 += wk->edge(1).cache;
      frames += static_cast<double>(wk->edge(1).frames_sent - wk->edge(0).frames_sent);
      flushes += static_cast<double>(wk->edge(1).flush_syscalls - wk->edge(0).flush_syscalls);
      entries += static_cast<double>(wk->edge(1).cached_entries);
    }
    CacheStats dc;
    dc.reads = c1.reads - c0.reads;
    dc.writes = c1.writes - c0.writes;
    dc.cache_hits = c1.cache_hits - c0.cache_hits;
    dc.cache_misses = c1.cache_misses - c0.cache_misses;
    dc.validations = c1.validations - c0.validations;
    dc.validations_ok = c1.validations_ok - c0.validations_ok;
    dc.marked_old = c1.marked_old - c0.marked_old;
    const double client_ops = static_cast<double>(dc.reads + dc.writes);
    const double traced_ops = static_cast<double>(slice_ops[1]);
    const double issue_ns = static_cast<double>(traced.read_issue_ns + traced.write_issue_ns);
    const auto [encode_ns, decode_ns] = codec_ns(dc, opt.seed);
    // Slices alternate from t0, traced first: ops/s per slice kind.
    const std::int64_t slices = (win.t1_ns - win.t0_ns + kSliceNs - 1) / kSliceNs;
    const double untraced_rate =
        ratio(static_cast<double>(slice_ops[0]), static_cast<double>(slices / 2));
    const double traced_rate =
        ratio(static_cast<double>(slice_ops[1]), static_cast<double>((slices + 1) / 2));

    layer.num("protocol.read_issue_ns", ratio(static_cast<double>(traced.read_issue_ns),
                                              static_cast<double>(traced.read_issues)));
    layer.num("protocol.write_issue_ns", ratio(static_cast<double>(traced.write_issue_ns),
                                               static_cast<double>(traced.write_issues)));
    layer.num("protocol.cache_entries", entries / w.clients);
    layer.num("protocol.marked_old_per_op", ratio(static_cast<double>(dc.marked_old), client_ops));
    layer.num("protocol.hit_ratio", dc.hit_ratio());
    layer.num("protocol.validate_ok_ratio", ratio(static_cast<double>(dc.validations_ok),
                                                  static_cast<double>(dc.validations)));
    layer.num("protocol.rpcs_per_op", ratio(frames, client_ops));
    layer.num("protocol.server_bytes_per_write",
              ratio(hwm_growth_kb * 1024.0, static_cast<double>(window_writes)));
    layer.num("net.client_loop_ns_per_op",
              ratio(static_cast<double>(traced.cpu_ns) - issue_ns, traced_ops));
    layer.num("net.client_allocs_per_op", ratio(static_cast<double>(traced.allocs), traced_ops));
    layer.num("net.client_frames_per_flush", ratio(frames, flushes));
    layer.num("net.encode_ns", encode_ns);
    layer.num("net.decode_ns", decode_ns);
    layer.num("net.server_busy_frac", busiest_ticks * tick_us / (window_s * 1e6));
    layer.num("net.server_frames_per_flush",
              ratio(delta(StatKey::kFramesOut), delta(StatKey::kFlushSyscalls)));
    layer.num("net.server_ticks_per_op",
              ratio(delta(StatKey::kTicks), delta(StatKey::kOpsApplied)));
    layer.num("net.server_slow_ticks", delta(StatKey::kSlowTicks));
    double wal_bytes = 0, records = 0;
    for (std::size_t i = 0; i < wal_records.size(); ++i) {
      wal_bytes += static_cast<double>(s1.wal_bytes[i] - s0.wal_bytes[i]);
      records += static_cast<double>(wal_records[i]);
    }
    layer.num("wal.bytes_per_write", ratio(wal_bytes, static_cast<double>(dc.writes)));
    layer.num("wal.records_per_write", ratio(records, static_cast<double>(dc.writes)));
    layer.num("cluster.route_ns", ratio(static_cast<double>(traced.route_ns),
                                        static_cast<double>(traced.routes)));
    layer.num("cluster.gossip_frames_per_s", delta(StatKey::kClusterMembershipSent) / window_s);
    layer.num("cluster.forwards_per_op", ratio(forwards, ops));
    layer.num("cluster.relayed_per_op", ratio(relayed, ops));
    layer.num("trace.overhead_pct", 100.0 * (1.0 - ratio(traced_rate, untraced_rate)));
    layer.num("verify.fail_frac",
              ratio(static_cast<double>(v.failed), static_cast<double>(v.ops)));
    layer.num("verify.late_reads", static_cast<double>(v.late_reads));
    if (!opt.spans_out.empty()) write_spans(opt.spans_out, workers, win.t0_ns);
  }

  Json counts;
  // The boards' sampled stage percentiles, worst reactor, at window end.
  // They come in whole microseconds (decode reads 0 or 1 on every run), so
  // they are reported here rather than as metrics.
  const std::pair<const char*, StatKey> stages[] = {
      {"board.decode_p50_us", StatKey::kStageDecodeP50Us},
      {"board.decode_p99_us", StatKey::kStageDecodeP99Us},
      {"board.apply_p50_us", StatKey::kStageApplyP50Us},
      {"board.apply_p99_us", StatKey::kStageApplyP99Us},
      {"board.flush_p50_us", StatKey::kStageFlushP50Us},
      {"board.flush_p99_us", StatKey::kStageFlushP99Us},
  };
  for (const auto& [name, key] : stages) {
    counts.num(name, static_cast<double>(board_max(s1.boards, key)));
  }
  counts.num("read_samples", static_cast<double>(read_lat.size()));
  counts.num("write_samples", static_cast<double>(write_lat.size()));
  counts.num("read_p99_window_us", percentile(read_lat, 0.99) / 1e3);
  counts.num("write_p99_window_us", percentile(write_lat, 0.99) / 1e3);
  counts.num("pinned", opt.load_cpus.empty() ? 0 : 1);
  counts.num("steal_frac", (cpu1.steal_ticks - cpu0.steal_ticks) * tick_us /
                               (window_s * 1e6 * static_cast<double>(cpu_count)));
  counts.num("window_ops", ops);
  counts.num("window_writes", static_cast<double>(window_writes));
  counts.num("verified_ops", static_cast<double>(v.ops));
  counts.num("unfinished", static_cast<double>(v.unfinished));
  counts.num("wrong_values", static_cast<double>(v.wrong_values));
  counts.num("late_reads", static_cast<double>(v.late_reads));
  counts.num("late_after_ack", static_cast<double>(v.late_after_ack));
  counts.num("max_late_us", static_cast<double>(v.max_late_us));
  counts.num("cluster_forwards", forwards);
  counts.num("cluster_relayed", relayed);
  counts.num("server_processes", static_cast<double>(server_pids.size()));
  counts.num("ramp_s", ramp_s);
  std::string setups = "[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.6f", i ? "," : "", setup_s[i]);
    setups += buf;
  }
  setups += "]";

  Json out;
  out.raw("workload", "\"" + std::string(w.name) + "\"");
  out.raw("build_type", "\"" PERFBENCH_BUILD_TYPE "\"");
  out.raw("correct", correct ? "true" : "false");
  out.num("attempted", static_cast<double>(v.ops));
  out.num("failed", static_cast<double>(v.failed));
  out.raw("end_to_end", e2e.str());
  out.raw("per_layer", layer.str());
  out.raw("counts", counts.str());
  out.raw("setup_s_all", setups);
  std::printf("%s\n", out.str().c_str());
  return 0;
}
