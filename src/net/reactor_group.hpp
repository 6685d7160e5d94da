// N single-threaded reactors sharing one listening port.
//
// Each reactor is an (EventLoop, TcpTransport) pair pinned to its own
// thread. With more than one reactor, all listen on the same port with
// SO_REUSEPORT, so the kernel shards incoming accepts across them, and
// object-hash connection steering (TcpTransport::set_steering) moves each
// accepted connection to the reactor that owns its destination site: after
// the first protocol frame every connection is wholly served by one thread
// and reactors share no protocol state. The Transport seam is unchanged,
// and protocol code cannot tell one reactor from sixteen. A group of one
// binds its port exclusively and installs no steering, so a second server
// on the same fixed port fails loudly.
//
// Site ownership is a function the caller provides (site -> reactor
// index); the group wires it into every transport's steering hook. The
// caller registers its per-reactor protocol objects between construction
// and start() — transports are plain TcpTransports, reachable via
// transport(i). cluster::Node (src/cluster/node.hpp) is the server built
// on it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"

namespace timedc::net {

class ReactorGroup {
 public:
  /// Maps a destination site to the reactor index that owns it. Must be
  /// pure and thread-agnostic: it runs on whichever reactor accepted the
  /// connection. Sites that return an out-of-range index stay on the
  /// accepting reactor.
  using SiteOwnerFn = std::function<std::size_t(SiteId)>;

  /// `latency_bound` is forwarded to every TcpTransport.
  ReactorGroup(std::size_t reactors, SiteOwnerFn site_owner,
               SimTime latency_bound = SimTime::infinity());
  ~ReactorGroup();
  ReactorGroup(const ReactorGroup&) = delete;
  ReactorGroup& operator=(const ReactorGroup&) = delete;

  /// Bind every reactor to the same 127.0.0.1:`port`, with SO_REUSEPORT
  /// when there is more than one (port 0: the first reactor picks an
  /// ephemeral port and the rest join it). Returns the port, or 0 with
  /// errno set when a reactor cannot bind it. Call before start().
  std::uint16_t listen_shared(std::uint16_t port);

  /// Launch one thread per reactor running its loop. `on_thread_start`, if
  /// set, runs first on each reactor thread (index argument) — benchmarks
  /// use it to tag reactor threads for allocation accounting.
  void start(std::function<void(std::size_t)> on_thread_start = nullptr);

  /// Drain and stop: each reactor closes its connections on its own loop,
  /// then the loops stop and the threads join. Idempotent.
  void stop();

  /// Attach live observability to every reactor: a per-reactor StatsBoard
  /// (site id = `site_base` + reactor index) and FlightRecorder, all
  /// registered in one StatsHub so any reactor answers wire kStatsRequest
  /// frames for the whole group. Call before start(); the group owns the
  /// boards/recorders (they outlive the transports).
  /// `flight_capacity` must be a power of two; 0 skips the recorders.
  void enable_observability(std::uint32_t site_base,
                            std::size_t flight_capacity = 1u << 14);

  /// Null until enable_observability(); readable from any thread.
  StatsBoard* stats_board(std::size_t i) {
    return reactors_[i]->board.get();
  }
  FlightRecorder* flight_recorder(std::size_t i) {
    return reactors_[i]->flight.get();
  }
  const StatsHub* stats_hub() const { return hub_.get(); }

  std::size_t size() const { return reactors_.size(); }
  EventLoop& loop(std::size_t i) { return *reactors_[i]->loop; }
  TcpTransport& transport(std::size_t i) { return *reactors_[i]->transport; }
  /// The listening port; 0 before listen_shared().
  std::uint16_t port() const { return port_; }

 private:
  struct Reactor {
    std::unique_ptr<EventLoop> loop;
    std::unique_ptr<TcpTransport> transport;
    std::unique_ptr<StatsBoard> board;
    std::unique_ptr<FlightRecorder> flight;
    std::thread thread;
  };

  std::vector<std::unique_ptr<Reactor>> reactors_;
  SiteOwnerFn site_owner_;
  std::unique_ptr<StatsHub> hub_;
  std::uint16_t port_ = 0;
  bool started_ = false;
};

}  // namespace timedc::net
