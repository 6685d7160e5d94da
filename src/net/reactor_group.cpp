#include "net/reactor_group.hpp"

#include <atomic>

#include "common/assert.hpp"

namespace timedc::net {

ReactorGroup::ReactorGroup(std::size_t reactors, SiteOwnerFn site_owner,
                           SimTime latency_bound)
    : site_owner_(std::move(site_owner)) {
  TIMEDC_ASSERT(reactors >= 1);
  TIMEDC_ASSERT(site_owner_ != nullptr);
  reactors_.reserve(reactors);
  for (std::size_t i = 0; i < reactors; ++i) {
    auto r = std::make_unique<Reactor>();
    r->loop = std::make_unique<EventLoop>();
    r->transport = std::make_unique<TcpTransport>(*r->loop, latency_bound);
    reactors_.push_back(std::move(r));
  }
  if (reactors == 1) return;  // nowhere to steer to
  for (std::size_t i = 0; i < reactors; ++i) {
    reactors_[i]->transport->set_steering([this](SiteId to) -> TcpTransport* {
      const std::size_t owner = site_owner_(to);
      if (owner >= reactors_.size()) return nullptr;
      return reactors_[owner]->transport.get();
    });
  }
}

ReactorGroup::~ReactorGroup() {
  stop();
  // The fatal-dump registry must not outlive the recorders it points at.
  for (auto& r : reactors_) {
    if (r->flight != nullptr) unregister_flight_recorder(r->flight.get());
  }
}

void ReactorGroup::enable_observability(std::uint32_t site_base,
                                        std::size_t flight_capacity) {
  TIMEDC_ASSERT(!started_);
  if (hub_ == nullptr) hub_ = std::make_unique<StatsHub>();
  for (std::size_t i = 0; i < reactors_.size(); ++i) {
    Reactor& r = *reactors_[i];
    if (r.board == nullptr) {
      r.board = std::make_unique<StatsBoard>(
          site_base + static_cast<std::uint32_t>(i));
      const bool announced = hub_->add(r.board.get());
      TIMEDC_ASSERT(announced && "more reactors than StatsHub::kMaxBoards");
    }
    r.transport->set_stats_board(r.board.get());
    r.transport->set_stats_hub(hub_.get());
    if (flight_capacity > 0 && r.flight == nullptr) {
      r.flight = std::make_unique<FlightRecorder>(
          site_base + static_cast<std::uint32_t>(i), flight_capacity);
      register_flight_recorder(r.flight.get());
      r.transport->set_flight_recorder(r.flight.get());
    }
  }
}

std::uint16_t ReactorGroup::listen_shared(std::uint16_t port) {
  TIMEDC_ASSERT(!started_);
  const bool reuse_port = reactors_.size() > 1;
  port_ = reactors_[0]->transport->listen(port, reuse_port);
  for (std::size_t i = 1; i < reactors_.size() && port_ != 0; ++i) {
    if (reactors_[i]->transport->listen(port_, /*reuse_port=*/true) == 0) {
      port_ = 0;
    }
  }
  return port_;
}

void ReactorGroup::start(std::function<void(std::size_t)> on_thread_start) {
  TIMEDC_ASSERT(!started_);
  started_ = true;
  for (std::size_t i = 0; i < reactors_.size(); ++i) {
    Reactor* r = reactors_[i].get();
    r->thread = std::thread([r, i, on_thread_start]() {
      if (on_thread_start) on_thread_start(i);
      r->loop->run();
    });
  }
}

void ReactorGroup::stop() {
  if (!started_) return;
  started_ = false;
  // Connections must close on their own loop thread; wait for each close
  // to finish before stopping that loop.
  for (auto& r : reactors_) {
    std::atomic<bool> done{false};
    TcpTransport* t = r->transport.get();
    r->loop->post([t, &done]() {
      t->close_all();
      done.store(true, std::memory_order_release);
    });
    while (!done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  for (auto& r : reactors_) r->loop->stop();
  for (auto& r : reactors_) {
    if (r->thread.joinable()) r->thread.join();
  }
}

}  // namespace timedc::net
