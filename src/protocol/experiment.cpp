#include "protocol/experiment.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "obs/stats_bridge.hpp"
#include "protocol/timed_causal_cache.hpp"
#include "protocol/timed_serial_cache.hpp"

namespace timedc {
namespace {

/// Drives one client's planned operations sequentially: the next operation
/// issues at its planned time or just after the previous one completed,
/// whichever is later.
class ClientDriver {
 public:
  ClientDriver(Simulator& sim, CacheClient& client, HistoryBuilder& record,
               std::vector<SimTime>& read_staleness_sink)
      : sim_(sim),
        client_(client),
        record_(record),
        staleness_sink_(read_staleness_sink) {}

  void add_op(const WorkloadOp& op, Value write_value) {
    plan_.push_back(Planned{op.at, op.is_write, op.object, write_value});
  }

  void start() { issue_next(SimTime::zero()); }

  using StalenessOracle = std::function<SimTime(ObjectId, Value, SimTime)>;
  void set_oracle(StalenessOracle oracle) { oracle_ = std::move(oracle); }

  std::uint64_t completed() const { return completed_; }

 private:
  struct Planned {
    SimTime at;
    bool is_write;
    ObjectId object;
    Value value;
  };

  void issue_next(SimTime not_before) {
    if (plan_.empty()) return;
    const Planned next = plan_.front();
    const SimTime when = max(next.at, not_before);
    plan_.pop_front();
    sim_.schedule_at(when, [this, next] { execute(next); });
  }

  void execute(const Planned& op) {
    // Abandoned operations (retry budget exhausted under faults) complete
    // degraded: they are counted but kept out of the recorded history and
    // the staleness oracle — an abandoned read was never admitted under
    // the protocol's Delta rules, and an abandoned write may or may not
    // have reached the server (its ack was lost either way).
    if (op.is_write) {
      const SimTime issued = sim_.now();
      client_.write(op.object, op.value, [this, op, issued](SimTime completed) {
        if (!client_.last_op_abandoned()) {
          record_.write(client_.site(), op.object, op.value, issued);
        }
        ++completed_;
        issue_next(completed + SimTime::micros(1));
      });
    } else {
      client_.read(op.object, [this, op](Value v, SimTime completed) {
        if (!client_.last_op_abandoned()) {
          record_.read(client_.site(), op.object, v, completed);
          if (oracle_) {
            staleness_sink_.push_back(oracle_(op.object, v, completed));
          }
        }
        ++completed_;
        issue_next(completed + SimTime::micros(1));
      });
    }
  }

  Simulator& sim_;
  CacheClient& client_;
  HistoryBuilder& record_;
  std::vector<SimTime>& staleness_sink_;
  std::deque<Planned> plan_;
  StalenessOracle oracle_;
  std::uint64_t completed_ = 0;
};

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  Simulator sim;
  Rng rng(config.seed);

  const std::size_t num_clients = config.workload.num_clients;
  const std::size_t num_servers = std::max<std::size_t>(1, config.num_servers);
  std::vector<SiteId> cluster;
  for (std::size_t k = 0; k < num_servers; ++k) {
    cluster.push_back(SiteId{static_cast<std::uint32_t>(num_clients + k)});
  }

  NetworkConfig net_config;
  net_config.drop_probability = config.drop_probability;
  Network net(sim, num_clients + num_servers,
              std::make_unique<UniformLatency>(config.min_latency,
                                               config.max_latency),
              net_config, rng.split());

  // One Tracer per run: run_experiment is a pure function of its config, so
  // the flushed trace is bit-identical however many runs execute in
  // parallel around it.
  std::optional<Tracer> tracer;
  if (config.trace.enabled) tracer.emplace(config.trace);
  Tracer* obs = tracer ? &*tracer : nullptr;
  net.set_tracer(obs);

  // The injector gets its own rng stream, derived from the seed but NOT
  // from the shared split sequence: adding faults must not perturb the
  // latency/workload streams of the fault-free baseline.
  std::optional<FaultInjector> injector;
  if (!config.faults.empty()) {
    injector.emplace(config.faults, Rng(config.seed ^ 0xFA017ull));
    net.set_fault_injector(&*injector);
    if (obs != nullptr) injector->emit_partition_markers(*obs);
  }

  // The staleness and visibility oracles below read every server's write
  // history.
  ServerConfig server_config{config.lease};
  server_config.record_history = true;
  std::vector<std::unique_ptr<ObjectServer>> servers;
  for (SiteId site : cluster) {
    servers.push_back(std::make_unique<ObjectServer>(
        sim, net, site, num_clients, config.push, config.sizes, cluster,
        server_config));
    servers.back()->set_tracer(obs);
    servers.back()->attach();
    if (injector) {
      ObjectServer* srv = servers.back().get();
      injector->install(sim, site,
                        FaultInjector::NodeHooks{[srv] { srv->crash(); },
                                                 [srv] { srv->restart(); }});
    }
  }
  const auto owner_of = [&cluster](ObjectId object) {
    return cluster[object.value % cluster.size()];
  };

  // Clocks: perfect when eps == 0, eps-synchronized otherwise.
  std::vector<std::unique_ptr<PhysicalClockModel>> clocks;
  for (std::uint32_t c = 0; c < num_clients; ++c) {
    if (config.eps == SimTime::zero()) {
      clocks.push_back(std::make_unique<PerfectClock>());
    } else {
      clocks.push_back(std::make_unique<SyncedClock>(
          config.eps, SimTime::millis(50), config.drift_ppm,
          config.seed * 1315423911ULL + c));
    }
  }

  std::vector<std::unique_ptr<CacheClient>> clients;
  for (std::uint32_t c = 0; c < num_clients; ++c) {
    if (config.kind == ProtocolKind::kTimedSerial) {
      clients.push_back(std::make_unique<TimedSerialCache>(
          sim, net, SiteId{c}, cluster.front(), clocks[c].get(), config.delta,
          config.mark_old, config.sizes));
    } else {
      clients.push_back(std::make_unique<TimedCausalCache>(
          sim, net, SiteId{c}, cluster.front(), clocks[c].get(), config.delta,
          config.mark_old, config.sizes, num_clients, config.clock_entries,
          config.eviction));
    }
    RetryPolicy retry = config.retry;
    if (retry.max_attempts == 0) {
      // AUTO: reliability costs nothing to leave off when the network is
      // perfect, and is mandatory when it isn't.
      const bool faulty =
          config.drop_probability > 0.0 || !config.faults.empty();
      retry.max_attempts = faulty ? 8 : 1;
    }
    clients.back()->set_tracer(obs);
    clients.back()->configure_reliability(retry, cluster,
                                          config.seed * 2654435761ULL + c);
    if (config.routing == Routing::kDirect) {
      clients.back()->set_route(owner_of);
    } else {
      // Round-robin over the cluster: non-owners forward (Section 5.1's
      // "a server site which either has a copy or can obtain it").
      auto counter = std::make_shared<std::size_t>(c);
      clients.back()->set_route([&cluster, counter](ObjectId) {
        return cluster[(*counter)++ % cluster.size()];
      });
    }
    clients.back()->attach();
  }

  // Plan the workload; writes receive globally unique values.
  Rng wl_rng = rng.split();
  const auto ops = generate_workload(config.workload, wl_rng);
  HistoryBuilder record(num_clients);
  std::vector<SimTime> staleness;
  std::vector<std::unique_ptr<ClientDriver>> drivers;
  for (std::uint32_t c = 0; c < num_clients; ++c) {
    drivers.push_back(
        std::make_unique<ClientDriver>(sim, *clients[c], record, staleness));
  }
  std::int64_t next_value = 1;
  for (const WorkloadOp& op : ops) {
    drivers[op.client.value]->add_op(
        op, op.is_write ? Value{next_value++} : Value{0});
  }

  // Oracle: staleness of a returned value = completion time minus the
  // server-side apply time of the next write to the same object (0 when the
  // value was still current at completion).
  const auto oracle = [&servers, &owner_of, &cluster, num_clients](
                          ObjectId object, Value v,
                          SimTime completed) -> SimTime {
    (void)cluster;
    const ObjectServer& server =
        *servers[owner_of(object).value - num_clients];
    const auto& writes = server.applied_writes(object);
    // A value that lost the last-writer-wins race was stale the moment it
    // reached the server (only its own writer can still be serving it).
    for (const auto& w : writes) {
      if (w.value == v && !w.accepted) {
        return completed > w.applied_at ? completed - w.applied_at
                                        : SimTime::zero();
      }
    }
    // Otherwise: staleness counts from the next *accepted* write after v's
    // own apply time (for the initial value, from the first accepted write).
    SimTime own_apply = SimTime::micros(-1);
    for (const auto& w : writes) {
      if (w.value == v) {
        own_apply = w.applied_at;
        break;
      }
    }
    for (const auto& w : writes) {
      if (w.accepted && w.applied_at > own_apply && w.value != v) {
        if (w.applied_at >= completed) return SimTime::zero();
        return completed - w.applied_at;
      }
    }
    return SimTime::zero();
  };
  for (auto& d : drivers) {
    d->set_oracle(oracle);
    d->start();
  }

  sim.run_until();

  ExperimentResult result;
  for (const auto& c : clients) result.cache += c->stats();
  for (const auto& srv : servers) {
    const ServerStats& st = srv->stats();
    result.server.fetches += st.fetches;
    result.server.writes_applied += st.writes_applied;
    result.server.validations += st.validations;
    result.server.validations_ok += st.validations_ok;
    result.server.pushes += st.pushes;
    result.server.forwarded += st.forwarded;
    result.server.writes_deferred += st.writes_deferred;
    result.server.duplicate_writes += st.duplicate_writes;
    result.server.crashes += st.crashes;
    result.server.restarts += st.restarts;
  }
  result.network = net.stats();
  if (injector) result.faults = injector->stats();
  for (const auto& d : drivers) result.operations += d->completed();
  // Every operation completes or is explicitly abandoned — a hung client
  // would fail this (the liveness half of the robustness claim).
  TIMEDC_ASSERT(result.operations == ops.size());
  result.ops_abandoned = result.cache.ops_abandoned;
  if (result.operations > 0) {
    result.retries_per_op = static_cast<double>(result.cache.retries) /
                            static_cast<double>(result.operations);
  }
  if (!ops.empty()) {
    SimTime horizon = SimTime::zero();
    for (const WorkloadOp& op : ops) horizon = max(horizon, op.at);
    horizon = max(horizon, sim.now());
    const double total_client_us =
        static_cast<double>(num_clients) *
        static_cast<double>(horizon.as_micros());
    if (total_client_us > 0) {
      result.unavailable_fraction =
          static_cast<double>(result.cache.unavailable_us) / total_client_us;
    }
  }

  if (!staleness.empty()) {
    double sum = 0;
    std::uint64_t late = 0;
    for (SimTime s : staleness) {
      sum += static_cast<double>(s.as_micros());
      result.max_staleness = max(result.max_staleness, s);
      result.staleness_us.record(s.as_micros());
      if (!config.delta.is_infinite() && s > config.delta) ++late;
    }
    result.mean_staleness_us = sum / static_cast<double>(staleness.size());
    result.reads_late = late;
    result.late_fraction =
        static_cast<double>(late) / static_cast<double>(staleness.size());
  }
  if (result.operations > 0) {
    result.messages_per_op = static_cast<double>(result.network.messages_sent) /
                             static_cast<double>(result.operations);
    result.bytes_per_op = static_cast<double>(result.network.bytes_sent) /
                          static_cast<double>(result.operations);
  }
  result.messages_dropped = result.network.messages_dropped;
  result.messages_duplicated = result.network.messages_duplicated;
  result.history = record.build();

  // Visibility latency per accepted write: server apply time minus client
  // issue time. Written values are globally unique, so the recorded history
  // pairs each server-side arrival with its issuing operation.
  {
    std::unordered_map<std::int64_t, SimTime> issued_at;
    for (const Operation& op : result.history.operations()) {
      if (op.is_write()) issued_at.emplace(op.value.value, op.time);
    }
    for (const auto& srv : servers) {
      for (const auto& [object, writes] : srv->write_history()) {
        (void)object;
        for (const auto& w : writes) {
          if (!w.accepted) continue;
          const auto it = issued_at.find(w.value.value);
          if (it == issued_at.end()) continue;  // abandoned, not recorded
          result.visibility_us.record((w.applied_at - it->second).as_micros());
        }
      }
    }
  }

  if (tracer) result.trace = tracer->flush();
  return result;
}

MetricsRegistry experiment_metrics(const ExperimentConfig& config,
                                   const ExperimentResult& result) {
  MetricsRegistry reg;
  reg.set_gauge("delta_us", config.delta.is_infinite()
                                ? -1.0
                                : static_cast<double>(config.delta.as_micros()));
  reg.set_counter("operations", result.operations);
  reg.set_counter("ops_abandoned", result.ops_abandoned);
  reg.set_counter("reads_late", result.reads_late);
  reg.set_gauge("late_fraction", result.late_fraction);
  reg.set_gauge("mean_staleness_us", result.mean_staleness_us);
  reg.set_gauge("messages_per_op", result.messages_per_op);
  reg.set_gauge("bytes_per_op", result.bytes_per_op);
  reg.set_gauge("retries_per_op", result.retries_per_op);
  reg.set_gauge("unavailable_fraction", result.unavailable_fraction);
  publish_cache_stats(reg, "cache", result.cache);
  publish_server_stats(reg, "server", result.server);
  publish_network_stats(reg, "network", result.network);
  publish_fault_stats(reg, "faults", result.faults);
  reg.add_histogram("staleness_us", result.staleness_us);
  reg.add_histogram("visibility_latency_us", result.visibility_us);
  return reg;
}

std::vector<ExperimentResult> run_experiment_seeds(
    const ExperimentConfig& config, const std::vector<std::uint64_t>& seeds,
    std::size_t num_threads) {
  return parallel_map(
      seeds.size(),
      [&](std::size_t i) {
        ExperimentConfig c = config;
        c.seed = seeds[i];
        return run_experiment(c);
      },
      num_threads);
}

}  // namespace timedc
