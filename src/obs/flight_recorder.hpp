// Allocation-free per-reactor flight recorder (black box) for the serving
// hot path.
//
// A FlightRecorder is a fixed-capacity single-producer ring of POD event
// records. The producer is ONE reactor thread; record() costs one enabled
// branch, one masked index, the record's fields stored as relaxed atomics
// (plain moves on x86) and a release counter store — no locks, no
// allocation, no formatting. The ring overwrites its oldest entries
// forever (flight-recorder semantics: the last `capacity` events before an
// incident are what matter); overwritten_ counts what the wrap discarded.
//
// Reading happens two ways:
//   * snapshot(): any thread copies the live ring. Records the producer
//     might have been overwriting during the copy are discarded, so every
//     returned record is untorn (see the epoch check in the .cpp).
//   * dump_to_fd() / the fatal-signal path: the raw ring is written with
//     nothing but write(2) — async-signal-safe by construction. A process
//     installs install_fatal_dump(prefix) once; on SIGSEGV/SIGBUS/SIGFPE/
//     SIGABRT every registered recorder is dumped to
//     "<prefix>.site<id>.fr" before the default action re-raises.
//
// The binary dump format is versioned (FlightFileHeader) and converted
// offline into the canonical TraceEvent stream (flight_to_events), from
// which the existing JSONL / Perfetto exporters and ci/validate_trace.py
// take over. The tools wrapper is tools/timedc_flight.cpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/trace.hpp"

namespace timedc {

/// One ring slot. POD on purpose: the fatal-signal dump writes raw memory,
/// and the offline converter reinterprets it, so the layout is the file
/// format (see FlightFileHeader::version).
struct FlightRecord {
  std::int64_t t_us = 0;      // CLOCK_REALTIME microseconds
  std::uint32_t site = 0;     // emitting reactor's site id
  std::uint8_t type = 0;      // TraceEventType
  std::uint8_t pad[3] = {};
  std::uint32_t obj = 0xffffffffu;  // kNoObject sentinel
  std::uint32_t op = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
};
static_assert(std::is_trivially_copyable_v<FlightRecord>);
static_assert(sizeof(FlightRecord) == 40);

/// Header of a binary .fr dump (all fields little-endian, like the wire).
struct FlightFileHeader {
  std::uint32_t magic = 0x52434454;  // "TDCR"
  std::uint32_t version = 1;
  std::uint32_t site = 0;
  std::uint32_t capacity = 0;    // ring slots
  std::uint64_t next_index = 0;  // monotone producer index at dump time
  std::uint64_t overwritten = 0;
};
static_assert(std::is_trivially_copyable_v<FlightFileHeader>);
static_assert(sizeof(FlightFileHeader) == 32);

class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two (masked indexing); the ring
  /// is allocated here, once — record() never touches the heap. A disabled
  /// recorder costs exactly the one branch.
  explicit FlightRecorder(std::uint32_t site, std::size_t capacity = 1u << 14,
                          bool enabled = true);

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  std::uint32_t site() const { return site_; }
  std::size_t capacity() const { return ring_.size(); }

  /// Producer-side append (single producer: the owning reactor thread).
  /// The slot is written as a seqlock writer (Boehm, "Can Seqlocks Get
  /// Along with Programming Language Memory Models?", MSPC 2012): relaxed
  /// atomic stores after a release fence, so a snapshot() that sees any of
  /// them also sees this index in next_, and discards the slot.
  void record(TraceEventType type, std::int64_t t_us,
              ObjectId object = kNoObject, std::uint64_t op = 0,
              std::int64_t a = 0, std::int64_t b = 0) {
    if (!enabled_) return;
    const std::uint64_t i = next_.load(std::memory_order_relaxed);
    FlightRecord& r = ring_[i & mask_];
    std::atomic_thread_fence(std::memory_order_release);
    store_relaxed(r.t_us, t_us);
    store_relaxed(r.site, site_);
    store_relaxed(r.type, static_cast<std::uint8_t>(type));
    store_relaxed(r.obj, object.value);
    store_relaxed(r.op, static_cast<std::uint32_t>(op));
    store_relaxed(r.a, a);
    store_relaxed(r.b, b);
    next_.store(i + 1, std::memory_order_release);
  }

  /// Total records ever appended.
  std::uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }
  /// Records lost to ring wrap (recorded() - capacity, floored at 0).
  std::uint64_t overwritten() const;

  /// Cross-thread copy of the current ring contents in append order,
  /// oldest first. Only records guaranteed untorn are returned.
  std::vector<FlightRecord> snapshot() const;

  /// Write header + raw ring to an already-open fd using only write(2).
  /// Async-signal-safe. Returns false on short/failed write.
  bool dump_to_fd(int fd) const;
  /// open() + dump_to_fd() + close(). Not for signal handlers (allocates
  /// nothing, but callers should prefer install_fatal_dump for crashes).
  bool dump_to_file(const char* path) const;

 private:
  template <typename T>
  static void store_relaxed(T& field, T value) {
    std::atomic_ref<T>(field).store(value, std::memory_order_relaxed);
  }

  bool enabled_;
  const std::uint32_t site_;
  std::uint64_t mask_ = 0;
  std::vector<FlightRecord> ring_;
  std::atomic<std::uint64_t> next_{0};
};

/// Register `recorder` for the fatal-signal dump (a fixed-size process-wide
/// table; at most 64 recorders). The recorder must outlive the process or
/// be removed with unregister_flight_recorder before destruction.
void register_flight_recorder(FlightRecorder* recorder);
void unregister_flight_recorder(FlightRecorder* recorder);

/// Install SIGSEGV/SIGBUS/SIGFPE/SIGABRT handlers that dump every
/// registered recorder to "<prefix>.site<id>.fr" and then re-raise with the
/// default action (so the exit status still reports the crash). The prefix
/// is copied into static storage (truncated to 200 bytes). Idempotent.
void install_fatal_dump(const char* path_prefix);

/// Parse one binary .fr dump back into canonical TraceEvents (oldest
/// first, times preserved). Returns false on a malformed header/size; on
/// success appends to `out` and reports the dump's overwritten count.
bool flight_to_events(const std::string& bytes, std::vector<TraceEvent>* out,
                      std::uint64_t* overwritten = nullptr);

}  // namespace timedc
