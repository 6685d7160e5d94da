// Per-op records and the post-run verifier of the end-to-end benchmark.
//
// Every client operation the benchmark issues leaves one fixed-size OpRecord
// in a buffer sized before the run starts, so recording costs no
// allocation and memory stays bounded. After the measured window closes,
// verify() checks every op in O(n log n):
//   * value check: written values are unique, so a read must return the
//     initial value or a value some write to the same object stamped no
//     later than the read completed;
//   * timeliness: Definition 1 at the workload's Delta, through the
//     library's reads_on_time(history, TimedSpecEpsilon{Delta, 0}) —
//     binary searches over the per-object writes, never the
//     reads x writes scan of per_read_staleness. With each write at its
//     client timestamp, a read can be late by up to the transit of the
//     write it missed: the server vouched for the old copy before that
//     write arrived. Such reads are counted (late_reads); a read fails only
//     if it is late with both ops taken as intervals, i.e. it began more
//     than Delta after the missed write was acknowledged (late_after_ack);
//   * completion: an op still unfinished when the drain grace expired.
// Each failing op is counted once, whatever the number of checks it fails.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>

namespace perfbench {

inline constexpr std::int64_t kUnfinished = -1;

/// Times are CLOCK_REALTIME nanoseconds: the clock the clients stamp
/// writes with, shared by every process on the host.
struct OpRecord {
  std::int64_t issue_ns = 0;  // when read()/write() was called
  std::int64_t done_ns = kUnfinished;  // when the callback ran
  std::int64_t value = 0;     // value written, or value the read returned
  std::uint32_t object = 0;
  // Writes: the client's timestamp (the microsecond the server's
  // last-writer-wins order uses) minus issue_ns.
  std::int32_t stamp_off_ns = 0;
  std::uint16_t client = 0;   // client session: the history site
  std::uint8_t is_write = 0;
};

/// Fixed-capacity append buffer for trivially copyable records. The storage
/// comes straight from malloc and is never initialized up front, so pages
/// the run never reaches are never touched.
template <typename T>
class FixedBuffer {
 public:
  explicit FixedBuffer(std::size_t capacity)
      : data_(static_cast<T*>(std::malloc(capacity * sizeof(T)))),
        capacity_(data_ == nullptr ? 0 : capacity) {}

  /// Index of the appended record, or -1 when the buffer is full.
  std::int64_t append(const T& r) {
    if (size_ == capacity_) return -1;
    data_.get()[size_] = r;
    return static_cast<std::int64_t>(size_++);
  }
  T& operator[](std::size_t i) { return data_.get()[i]; }
  std::span<const T> records() const { return {data_.get(), size_}; }
  std::size_t size() const { return size_; }
  bool full() const { return size_ == capacity_; }

 private:
  struct Free {
    void operator()(T* p) const { std::free(p); }
  };
  std::unique_ptr<T, Free> data_;
  std::size_t capacity_;
  std::size_t size_ = 0;
};

using OpBuffer = FixedBuffer<OpRecord>;

struct VerifyResult {
  std::uint64_t ops = 0;
  std::uint64_t reads = 0;
  std::uint64_t unfinished = 0;
  std::uint64_t wrong_values = 0;
  std::uint64_t late_reads = 0;      // late with writes at their stamps
  std::uint64_t late_after_ack = 0;  // late with writes at their acks: failed
  std::int64_t max_late_us = 0;  // worst T(r) - Delta - T(w') of a late read
  std::uint64_t failed = 0;      // distinct ops failing any check

  VerifyResult& operator+=(const VerifyResult& o);
};

/// Checks every record of `parts`. Within one part, each client's records
/// must appear in program order (the order its ops were issued). Both checks involve one object
/// at a time, so the records are checked in object groups of bounded size,
/// one History each, which bounds the verifier's memory.
VerifyResult verify(std::span<const std::span<const OpRecord>> parts,
                    std::int64_t delta_us);

/// Runs verify() on forged histories: a clean one must pass, and a
/// wrong-value read and a Def-1-late read must each be caught. Prints one
/// line per case; returns true when every case behaves.
bool self_test();

}  // namespace perfbench
