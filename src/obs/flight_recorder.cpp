#include "obs/flight_recorder.hpp"

#include <fcntl.h>
#include <signal.h>
#include <string.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

namespace timedc {
namespace {

std::uint64_t round_up_pow2(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// The seqlock reader's side of a field record() may be storing to.
template <typename T>
T load_relaxed(const T& field) {
  return std::atomic_ref<T>(const_cast<T&>(field))
      .load(std::memory_order_relaxed);
}

}  // namespace

FlightRecorder::FlightRecorder(std::uint32_t site, std::size_t capacity,
                               bool enabled)
    : enabled_(enabled), site_(site) {
  const std::uint64_t cap = round_up_pow2(std::max<std::size_t>(capacity, 2));
  mask_ = cap - 1;
  ring_.resize(cap);
}

std::uint64_t FlightRecorder::overwritten() const {
  const std::uint64_t n = next_.load(std::memory_order_relaxed);
  return n > ring_.size() ? n - ring_.size() : 0;
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  const std::uint64_t cap = ring_.size();
  const std::uint64_t end = next_.load(std::memory_order_acquire);
  const std::uint64_t begin = end > cap ? end - cap : 0;
  std::vector<FlightRecord> out;
  out.reserve(static_cast<std::size_t>(end - begin));
  for (std::uint64_t i = begin; i < end; ++i) {
    const FlightRecord& slot = ring_[i & mask_];
    FlightRecord& r = out.emplace_back();
    r.t_us = load_relaxed(slot.t_us);
    r.site = load_relaxed(slot.site);
    r.type = load_relaxed(slot.type);
    r.obj = load_relaxed(slot.obj);
    r.op = load_relaxed(slot.op);
    r.a = load_relaxed(slot.a);
    r.b = load_relaxed(slot.b);
  }
  // Anything the producer may have been rewriting while we copied is
  // suspect: a slot for index i is rewritten when the producer starts
  // index i + cap, so after re-reading the index only records with
  // i >= end2 + 1 - cap are certainly untorn (end2 itself may be mid-store).
  // The acquire fence pairs with record()'s release fence: a copy that
  // saw a store of index j makes this load return at least j.
  std::atomic_thread_fence(std::memory_order_acquire);
  const std::uint64_t end2 = next_.load(std::memory_order_relaxed);
  const std::uint64_t safe_begin = end2 + 1 > cap ? end2 + 1 - cap : 0;
  if (safe_begin > begin) {
    out.erase(out.begin(),
              out.begin() + static_cast<std::ptrdiff_t>(
                                std::min(safe_begin, end) - begin));
  }
  return out;
}

bool FlightRecorder::dump_to_fd(int fd) const {
  FlightFileHeader header;
  header.site = site_;
  header.capacity = static_cast<std::uint32_t>(ring_.size());
  header.next_index = next_.load(std::memory_order_acquire);
  header.overwritten = overwritten();

  auto write_all = [fd](const void* p, std::size_t n) {
    const char* cur = static_cast<const char*>(p);
    while (n > 0) {
      const ssize_t w = ::write(fd, cur, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      cur += w;
      n -= static_cast<std::size_t>(w);
    }
    return true;
  };
  if (!write_all(&header, sizeof header)) return false;
  return write_all(ring_.data(), ring_.size() * sizeof(FlightRecord));
}

bool FlightRecorder::dump_to_file(const char* path) const {
  const int fd = ::open(path, O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool ok = dump_to_fd(fd);
  ::close(fd);
  return ok;
}

// --- fatal-signal dump ---------------------------------------------------

namespace {

// Fixed-size registry: the signal handler may not allocate or lock. Slots
// are claimed with a CAS and cleared on unregister; the handler snapshots
// whatever is non-null at crash time.
constexpr std::size_t kMaxRecorders = 64;
std::atomic<FlightRecorder*> g_recorders[kMaxRecorders];
char g_dump_prefix[201];
std::atomic<bool> g_fatal_installed{false};

// Minimal async-signal-safe number formatting for the dump filename.
char* append_str(char* p, char* end, const char* s) {
  while (*s && p < end) *p++ = *s++;
  return p;
}
char* append_u32(char* p, char* end, std::uint32_t v) {
  char digits[12];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v > 0);
  while (n > 0 && p < end) *p++ = digits[--n];
  return p;
}

void fatal_dump_handler(int signo) {
  for (auto& slot : g_recorders) {
    FlightRecorder* r = slot.load(std::memory_order_acquire);
    if (r == nullptr) continue;
    char path[256];
    char* const end = path + sizeof path - 1;
    char* p = append_str(path, end, g_dump_prefix);
    p = append_str(p, end, ".site");
    p = append_u32(p, end, r->site());
    p = append_str(p, end, ".fr");
    *p = '\0';
    const int fd = ::open(path, O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd < 0) continue;
    r->dump_to_fd(fd);
    ::close(fd);
  }
  // Handlers were installed with SA_RESETHAND: re-raising runs the default
  // action so the process still dies with the original signal status.
  ::raise(signo);
}

}  // namespace

void register_flight_recorder(FlightRecorder* recorder) {
  for (auto& slot : g_recorders) {
    FlightRecorder* expected = nullptr;
    if (slot.compare_exchange_strong(expected, recorder,
                                     std::memory_order_acq_rel)) {
      return;
    }
  }
}

void unregister_flight_recorder(FlightRecorder* recorder) {
  for (auto& slot : g_recorders) {
    FlightRecorder* expected = recorder;
    slot.compare_exchange_strong(expected, nullptr,
                                 std::memory_order_acq_rel);
  }
}

void install_fatal_dump(const char* path_prefix) {
  std::snprintf(g_dump_prefix, sizeof g_dump_prefix, "%s", path_prefix);
  bool expected = false;
  if (!g_fatal_installed.compare_exchange_strong(expected, true)) return;
  struct sigaction sa;
  ::memset(&sa, 0, sizeof sa);
  sa.sa_handler = fatal_dump_handler;
  sa.sa_flags = SA_RESETHAND;
  ::sigemptyset(&sa.sa_mask);
  for (const int signo : {SIGSEGV, SIGBUS, SIGFPE, SIGABRT}) {
    ::sigaction(signo, &sa, nullptr);
  }
}

// --- offline conversion --------------------------------------------------

bool flight_to_events(const std::string& bytes, std::vector<TraceEvent>* out,
                      std::uint64_t* overwritten) {
  if (bytes.size() < sizeof(FlightFileHeader)) return false;
  FlightFileHeader header;
  ::memcpy(&header, bytes.data(), sizeof header);
  if (header.magic != FlightFileHeader{}.magic || header.version != 1) {
    return false;
  }
  const std::uint64_t cap = header.capacity;
  if (cap == 0 || (cap & (cap - 1)) != 0) return false;
  if (bytes.size() != sizeof header + cap * sizeof(FlightRecord)) {
    return false;
  }
  const auto* records = reinterpret_cast<const FlightRecord*>(
      bytes.data() + sizeof header);
  const std::uint64_t end = header.next_index;
  const std::uint64_t begin = end > cap ? end - cap : 0;
  for (std::uint64_t i = begin; i < end; ++i) {
    const FlightRecord& r = records[i & (cap - 1)];
    // Skip rather than fail: a fatal dump may contain one record the
    // producer was mid-write in, and a newer writer's dump may carry types
    // this converter does not know yet. The known prefix still converts.
    if (r.type >= kNumTraceEventTypes) continue;
    out->push_back(TraceEvent{SimTime::micros(r.t_us),
                              static_cast<TraceEventType>(r.type),
                              SiteId{r.site}, ObjectId{r.obj}, r.op, r.a,
                              r.b});
  }
  if (overwritten != nullptr) *overwritten = header.overwritten;
  return true;
}

}  // namespace timedc
