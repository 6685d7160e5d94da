#include "storage/wal.hpp"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "net/tcp_transport.hpp"
#include "protocol/server.hpp"

namespace timedc::storage {
namespace {

/// A decimal field is a space and at most 20 digits and a sign.
constexpr std::size_t kFieldMax = 22;
/// "W" and the eight fixed fields.
constexpr std::size_t kHeadMax = 1 + 8 * kFieldMax;
/// Replay refuses longer timestamps: the record is corrupt, not huge.
constexpr std::uint64_t kMaxTimestampEntries = 4096;
constexpr std::size_t kReadChunk = 64u << 10;
/// Initial buffer capacity: a tick's records rarely outgrow it, and when
/// they do the grown capacity is kept.
constexpr std::size_t kBufferReserve = 64u << 10;

template <typename T>
char* put_field(char* p, T v) {
  *p++ = ' ';
  return std::to_chars(p, p + kFieldMax - 1, v).ptr;
}

}  // namespace

void format_wal_record(const WriteRequest& req, std::uint64_t version,
                       std::string& out) {
  char head[kHeadMax];
  char* p = head;
  *p++ = 'W';
  p = put_field(p, req.object.value);
  p = put_field(p, req.value.value);
  p = put_field(p, version);
  p = put_field(p, req.client_time.as_micros());
  p = put_field(p, req.reply_to.value);
  p = put_field(p, req.request_id);
  p = put_field(p, req.write_ts.origin().value);
  p = put_field(p, static_cast<unsigned>(req.write_ts.num_entries()));
  out.append(head, p);
  for (const std::uint64_t e : req.write_ts.entries()) {
    char field[kFieldMax];
    out.append(field, put_field(field, e));
  }
  out.push_back('\n');
}

bool parse_wal_record(std::string_view line, WalRecord& rec) {
  const char* p = line.data();
  const char* const end = p + line.size();
  if (p == end || *p++ != 'W') return false;
  // Every field is one space and a decimal number, as format_wal_record
  // writes it.
  const auto field = [&p, end](auto& out) {
    if (p == end || *p != ' ') return false;
    const auto [next, ec] = std::from_chars(p + 1, end, out);
    p = next;
    return ec == std::errc{};
  };
  std::uint32_t object = 0, writer = 0, ts_origin = 0;
  std::uint64_t version = 0, request_id = 0, ts_n = 0;
  std::int64_t value = 0, alpha_us = 0;
  if (!field(object) || !field(value) || !field(version) || !field(alpha_us) ||
      !field(writer) || !field(request_id) || !field(ts_origin) ||
      !field(ts_n) || ts_n > kMaxTimestampEntries) {
    return false;
  }
  std::vector<std::uint64_t> entries(ts_n);
  for (std::uint64_t& e : entries) {
    if (!field(e)) return false;
  }
  if (p != end) return false;
  rec.request.object = ObjectId{object};
  rec.request.value = Value{value};
  rec.request.client_time = SimTime::micros(alpha_us);
  rec.request.write_ts = ts_n == 0
      ? PlausibleTimestamp{}
      : PlausibleTimestamp(std::move(entries), SiteId{ts_origin});
  rec.request.reply_to = SiteId{writer};
  rec.request.request_id = request_id;
  rec.version = version;
  return true;
}

WriteAheadLog::WriteAheadLog(std::string path, int fd)
    : path_(std::move(path)), fd_(fd) {
  buf_.reserve(kBufferReserve);
}

std::unique_ptr<WriteAheadLog> WriteAheadLog::open(const std::string& path,
                                                   ObjectServer& server) {
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0666);
  if (fd < 0) return nullptr;
  std::unique_ptr<WriteAheadLog> wal(new WriteAheadLog(path, fd));
  const auto fail = [&wal] {
    const int err = errno;
    wal.reset();
    errno = err;
    return nullptr;
  };
  // Replay reads what the file held at open (a device such as /dev/full
  // reports size 0 and is never read).
  struct stat st {};
  if (::fstat(fd, &st) != 0) return fail();
  const off_t size = S_ISREG(st.st_mode) ? st.st_size : 0;
  std::string pending;  // read, not yet consumed as complete records
  off_t read_at = 0;
  off_t good_end = 0;  // end of the last complete record
  bool torn = false;
  while (!torn && read_at < size) {
    const std::size_t have = pending.size();
    const auto want = static_cast<std::size_t>(
        std::min<off_t>(static_cast<off_t>(kReadChunk), size - read_at));
    pending.resize(have + want);
    const ssize_t n = ::pread(fd, pending.data() + have, want, read_at);
    if (n < 0 && errno == EINTR) {
      pending.resize(have);
      continue;
    }
    if (n < 0) return fail();
    pending.resize(have + static_cast<std::size_t>(n));
    if (n == 0) break;  // the file shrank under us: stop at what was read
    read_at += n;
    std::size_t start = 0;
    for (std::size_t nl; (nl = pending.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      WalRecord rec;
      if (!parse_wal_record({pending.data() + start, nl - start}, rec)) {
        torn = true;  // everything from here on is dropped
        break;
      }
      server.restore_write(rec.request, rec.version);
      ++wal->restored_;
      good_end += static_cast<off_t>(nl + 1 - start);
    }
    pending.erase(0, start);
  }
  // A record without its '\n' (a kill mid-commit) or one that does not
  // parse ends the log: cut it off in place, never rewrite the prefix.
  if (good_end < size && ::ftruncate(fd, good_end) != 0) return fail();
  return wal;
}

WriteAheadLog::~WriteAheadLog() {
  commit();
  if (server_ != nullptr) {
    server_->set_write_log(nullptr);
    transport_->set_send_barrier(nullptr);
    transport_->loop().remove_tick_end_hook(tick_hook_);
  }
  ::close(fd_);
}

void WriteAheadLog::attach(ObjectServer& server, net::TcpTransport& transport) {
  server_ = &server;
  transport_ = &transport;
  server.set_write_log([this](const WriteRequest& req, std::uint64_t version) {
    append(req, version);
  });
  // The barrier covers every frame that could reveal a write; the tick-end
  // hook commits records whose reply never left (e.g. the client is gone).
  transport.set_send_barrier([this] { commit(); });
  tick_hook_ = transport.loop().add_tick_end_hook([this] { commit(); });
}

void WriteAheadLog::write_buffer() {
  const char* p = buf_.data();
  std::size_t left = buf_.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n > 0) {
      p += n;
      left -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // Fail-stop: acking writes that were never logged would break the
    // durability promise, so no frame may leave after this.
    std::fprintf(stderr, "timedc-wal: write to %s failed: %s\n", path_.c_str(),
                 n < 0 ? std::strerror(errno) : "no progress");
    std::abort();
  }
  buf_.clear();
}

}  // namespace timedc::storage
