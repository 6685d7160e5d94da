// The server write-ahead log: one text record per write decision, group-
// committed with one write(2) per reactor tick.
//
// Record format (one line, byte-identical to what earlier servers wrote):
//   W <object> <value> <version> <alpha_us> <writer> <request_id>
//     <ts_origin> <ts_n> <entry>...
// version 0 records a write that lost the last-writer-wins race: its dedup
// ack must still be reconstructable after a restart.
//
// Durability promise. An ack means the write survives a process kill: its
// record is in the kernel (the page cache outlives the process) before any
// byte that reveals the write leaves the process. append() only formats the
// record into a per-shard buffer; commit() hands the whole buffer to the
// kernel in one write(2). attach() runs commit() at the shard transport's
// send barrier (before every sendmsg of every connection), so acks, fetch
// replies carrying the new value and cluster pushes all wait for it, and at
// the end of every loop tick for records no send has committed. There is no
// fdatasync: power loss is outside the promise.
//
// Recovery. A record counts only when it parses and its '\n' is on disk. On
// open, the complete records are replayed in log order and the file is cut
// in place (ftruncate) at the end of the last one, so a torn tail — a kill
// in the middle of a commit — is dropped without ever rewriting the file.
//
// Fail-stop. A commit retries short writes and EINTR. Any other error (e.g.
// ENOSPC, EIO) prints the errno and aborts before the barrier returns, so no
// frame of that tick leaves a server that could not log its writes.
//
// Threading: one log per shard, loop-thread only once attached.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "net/event_loop.hpp"
#include "protocol/messages.hpp"

namespace timedc {
class ObjectServer;
namespace net {
class TcpTransport;
}  // namespace net
}  // namespace timedc

namespace timedc::storage {

/// One logged write decision.
struct WalRecord {
  WriteRequest request;
  std::uint64_t version = 0;  // 0 = lost the last-writer-wins race
};

/// Appends the record of (req, version), '\n' included, to `out`.
void format_wal_record(const WriteRequest& req, std::uint64_t version,
                       std::string& out);

/// Parses one record; `line` excludes the '\n'. False unless the whole
/// line is one well-formed record.
bool parse_wal_record(std::string_view line, WalRecord& rec);

class WriteAheadLog {
 public:
  /// Opens the log at `path` for appending, creating it if missing. Every
  /// complete record already in it is replayed into `server` through
  /// restore_write(), in log order, and the file is cut in place after the
  /// last one. Returns null, with errno set, when the file cannot be opened,
  /// read or cut.
  static std::unique_ptr<WriteAheadLog> open(const std::string& path,
                                             ObjectServer& server);

  /// Commits whatever is still buffered, detaches (see attach()) and
  /// closes the file.
  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Makes this log `server`'s durability: every write decision appends,
  /// and `transport`'s send barrier and its loop's tick end commit. Call
  /// while the loop is not running. Destroy the log while the loop is not
  /// running and before `server` and `transport`.
  void attach(ObjectServer& server, net::TcpTransport& transport);

  /// Buffers the record of one write decision.
  void append(const WriteRequest& req, std::uint64_t version) {
    format_wal_record(req, version, buf_);
  }

  /// Hands every buffered record to the kernel with one write(2)
  /// (continuing after short writes and EINTR); aborts on any other error.
  void commit() {
    if (!buf_.empty()) write_buffer();
  }

  /// Complete records replayed by open().
  std::size_t restored() const { return restored_; }
  /// Bytes appended and not yet committed.
  std::size_t pending_bytes() const { return buf_.size(); }

 private:
  WriteAheadLog(std::string path, int fd);
  void write_buffer();

  std::string path_;
  int fd_ = -1;
  std::string buf_;  // formatted, not yet committed records
  std::size_t restored_ = 0;
  // Set by attach(), so the destructor can detach.
  ObjectServer* server_ = nullptr;
  net::TcpTransport* transport_ = nullptr;
  net::EventLoop::HookId tick_hook_ = 0;
};

}  // namespace timedc::storage
