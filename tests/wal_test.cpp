// The write-ahead log module (src/storage/wal.hpp):
//
// 1. Same bytes on disk: records are formatted with std::to_chars into a
//    buffer and committed with one write(2), and the result is byte for
//    byte what the fprintf writer of earlier servers produced (the golden
//    strings below were recorded from that writer).
// 2. Replay round trip: a fresh ObjectServer replaying the log through
//    restore_write() serves the logged values and versions and re-acks a
//    retransmitted write from its rebuilt dedup slot.
// 3. Torn tails: a batch cut at every byte offset replays exactly the
//    records whose '\n' made it to disk, and the file is cut in place
//    (same inode, prefix bytes untouched) rather than rewritten.
// 4. Fail-stop: a commit that the kernel refuses (ENOSPC on /dev/full)
//    aborts with the errno instead of returning.
#include <gtest/gtest.h>

#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "protocol/server.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "storage/wal.hpp"

namespace timedc {
namespace {

using storage::WalRecord;
using storage::WriteAheadLog;

SimTime us(std::int64_t n) { return SimTime::micros(n); }

/// A sim cell: one server at site 2 that clients 0 and 1 talk to.
struct Cell {
  Cell() {
    net = std::make_unique<Network>(sim, 3,
                                    std::make_unique<FixedLatency>(us(10)),
                                    NetworkConfig{}, Rng(1));
    server = std::make_unique<ObjectServer>(sim, *net, SiteId{2}, 3,
                                            PushPolicy::kNone, MessageSizes{});
  }

  void capture_replies(std::uint32_t site, std::vector<Message>& into) {
    net->register_site(SiteId{site},
                       [&into](SiteId, const Message& m) { into.push_back(m); });
  }

  void send(std::uint32_t site, Message m) {
    net->send_message(SiteId{site}, SiteId{2}, std::move(m), 64);
    sim.run_until();
  }

  Simulator sim;
  std::unique_ptr<Network> net;
  std::unique_ptr<ObjectServer> server;
};

/// A private directory under TMPDIR, removed with everything in it.
class ScratchDir {
 public:
  ScratchDir() {
    const char* tmp = std::getenv("TMPDIR");
    std::string tmpl = std::string(tmp != nullptr ? tmp : "/tmp") +
                       "/timedc_wal_test.XXXXXX";
    EXPECT_NE(::mkdtemp(tmpl.data()), nullptr);
    path_ = tmpl;
  }
  ~ScratchDir() {
    for (const std::string& f : files_) ::unlink(f.c_str());
    ::rmdir(path_.c_str());
  }
  std::string file(const std::string& name) {
    files_.push_back(path_ + "/" + name);
    return files_.back();
  }

 private:
  std::string path_;
  std::vector<std::string> files_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

ino_t inode_of(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0);
  return st.st_ino;
}

struct Golden {
  WriteRequest request;
  std::uint64_t version;
  const char* line;  // as the fprintf writer produced it
};

std::vector<Golden> golden_records() {
  const auto i64min = std::numeric_limits<std::int64_t>::min();
  const auto i64max = std::numeric_limits<std::int64_t>::max();
  const auto u64max = std::numeric_limits<std::uint64_t>::max();
  const auto u32max = std::numeric_limits<std::uint32_t>::max();
  return {
      // An accepted write at a wall-clock alpha.
      {WriteRequest{ObjectId{7}, Value{111}, us(1700000000123456), {},
                    SiteId{3}, 42},
       2, "W 7 111 2 1700000000123456 3 42 0 0\n"},
      // A last-writer-wins loser: version 0.
      {WriteRequest{ObjectId{7}, Value{333}, us(150), {}, SiteId{0}, 3}, 0,
       "W 7 333 0 150 0 3 0 0\n"},
      // A TCC write with a 3-entry plausible timestamp.
      {WriteRequest{ObjectId{9}, Value{5}, us(250),
                    PlausibleTimestamp({5, 0, 12}, SiteId{2}), SiteId{2}, 7},
       4, "W 9 5 4 250 2 7 2 3 5 0 12\n"},
      // Negative value and alpha.
      {WriteRequest{ObjectId{0}, Value{-42}, us(-7), {}, SiteId{0}, 0}, 1,
       "W 0 -42 1 -7 0 0 0 0\n"},
      // Every field at its extreme.
      {WriteRequest{ObjectId{u32max}, Value{i64min}, us(i64max),
                    PlausibleTimestamp({u64max, 0}, SiteId{u32max}),
                    SiteId{u32max}, u64max},
       u64max,
       "W 4294967295 -9223372036854775808 18446744073709551615 "
       "9223372036854775807 4294967295 18446744073709551615 4294967295 2 "
       "18446744073709551615 0\n"},
      {WriteRequest{ObjectId{1}, Value{i64max}, us(i64min), {}, SiteId{1}, 1},
       1, "W 1 9223372036854775807 1 -9223372036854775808 1 1 0 0\n"},
  };
}

TEST(WalFormat, MatchesTheFprintfWriterByteForByte) {
  for (const Golden& g : golden_records()) {
    std::string out;
    storage::format_wal_record(g.request, g.version, out);
    EXPECT_EQ(out, g.line);
  }
}

TEST(WalFormat, ParseInvertsFormat) {
  for (const Golden& g : golden_records()) {
    std::string line;
    storage::format_wal_record(g.request, g.version, line);
    line.pop_back();  // the '\n'
    WalRecord rec;
    ASSERT_TRUE(storage::parse_wal_record(line, rec)) << line;
    EXPECT_EQ(rec.request, g.request) << line;
    EXPECT_EQ(rec.version, g.version) << line;
  }
}

TEST(WalFormat, RejectsAnythingButOneWholeRecord) {
  WalRecord rec;
  for (const char* bad : {"", "W", "X 7 111 2 100 3 42 0 0",
                          "W 7 111 2 100 3 42 0",          // field missing
                          "W 7 111 2 100 3 42 0 0 ",       // trailing space
                          "W 7 111 2 100 3 42 0 0 9",      // trailing field
                          "W 7 111 2 100 3 42 2 3 5 0",    // entry missing
                          "W  7 111 2 100 3 42 0 0",       // double space
                          "W 7 111 -2 100 3 42 0 0",       // negative version
                          "W 4294967296 1 1 1 1 1 0 0",    // object overflow
                          "W 7 111 2 100 3 42 0 4097"}) {  // absurd ts_n
    EXPECT_FALSE(storage::parse_wal_record(bad, rec)) << '"' << bad << '"';
  }
}

TEST(Wal, OneCommitWritesTheWholeBatchAsTheGoldenBytes) {
  ScratchDir dir;
  const std::string path = dir.file("wal.0");
  Cell cell;
  std::string expected;
  {
    auto wal = WriteAheadLog::open(path, *cell.server);
    ASSERT_NE(wal, nullptr);
    EXPECT_EQ(wal->restored(), 0u);
    for (const Golden& g : golden_records()) {
      wal->append(g.request, g.version);
      expected += g.line;
    }
    EXPECT_EQ(wal->pending_bytes(), expected.size());
    EXPECT_EQ(read_file(path), "");  // appended, not yet committed
    wal->commit();
    EXPECT_EQ(wal->pending_bytes(), 0u);
    EXPECT_EQ(read_file(path), expected);
    wal->commit();  // nothing pending
    EXPECT_EQ(read_file(path), expected);
    wal->append(golden_records()[0].request, 9);
  }
  // Destruction commits what no barrier committed.
  expected += "W 7 111 9 1700000000123456 3 42 0 0\n";
  EXPECT_EQ(read_file(path), expected);
}

TEST(Wal, ReplayRestoresValuesVersionsAndDedupAcks) {
  ScratchDir dir;
  const std::string path = dir.file("wal.2");
  const auto write = [](std::uint32_t site, std::uint32_t object,
                        std::int64_t value, std::int64_t alpha_us,
                        std::uint64_t request_id) {
    return Message{WriteRequest{ObjectId{object}, Value{value}, us(alpha_us),
                                {}, SiteId{site}, request_id}};
  };
  {
    Cell before;
    auto wal = WriteAheadLog::open(path, *before.server);
    ASSERT_NE(wal, nullptr);
    before.server->set_write_log(
        [&wal](const WriteRequest& req, std::uint64_t version) {
          wal->append(req, version);
        });
    before.server->attach();
    std::vector<Message> acks0, acks1;
    before.capture_replies(0, acks0);
    before.capture_replies(1, acks1);
    before.send(0, write(0, 7, 111, 100, 1));
    before.send(0, write(0, 7, 222, 200, 2));
    before.send(0, write(0, 7, 333, 150, 3));  // LWW loser: version 0
    before.send(1, write(1, 8, 444, 300, 1));
    ASSERT_EQ(acks0.size(), 3u);
    ASSERT_EQ(acks1.size(), 1u);
    wal->commit();
    EXPECT_EQ(read_file(path),
              "W 7 111 1 100 0 1 0 0\n"
              "W 7 222 2 200 0 2 0 0\n"
              "W 7 333 0 150 0 3 0 0\n"
              "W 8 444 1 300 1 1 0 0\n");
  }

  Cell after;
  auto wal = WriteAheadLog::open(path, *after.server);
  ASSERT_NE(wal, nullptr);
  EXPECT_EQ(wal->restored(), 4u);
  EXPECT_EQ(after.server->stats().writes_restored, 4u);
  after.server->attach();

  std::vector<Message> replies;
  after.capture_replies(1, replies);
  after.send(1, Message{FetchRequest{ObjectId{7}, SiteId{1}, 2}});
  after.send(1, Message{FetchRequest{ObjectId{8}, SiteId{1}, 3}});
  ASSERT_EQ(replies.size(), 2u);
  const auto* f7 = std::get_if<FetchReply>(&replies[0]);
  const auto* f8 = std::get_if<FetchReply>(&replies[1]);
  ASSERT_NE(f7, nullptr);
  ASSERT_NE(f8, nullptr);
  EXPECT_EQ(f7->copy.value, Value{222});
  EXPECT_EQ(f7->copy.version, 2u);
  EXPECT_EQ(f8->copy.value, Value{444});
  EXPECT_EQ(f8->copy.version, 1u);

  // Retransmissions whose acks died with the old process get the same
  // verdicts from the rebuilt dedup slots, without a second apply.
  std::vector<Message> re_acks0, re_acks1;
  after.capture_replies(0, re_acks0);
  after.capture_replies(1, re_acks1);
  after.send(0, write(0, 7, 333, 150, 3));
  after.send(1, write(1, 8, 444, 300, 1));
  EXPECT_EQ(after.server->stats().writes_applied, 0u);
  EXPECT_EQ(after.server->stats().duplicate_writes, 2u);
  ASSERT_EQ(re_acks0.size(), 1u);
  ASSERT_EQ(re_acks1.size(), 1u);
  EXPECT_EQ(std::get<WriteAck>(re_acks0[0]),
            (WriteAck{ObjectId{7}, 0, 3}));  // rejected before, still
  EXPECT_EQ(std::get<WriteAck>(re_acks1[0]), (WriteAck{ObjectId{8}, 1, 1}));
}

TEST(Wal, TornBatchReplaysExactlyTheCompleteRecordsAndIsCutInPlace) {
  ScratchDir dir;
  const std::string path = dir.file("wal.2");
  // One group commit of three records; the middle one carries a
  // timestamp, so some cuts land inside its entries.
  const std::vector<Golden> golden = golden_records();
  const std::string batch =
      std::string(golden[0].line) + golden[2].line + golden[3].line;
  std::vector<std::size_t> record_ends;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i] == '\n') record_ends.push_back(i + 1);
  }
  ASSERT_EQ(record_ends.size(), 3u);

  for (std::size_t cut = 0; cut <= batch.size(); ++cut) {
    write_file(path, batch.substr(0, cut));
    const ino_t inode = inode_of(path);
    std::size_t complete = 0;
    std::size_t good_end = 0;
    for (const std::size_t end : record_ends) {
      if (end <= cut) {
        ++complete;
        good_end = end;
      }
    }
    Cell cell;
    auto wal = WriteAheadLog::open(path, *cell.server);
    ASSERT_NE(wal, nullptr) << "cut " << cut;
    EXPECT_EQ(wal->restored(), complete) << "cut " << cut;
    EXPECT_EQ(cell.server->stats().writes_restored, complete) << "cut " << cut;
    EXPECT_EQ(inode_of(path), inode) << "rewritten instead of cut, cut " << cut;
    EXPECT_EQ(read_file(path), batch.substr(0, good_end)) << "cut " << cut;
    // New records go right after the last complete one.
    wal->append(golden[1].request, golden[1].version);
    wal->commit();
    EXPECT_EQ(read_file(path), batch.substr(0, good_end) + golden[1].line)
        << "cut " << cut;
  }
}

TEST(Wal, ReplayStopsAtTheFirstRecordThatDoesNotParse) {
  ScratchDir dir;
  const std::string path = dir.file("wal.2");
  const std::vector<Golden> golden = golden_records();
  const std::string good = std::string(golden[0].line) + golden[1].line;
  write_file(path, good + "W 7 garbage\n" + golden[3].line);
  Cell cell;
  auto wal = WriteAheadLog::open(path, *cell.server);
  ASSERT_NE(wal, nullptr);
  EXPECT_EQ(wal->restored(), 2u);
  EXPECT_EQ(read_file(path), good);
}

TEST(Wal, OpenReportsAPathThatCannotBeCreated) {
  Cell cell;
  errno = 0;
  EXPECT_EQ(WriteAheadLog::open("/nonexistent-dir/wal.0", *cell.server),
            nullptr);
  EXPECT_EQ(errno, ENOENT);
}

TEST(WalDeathTest, CommitThatTheKernelRefusesAborts) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Cell cell;
        auto wal = WriteAheadLog::open("/dev/full", *cell.server);
        if (wal == nullptr) return;  // survives: the death test fails
        wal->append(golden_records()[0].request, 1);
        wal->commit();
      },
      "timedc-wal: write to /dev/full failed: No space left on device");
}

}  // namespace
}  // namespace timedc
