// Property tests for the binary wire codec (net/wire.hpp).
//
// Round-trip: random instances of every wire message encode and decode
// bit-identically (the re-encoded bytes equal the original bytes, not just
// message equality). Robustness: every truncation of a valid frame is
// kNeedMore, corrupted headers and length fields map to their typed
// DecodeStatus, and random byte flips / garbage buffers never crash or
// over-read — this binary is the ASan/UBSan target of the net-loopback CI
// job.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/wire.hpp"

namespace timedc {
namespace {

PlausibleTimestamp random_timestamp(Rng& rng) {
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 6));
  std::vector<std::uint64_t> entries(n);
  for (auto& e : entries) e = rng.next_u64() >> 16;
  return PlausibleTimestamp(std::move(entries),
                            SiteId{static_cast<std::uint32_t>(
                                rng.uniform_int(0, 1 << 20))});
}

SimTime random_time(Rng& rng) {
  if (rng.uniform_int(0, 15) == 0) return SimTime::infinity();
  return SimTime::micros(rng.uniform_int(-1000, 1'000'000'000));
}

ObjectCopy random_copy(Rng& rng) {
  ObjectCopy copy;
  copy.object = ObjectId{static_cast<std::uint32_t>(rng.uniform_int(0, 999))};
  copy.value = Value{static_cast<std::int64_t>(rng.next_u64())};
  copy.version = rng.next_u64();
  copy.alpha = random_time(rng);
  copy.omega = random_time(rng);
  copy.beta = random_time(rng);
  copy.alpha_l = random_timestamp(rng);
  copy.omega_l = random_timestamp(rng);
  return copy;
}

SiteId random_site(Rng& rng) {
  return SiteId{static_cast<std::uint32_t>(rng.next_u64())};
}

std::uint64_t random_rid(Rng& rng) { return rng.next_u64(); }

/// One random instance of the wire message with the given type index 0..7.
Message random_message(Rng& rng, int type) {
  switch (type) {
    case 0:
      return FetchRequest{ObjectId{7}, random_site(rng), random_rid(rng)};
    case 1:
      return FetchReply{random_copy(rng), random_rid(rng)};
    case 2:
      return WriteRequest{ObjectId{11},         Value{rng.uniform_int(1, 1 << 30)},
                          random_time(rng),     random_timestamp(rng),
                          random_site(rng),     random_rid(rng)};
    case 3:
      return WriteAck{ObjectId{3}, rng.next_u64(), random_rid(rng)};
    case 4:
      return ValidateRequest{ObjectId{5}, rng.next_u64(), random_site(rng),
                             random_rid(rng)};
    case 5:
      return ValidateReply{ObjectId{5}, rng.bernoulli(0.5), random_copy(rng),
                           random_rid(rng)};
    case 6:
      return Invalidate{ObjectId{9}, rng.next_u64()};
    default:
      return PushUpdate{random_copy(rng)};
  }
}

constexpr int kNumTypes = 8;

std::vector<std::uint8_t> encode(SiteId from, SiteId to, const Message& m) {
  std::vector<std::uint8_t> buf;
  wire::encode_frame(from, to, m, buf);
  return buf;
}

TEST(WireCodec, RoundTripsEveryMessageTypeBitIdentically) {
  Rng rng(20260805);
  for (int iter = 0; iter < 200; ++iter) {
    for (int type = 0; type < kNumTypes; ++type) {
      const Message m = random_message(rng, type);
      const SiteId from{static_cast<std::uint32_t>(rng.uniform_int(0, 5000))};
      const SiteId to{static_cast<std::uint32_t>(rng.uniform_int(0, 5000))};
      const std::vector<std::uint8_t> buf = encode(from, to, m);
      ASSERT_EQ(buf.size(), wire::encoded_frame_size(m));

      wire::DecodedFrame frame = wire::decode_frame(buf);
      ASSERT_TRUE(frame.ok()) << wire::to_cstring(frame.status);
      EXPECT_EQ(frame.consumed, buf.size());
      EXPECT_EQ(frame.from, from);
      EXPECT_EQ(frame.to, to);
      ASSERT_EQ(frame.message.index(), static_cast<std::size_t>(type));
      EXPECT_EQ(frame.message, m);

      // Bit-identical: re-encoding the decoded message reproduces the bytes.
      EXPECT_EQ(encode(frame.from, frame.to, frame.message), buf);
    }
  }
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const std::uint8_t b : bytes) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xf]);
  }
  return hex;
}

ObjectCopy golden_copy() {
  ObjectCopy c;
  c.object = ObjectId{0x0a0b};
  c.value = Value{-2};
  c.version = 0x0102030405060708ull;
  c.alpha = SimTime::micros(1000);
  c.omega = SimTime::infinity();
  c.beta = SimTime::micros(-5);
  c.alpha_l = PlausibleTimestamp({3, 0x1122334455667788ull}, SiteId{4});
  return c;
}

struct GoldenFrame {
  wire::MsgType type;
  std::function<void(std::vector<std::uint8_t>&)> encode;
  const char* hex;
};

TEST(WireCodec, EveryFrameTypeEncodesToPinnedBytes) {
  // One fixed instance of each MsgType, compared byte for byte against the
  // encoding recorded when the codec's layouts were settled. A round trip
  // cannot catch a layout change made to encoder and decoder alike; this
  // can.
  const SiteId from{0x01020304};
  const SiteId to{0x0a0b0c0d};
  const WriteRequest write{ObjectId{11}, Value{42}, SimTime::micros(123456),
                           PlausibleTimestamp({1, 2, 3}, SiteId{7}),
                           SiteId{100}, 9};
  const std::vector<StatsEntry> board_a = {{0, 100}, {3, -1}};
  const std::vector<StatsEntry> board_b = {{17, 999999}};
  const std::vector<wire::StatsBoardSpan> boards = {{200, board_a},
                                                    {201, board_b}};
  const std::vector<wire::MemberEntry> members = {{1, 5, 0}, {2, 0x99, 2}};
  const std::vector<wire::SliceRecord> records = {
      {1, -7, 3, 1000, 100, 11}, {2, 8, 1, 2000, 101, 12}};
  const std::vector<std::uint32_t> ring = {0, 2, 5};
  using wire::MsgType;
  const std::vector<GoldenFrame> golden = {
      {MsgType::kFetchRequest,
       [&](auto& out) {
         wire::encode_frame(from, to,
                            FetchRequest{ObjectId{7}, SiteId{100},
                                         0x1122334455667788ull},
                            out);
       },
       "43540601040302010d0c0b0a1000000007000000640000008877665544332211"},
      {MsgType::kFetchReply,
       [&](auto& out) {
         wire::encode_frame(from, to, FetchReply{golden_copy(), 5}, out);
       },
       "43540602040302010d0c0b0a540000000b0a0000feffffffffffffff08070605"
       "04030201e803000000000000ffffffffffffff7ffbffffffffffffff04000000"
       "0200000003000000000000008877665544332211000000000000000005000000"
       "00000000"},
      {MsgType::kWriteRequest,
       [&](auto& out) { wire::encode_frame(from, to, write, out); },
       "43540603040302010d0c0b0a400000000b0000002a0000000000000040e20100"
       "0000000007000000030000000100000000000000020000000000000003000000"
       "00000000640000000900000000000000"},
      {MsgType::kWriteAck,
       [&](auto& out) {
         wire::encode_frame(from, to, WriteAck{ObjectId{11}, 3, 9}, out);
       },
       "43540604040302010d0c0b0a140000000b000000030000000000000009000000"
       "00000000"},
      {MsgType::kValidateRequest,
       [&](auto& out) {
         wire::encode_frame(from, to,
                            ValidateRequest{ObjectId{5}, 4, SiteId{100}, 10},
                            out);
       },
       "43540605040302010d0c0b0a1800000005000000040000000000000064000000"
       "0a00000000000000"},
      {MsgType::kValidateReply,
       [&](auto& out) {
         wire::encode_frame(
             from, to, ValidateReply{ObjectId{5}, true, golden_copy(), 10},
             out);
       },
       "43540606040302010d0c0b0a5900000005000000010b0a0000feffffffffffff"
       "ff0807060504030201e803000000000000ffffffffffffff7ffbffffffffffff"
       "ff04000000020000000300000000000000887766554433221100000000000000"
       "000a00000000000000"},
      {MsgType::kInvalidate,
       [&](auto& out) {
         wire::encode_frame(from, to, Invalidate{ObjectId{9}, 6}, out);
       },
       "43540607040302010d0c0b0a0c000000090000000600000000000000"},
      {MsgType::kPushUpdate,
       [&](auto& out) {
         wire::encode_frame(from, to, PushUpdate{golden_copy()}, out);
       },
       "43540608040302010d0c0b0a4c0000000b0a0000feffffffffffffff08070605"
       "04030201e803000000000000ffffffffffffff7ffbffffffffffffff04000000"
       "02000000030000000000000088776655443322110000000000000000"},
      {MsgType::kHeartbeat,
       [&](auto& out) {
         wire::encode_heartbeat_frame(from, to, wire::Heartbeat{7, -3, true},
                                      out);
       },
       "43540609040302010d0c0b0a110000000700000000000000fdffffffffffffff"
       "01"},
      {MsgType::kTimeRequest,
       [&](auto& out) {
         wire::encode_time_sync_frame(from, to,
                                      wire::TimeSync{8, 1000, 0, false}, out);
       },
       "4354060a040302010d0c0b0a180000000800000000000000e803000000000000"
       "0000000000000000"},
      {MsgType::kTimeReply,
       [&](auto& out) {
         wire::encode_time_sync_frame(from, to,
                                      wire::TimeSync{8, 1000, 2500, true}, out);
       },
       "4354060b040302010d0c0b0a180000000800000000000000e803000000000000"
       "c409000000000000"},
      {MsgType::kStatsRequest,
       [&](auto& out) {
         wire::encode_stats_request_frame(from, to, wire::StatsRequest{12, 42},
                                          out);
       },
       "4354060c040302010d0c0b0a0c0000000c000000000000002a000000"},
      {MsgType::kStatsReply,
       [&](auto& out) {
         wire::encode_stats_reply_frame(from, to, 77, boards, out);
       },
       "4354060d040302010d0c0b0a3a0000004d0000000000000002000000c8000000"
       "02000000000064000000000000000300ffffffffffffffffc900000001000000"
       "11003f420f0000000000"},
      {MsgType::kMembership,
       [&](auto& out) {
         wire::encode_membership_frame(from, to, 21, 0x0506, members, out);
       },
       "4354060e040302010d0c0b0a2e00000015000000000000000605000000000000"
       "020000000100000005000000000000000002000000990000000000000002"},
      {MsgType::kForward,
       [&](auto& out) {
         wire::encode_forward_frame(from, to, 2, /*serve_here=*/true,
                                    0x0708090a, SiteId{100}, to, write, out);
       },
       "4354060f040302010d0c0b0a59000000820a0908070000000043540603640000"
       "000d0c0b0a400000000b0000002a0000000000000040e2010000000000070000"
       "0003000000010000000000000002000000000000000300000000000000640000"
       "000900000000000000"},
      {MsgType::kCacherSubscribe,
       [&](auto& out) {
         wire::encode_cacher_subscribe_frame(
             from, to, wire::CacherSubscribe{ObjectId{3}, SiteId{2}, 1}, out);
       },
       "43540610040302010d0c0b0a09000000030000000200000001"},
      {MsgType::kSliceSync,
       [&](auto& out) {
         wire::encode_slice_sync_frame(
             from, to, wire::SliceSyncRequest{5, 6, 7, 64, 8000}, out);
       },
       "43540611040302010d0c0b0a2000000005000000000000000600000000000000"
       "0700000040000000401f000000000000"},
      {MsgType::kSliceSyncReply,
       [&](auto& out) {
         wire::encode_slice_sync_reply_frame(from, to, 5, 6, wire::kSliceMore,
                                             3, records, out);
       },
       "43540612040302010d0c0b0a6900000005000000000000000600000000000000"
       "00030000000200000001000000f9ffffffffffffff0300000000000000e80300"
       "0000000000640000000b00000000000000020000000800000000000000010000"
       "0000000000d007000000000000650000000c00000000000000"},
      {MsgType::kOverloaded,
       [&](auto& out) {
         wire::encode_overloaded_frame(from, to, wire::Overloaded{3, 9, 2000},
                                       out);
       },
       "43540613040302010d0c0b0a14000000030000000900000000000000d0070000"
       "00000000"},
      {MsgType::kRingUpdate,
       [&](auto& out) {
         wire::encode_ring_update_frame(from, to, 0x0506, ring, out);
       },
       "43540614040302010d0c0b0a1800000006050000000000000300000000000000"
       "0200000005000000"},
  };
  ASSERT_EQ(golden.size(), static_cast<std::size_t>(MsgType::kRingUpdate));
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const GoldenFrame& g = golden[i];
    ASSERT_EQ(static_cast<std::size_t>(g.type), i + 1);
    std::vector<std::uint8_t> buf;
    g.encode(buf);
    ASSERT_GE(buf.size(), wire::kHeaderBytes);
    EXPECT_EQ(buf[3], static_cast<std::uint8_t>(g.type));
    EXPECT_EQ(to_hex(buf), g.hex) << "type " << i + 1;
    const wire::DecodedFrame frame = wire::decode_frame(buf);
    EXPECT_TRUE(frame.ok()) << "type " << i + 1 << ": "
                            << wire::to_cstring(frame.status);
  }
}

TEST(WireCodec, DecodesBackToBackFramesFromOneBuffer) {
  Rng rng(7);
  const Message a = random_message(rng, 1);
  const Message b = random_message(rng, 7);
  std::vector<std::uint8_t> buf = encode(SiteId{1}, SiteId{2}, a);
  const std::size_t first = buf.size();
  wire::encode_frame(SiteId{3}, SiteId{4}, b, buf);

  wire::DecodedFrame f1 = wire::decode_frame(buf);
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(f1.consumed, first);
  EXPECT_EQ(f1.message, a);

  wire::DecodedFrame f2 = wire::decode_frame(
      std::span<const std::uint8_t>(buf).subspan(f1.consumed));
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(f2.message, b);
  EXPECT_EQ(f1.consumed + f2.consumed, buf.size());
}

TEST(WireCodec, AppendedFramesEqualFreshEncodesAndKeepEarlierBytes) {
  // Each encode sizes the buffer once and stores through a cursor, so a
  // frame appended to a partly filled buffer, whether that buffer must
  // grow or not, has to equal the same frame encoded alone and leave the
  // bytes before it untouched. Forwards append their inner frame too.
  Rng rng(53);
  std::vector<std::uint8_t> buf;
  std::vector<std::uint8_t> expected;
  for (int iter = 0; iter < 600; ++iter) {
    if (iter % 100 == 0) {
      buf = {};  // restart from no capacity
      expected.clear();
    }
    const Message m = random_message(rng, iter % kNumTypes);
    const SiteId from = random_site(rng);
    const SiteId to = random_site(rng);
    std::vector<std::uint8_t> alone;
    switch (iter % 3) {
      case 0:
        wire::encode_frame(from, to, m, alone);
        wire::encode_frame(from, to, m, buf);
        break;
      case 1:
        wire::encode_forward_frame(from, to, 1, false, 9, SiteId{5}, to, m,
                                   alone);
        wire::encode_forward_frame(from, to, 1, false, 9, SiteId{5}, to, m,
                                   buf);
        break;
      default:
        wire::encode_forward_frame_raw(from, to, 2, true, 4,
                                       encode(SiteId{6}, to, m), alone);
        wire::encode_forward_frame_raw(from, to, 2, true, 4,
                                       encode(SiteId{6}, to, m), buf);
        break;
    }
    expected.insert(expected.end(), alone.begin(), alone.end());
    ASSERT_TRUE(buf == expected) << "frame " << iter;
  }
}

TEST(WireCodec, EveryTruncationIsNeedMore) {
  Rng rng(11);
  for (int type = 0; type < kNumTypes; ++type) {
    const Message m = random_message(rng, type);
    const std::vector<std::uint8_t> buf = encode(SiteId{1}, SiteId{2}, m);
    for (std::size_t len = 0; len < buf.size(); ++len) {
      wire::DecodedFrame frame =
          wire::decode_frame(std::span<const std::uint8_t>(buf.data(), len));
      EXPECT_EQ(frame.status, wire::DecodeStatus::kNeedMore)
          << "type " << type << " truncated to " << len << " bytes: "
          << wire::to_cstring(frame.status);
      EXPECT_EQ(frame.consumed, 0u);
    }
  }
}

TEST(WireCodec, RejectsBadMagicVersionAndType) {
  Rng rng(13);
  std::vector<std::uint8_t> buf =
      encode(SiteId{1}, SiteId{2}, random_message(rng, 0));

  std::vector<std::uint8_t> bad = buf;
  bad[0] ^= 0xFF;  // magic low byte
  EXPECT_EQ(wire::decode_frame(bad).status, wire::DecodeStatus::kBadMagic);

  // One codec version: every other version byte is refused at the header.
  for (int version = 0; version <= 255; ++version) {
    if (version == wire::kVersion) continue;
    bad = buf;
    bad[2] = static_cast<std::uint8_t>(version);
    EXPECT_EQ(wire::decode_frame(bad).status, wire::DecodeStatus::kBadVersion)
        << "version " << version;
  }

  bad = buf;
  bad[3] = 0;  // below the MsgType range
  EXPECT_EQ(wire::decode_frame(bad).status, wire::DecodeStatus::kBadType);
  bad[3] = static_cast<std::uint8_t>(wire::kLastMsgType) + 1;  // above it
  EXPECT_EQ(wire::decode_frame(bad).status, wire::DecodeStatus::kBadType);
}

TEST(WireCodec, TimeSyncRoundTrip) {
  for (const bool reply : {false, true}) {
    wire::TimeSync ts;
    ts.seq = 0x0102030405060708ull;
    ts.client_send_us = -123456789;
    ts.server_time_us = 987654321;
    ts.reply = reply;
    std::vector<std::uint8_t> buf;
    wire::encode_time_sync_frame(SiteId{7}, SiteId{3}, ts, buf);
    const wire::DecodedFrame frame = wire::decode_frame(buf);
    ASSERT_TRUE(frame.ok()) << wire::to_cstring(frame.status);
    ASSERT_EQ(frame.type, reply ? wire::MsgType::kTimeReply
                                : wire::MsgType::kTimeRequest);
    EXPECT_EQ(frame.from, SiteId{7});
    EXPECT_EQ(frame.to, SiteId{3});
    EXPECT_EQ(frame.time_sync.seq, ts.seq);
    EXPECT_EQ(frame.time_sync.client_send_us, ts.client_send_us);
    EXPECT_EQ(frame.time_sync.server_time_us, ts.server_time_us);
    EXPECT_EQ(frame.time_sync.reply, reply);
    EXPECT_EQ(frame.consumed, buf.size());
  }
}

TEST(WireCodec, StatsRequestRoundTrip) {
  wire::StatsRequest rq;
  rq.seq = 0x0a0b0c0d0e0f1011ull;
  rq.target_site = 42;
  std::vector<std::uint8_t> buf;
  wire::encode_stats_request_frame(SiteId{9}, SiteId{4}, rq, buf);
  for (std::size_t len = 0; len < buf.size(); ++len) {
    EXPECT_EQ(wire::decode_frame(
                  std::span<const std::uint8_t>(buf.data(), len)).status,
              wire::DecodeStatus::kNeedMore);
  }
  const wire::DecodedFrame frame = wire::decode_frame(buf);
  ASSERT_TRUE(frame.ok()) << wire::to_cstring(frame.status);
  ASSERT_EQ(frame.type, wire::MsgType::kStatsRequest);
  EXPECT_EQ(frame.from, SiteId{9});
  EXPECT_EQ(frame.to, SiteId{4});
  EXPECT_EQ(frame.stats_request.seq, rq.seq);
  EXPECT_EQ(frame.stats_request.target_site, 42u);
  EXPECT_EQ(frame.consumed, buf.size());
}

TEST(WireCodec, StatsReplyRoundTrip) {
  const std::vector<StatsEntry> board_a = {{0, 100}, {3, -1}, {17, 999999}};
  const std::vector<StatsEntry> board_b = {{5, 7}};
  const std::vector<wire::StatsBoardSpan> boards = {
      {200, board_a}, {201, board_b}};
  std::vector<std::uint8_t> buf;
  wire::encode_stats_reply_frame(SiteId{4}, SiteId{9}, 77, boards, buf);

  const wire::DecodedFrame frame = wire::decode_frame(buf);
  ASSERT_TRUE(frame.ok()) << wire::to_cstring(frame.status);
  ASSERT_EQ(frame.type, wire::MsgType::kStatsReply);
  EXPECT_EQ(frame.stats_seq, 77u);
  EXPECT_EQ(frame.stats_boards, 2u);
  ASSERT_EQ(frame.stats_rows.size(), 4u);
  EXPECT_EQ(frame.stats_rows[0].site, 200u);
  EXPECT_EQ(frame.stats_rows[0].key, 0u);
  EXPECT_EQ(frame.stats_rows[0].value, 100);
  EXPECT_EQ(frame.stats_rows[1].value, -1);
  EXPECT_EQ(frame.stats_rows[2].value, 999999);
  EXPECT_EQ(frame.stats_rows[3].site, 201u);
  EXPECT_EQ(frame.stats_rows[3].key, 5u);
  EXPECT_EQ(frame.consumed, buf.size());

  // An empty reply (no boards: poller asked a bare process) still decodes.
  std::vector<std::uint8_t> empty;
  wire::encode_stats_reply_frame(SiteId{4}, SiteId{9}, 78, {}, empty);
  const wire::DecodedFrame e = wire::decode_frame(empty);
  ASSERT_TRUE(e.ok());
  ASSERT_EQ(e.type, wire::MsgType::kStatsReply);
  EXPECT_EQ(e.stats_boards, 0u);
  EXPECT_TRUE(e.stats_rows.empty());

  // Truncating anywhere inside the body is kShortBody via the reader (the
  // header's body_len still covers the missing bytes -> kNeedMore first;
  // shrink body_len to re-frame the truncation as a body error).
  std::vector<std::uint8_t> bad = buf;
  bad.resize(bad.size() - 4);
  std::uint32_t blen;
  std::memcpy(&blen, bad.data() + 12, sizeof(blen));
  blen -= 4;
  std::memcpy(bad.data() + 12, &blen, sizeof(blen));
  EXPECT_EQ(wire::decode_frame(bad).status, wire::DecodeStatus::kShortBody);
}

TEST(WireCodec, ForgedStatsCountsCannotForceAllocation) {
  // Body layout: seq u64, n_boards u32 at absolute offset 24, then per
  // board (site u32, n u32 at board_start + 4, entries).
  const std::vector<StatsEntry> entries = {{1, 2}};
  const std::vector<wire::StatsBoardSpan> boards = {{7, entries}};
  std::vector<std::uint8_t> buf;
  wire::encode_stats_reply_frame(SiteId{1}, SiteId{2}, 1, boards, buf);

  std::vector<std::uint8_t> bad = buf;
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(bad.data() + 24, &huge, sizeof(huge));  // n_boards
  EXPECT_EQ(wire::decode_frame(bad).status, wire::DecodeStatus::kBadField);

  bad = buf;
  std::memcpy(bad.data() + 32, &huge, sizeof(huge));  // first board's n
  EXPECT_EQ(wire::decode_frame(bad).status, wire::DecodeStatus::kBadField);

  // A plausible count without its entry bytes fails bounds, not allocates.
  bad = buf;
  const std::uint32_t plausible = 100;
  std::memcpy(bad.data() + 32, &plausible, sizeof(plausible));
  EXPECT_EQ(wire::decode_frame(bad).status, wire::DecodeStatus::kShortBody);
}

TEST(WireCodec, HeartbeatRoundTrip) {
  Rng rng(37);
  for (int iter = 0; iter < 200; ++iter) {
    wire::Heartbeat hb;
    hb.seq = rng.next_u64();
    hb.send_time_us = static_cast<std::int64_t>(rng.next_u64() >> 4);
    hb.reply = rng.bernoulli(0.5);
    const SiteId from{static_cast<std::uint32_t>(rng.uniform_int(0, 5000))};
    const SiteId to{static_cast<std::uint32_t>(rng.uniform_int(0, 5000))};

    std::vector<std::uint8_t> buf;
    wire::encode_heartbeat_frame(from, to, hb, buf);
    for (std::size_t len = 0; len < buf.size(); ++len) {
      EXPECT_EQ(wire::decode_frame(
                    std::span<const std::uint8_t>(buf.data(), len)).status,
                wire::DecodeStatus::kNeedMore);
    }

    const wire::DecodedFrame frame = wire::decode_frame(buf);
    ASSERT_TRUE(frame.ok()) << wire::to_cstring(frame.status);
    ASSERT_EQ(frame.type, wire::MsgType::kHeartbeat);
    EXPECT_EQ(frame.consumed, buf.size());
    EXPECT_EQ(frame.from, from);
    EXPECT_EQ(frame.to, to);
    EXPECT_EQ(frame.heartbeat.seq, hb.seq);
    EXPECT_EQ(frame.heartbeat.send_time_us, hb.send_time_us);
    EXPECT_EQ(frame.heartbeat.reply, hb.reply);
  }

  // An illegal bool in the reply byte (absolute offset 16 + 16) is caught.
  std::vector<std::uint8_t> buf;
  wire::encode_heartbeat_frame(SiteId{1}, SiteId{2}, wire::Heartbeat{}, buf);
  buf[32] = 2;
  EXPECT_EQ(wire::decode_frame(buf).status, wire::DecodeStatus::kBadField);
}

// The body-length field lives at offset 12 (little-endian u32).
void set_body_len(std::vector<std::uint8_t>& buf, std::uint32_t len) {
  std::memcpy(buf.data() + 12, &len, sizeof(len));
}

std::uint32_t get_body_len(const std::vector<std::uint8_t>& buf) {
  std::uint32_t len;
  std::memcpy(&len, buf.data() + 12, sizeof(len));
  return len;
}

TEST(WireCodec, RejectsCorruptedLengthFields) {
  Rng rng(17);
  for (int type = 0; type < kNumTypes; ++type) {
    const std::vector<std::uint8_t> buf =
        encode(SiteId{1}, SiteId{2}, random_message(rng, type));
    const std::uint32_t body_len = get_body_len(buf);
    ASSERT_EQ(buf.size(), wire::kHeaderBytes + body_len);

    // A declared length over the cap is rejected before any body read.
    std::vector<std::uint8_t> bad = buf;
    set_body_len(bad, wire::kMaxBodyBytes + 1);
    EXPECT_EQ(wire::decode_frame(bad).status,
              wire::DecodeStatus::kOversizedBody);

    // Shrinking the declared length truncates the body under its fields.
    bad = buf;
    set_body_len(bad, body_len - 1);
    EXPECT_EQ(wire::decode_frame(bad).status, wire::DecodeStatus::kShortBody);

    // Growing it (with a pad byte present) leaves bytes the fields never
    // consume.
    bad = buf;
    bad.push_back(0);
    set_body_len(bad, body_len + 1);
    EXPECT_EQ(wire::decode_frame(bad).status,
              wire::DecodeStatus::kTrailingBytes);

    // Growing it past the buffer is just an incomplete frame.
    bad = buf;
    set_body_len(bad, body_len + 1);
    EXPECT_EQ(wire::decode_frame(bad).status, wire::DecodeStatus::kNeedMore);
  }
}

TEST(WireCodec, ForgedClockEntryCountCannotForceAllocation) {
  // PushUpdate body layout: 44 fixed ObjectCopy bytes, then alpha_l as
  // origin u32 + entry count u32 + entries. With empty timestamps the count
  // sits at absolute offset 16 + 44 + 4 = 64.
  ObjectCopy copy;
  copy.object = ObjectId{1};
  const std::vector<std::uint8_t> buf =
      encode(SiteId{1}, SiteId{2}, Message{PushUpdate{copy}});
  constexpr std::size_t kCountOffset = 64;

  std::vector<std::uint8_t> bad = buf;
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(bad.data() + kCountOffset, &huge, sizeof(huge));
  EXPECT_EQ(wire::decode_frame(bad).status,
            wire::DecodeStatus::kOversizedClock);

  // A count within the cap but without its entry bytes must fail the bounds
  // check, not allocate-then-read.
  bad = buf;
  const std::uint32_t plausible = 1000;
  std::memcpy(bad.data() + kCountOffset, &plausible, sizeof(plausible));
  EXPECT_EQ(wire::decode_frame(bad).status, wire::DecodeStatus::kShortBody);
}

TEST(WireCodec, RejectsIllegalBoolField) {
  // ValidateReply body: object u32, then still_valid at absolute offset 20.
  Rng rng(19);
  std::vector<std::uint8_t> buf =
      encode(SiteId{1}, SiteId{2}, random_message(rng, 5));
  buf[20] = 2;
  EXPECT_EQ(wire::decode_frame(buf).status, wire::DecodeStatus::kBadField);
}

std::vector<wire::MemberEntry> random_members(Rng& rng, std::size_t n) {
  std::vector<wire::MemberEntry> members(n);
  for (auto& m : members) {
    m.site = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
    m.incarnation = rng.next_u64();
    m.status = static_cast<std::uint8_t>(rng.uniform_int(0, 2));
  }
  return members;
}

wire::SliceSyncRequest random_slice_sync(Rng& rng) {
  wire::SliceSyncRequest rq;
  rq.seq = rng.next_u64();
  rq.ring_epoch = rng.next_u64();
  rq.cursor = static_cast<std::uint32_t>(rng.next_u64());
  rq.max_records = static_cast<std::uint32_t>(
      rng.uniform_int(1, wire::kMaxSliceRecords));
  rq.if_newer_than_us = static_cast<std::int64_t>(rng.next_u64());
  return rq;
}

std::vector<wire::SliceRecord> random_slice_records(Rng& rng, std::size_t n) {
  std::vector<wire::SliceRecord> records(n);
  for (auto& r : records) {
    r.object = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
    r.value = static_cast<std::int64_t>(rng.next_u64());
    r.version = rng.next_u64();
    r.alpha_us = static_cast<std::int64_t>(rng.next_u64());
    r.writer = static_cast<std::uint32_t>(rng.uniform_int(0, 5000));
    r.request_id = rng.next_u64();
  }
  return records;
}

std::vector<std::uint32_t> random_ring_members(Rng& rng, std::size_t n) {
  std::vector<std::uint32_t> members(n);
  for (auto& m : members) {
    m = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
  }
  return members;
}

TEST(WireCodec, MembershipRoundTrip) {
  Rng rng(41);
  for (int iter = 0; iter < 100; ++iter) {
    const std::uint64_t epoch = rng.next_u64();
    const std::uint64_t ring_epoch = rng.next_u64();
    const std::vector<wire::MemberEntry> members = random_members(
        rng, static_cast<std::size_t>(
                 rng.uniform_int(0, wire::kMaxMembers)));
    const SiteId from{static_cast<std::uint32_t>(rng.uniform_int(0, 5000))};
    const SiteId to{static_cast<std::uint32_t>(rng.uniform_int(0, 5000))};

    std::vector<std::uint8_t> buf;
    wire::encode_membership_frame(from, to, epoch, ring_epoch, members, buf);
    for (std::size_t len = 0; len < buf.size(); len += 5) {
      EXPECT_EQ(wire::decode_frame(
                    std::span<const std::uint8_t>(buf.data(), len)).status,
                wire::DecodeStatus::kNeedMore);
    }

    const wire::DecodedFrame frame = wire::decode_frame(buf);
    ASSERT_TRUE(frame.ok()) << wire::to_cstring(frame.status);
    ASSERT_EQ(frame.type, wire::MsgType::kMembership);
    EXPECT_EQ(frame.consumed, buf.size());
    EXPECT_EQ(frame.from, from);
    EXPECT_EQ(frame.to, to);
    EXPECT_EQ(frame.membership_epoch, epoch);
    EXPECT_EQ(frame.membership_ring_epoch, ring_epoch);
    ASSERT_EQ(frame.members.size(), members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      EXPECT_EQ(frame.members[i], members[i]);
    }
  }
}

TEST(WireCodec, ForgedMemberCountCannotForceAllocation) {
  // Membership body: epoch u64, ring epoch u64, member count u32 at
  // absolute offset 32, then 13-byte entries (site u32, incarnation u64,
  // status u8).
  Rng rng(43);
  std::vector<std::uint8_t> buf;
  wire::encode_membership_frame(SiteId{1}, SiteId{2}, 9, 4,
                                random_members(rng, 3), buf);

  std::vector<std::uint8_t> bad = buf;
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(bad.data() + 32, &huge, sizeof(huge));
  EXPECT_EQ(wire::decode_frame(bad).status, wire::DecodeStatus::kBadField);

  // A count within kMaxMembers but past the actual bytes fails bounds.
  bad = buf;
  const std::uint32_t plausible = wire::kMaxMembers;
  std::memcpy(bad.data() + 32, &plausible, sizeof(plausible));
  EXPECT_EQ(wire::decode_frame(bad).status, wire::DecodeStatus::kShortBody);

  // An out-of-range liveness status (first entry's, offset 32+4+4+8) is
  // malformed, not clamped.
  bad = buf;
  bad[48] = 3;
  EXPECT_EQ(wire::decode_frame(bad).status, wire::DecodeStatus::kBadField);
}

TEST(WireCodec, ForwardRoundTripAndRawAgree) {
  Rng rng(47);
  for (int iter = 0; iter < 100; ++iter) {
    const int type = static_cast<int>(rng.uniform_int(0, kNumTypes - 1));
    const Message inner = random_message(rng, type);
    const SiteId client{static_cast<std::uint32_t>(rng.uniform_int(0, 5000))};
    const SiteId owner{static_cast<std::uint32_t>(rng.uniform_int(0, 8))};
    const auto hops = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
    const bool serve_here = rng.bernoulli(0.3);
    const std::uint64_t ring_epoch = rng.next_u64();

    std::vector<std::uint8_t> buf;
    wire::encode_forward_frame(SiteId{3}, owner, hops, serve_here, ring_epoch,
                               client, owner, inner, buf);
    // The zero-decode path (wrap pre-encoded bytes) is bit-identical.
    std::vector<std::uint8_t> raw;
    wire::encode_forward_frame_raw(SiteId{3}, owner, hops, serve_here,
                                   ring_epoch, encode(client, owner, inner),
                                   raw);
    EXPECT_EQ(raw, buf);

    for (std::size_t len = 0; len < buf.size(); len += 7) {
      EXPECT_EQ(wire::decode_frame(
                    std::span<const std::uint8_t>(buf.data(), len)).status,
                wire::DecodeStatus::kNeedMore);
    }

    const wire::DecodedFrame frame = wire::decode_frame(buf);
    ASSERT_TRUE(frame.ok()) << wire::to_cstring(frame.status);
    ASSERT_EQ(frame.type, wire::MsgType::kForward);
    EXPECT_EQ(frame.consumed, buf.size());
    EXPECT_EQ(frame.forward_hops, hops);
    EXPECT_EQ(frame.forward_serve_here, serve_here);
    EXPECT_EQ(frame.forward_ring_epoch, ring_epoch);

    // The wrapped bytes decode to the original inner frame, original
    // routing header included — that is what the owner's dedup keys on.
    const wire::DecodedFrame unwrapped =
        wire::decode_frame(frame.forward_inner);
    ASSERT_TRUE(unwrapped.ok());
    EXPECT_EQ(unwrapped.from, client);
    EXPECT_EQ(unwrapped.to, owner);
    EXPECT_EQ(unwrapped.message, inner);

    // And the view-level unwrap the transport hot path uses agrees.
    const wire::FrameView outer = wire::peek_frame(buf);
    ASSERT_TRUE(outer.ok());
    const wire::FrameView iview = wire::peek_forward_inner(outer);
    ASSERT_TRUE(iview.ok());
    EXPECT_EQ(iview.from, client);
    EXPECT_EQ(iview.to, owner);
    EXPECT_EQ(iview.consumed, frame.forward_inner.size());

    // The prefix peek the transport's bounce/serve-here path uses agrees.
    const wire::ForwardPrefix fp = wire::peek_forward_prefix(outer);
    EXPECT_EQ(fp.hops, hops);
    EXPECT_EQ(fp.serve_here, serve_here);
    EXPECT_EQ(fp.ring_epoch, ring_epoch);
  }
}

TEST(WireCodec, ForgedForwardInnerLengthCannotForceAllocation) {
  // Forward body: flags+hops u8 at offset 16, ring epoch u64 at 17, then
  // a complete inner frame whose own body-length field sits at
  // 16 + 9 + 12 = 37. Forging it cannot make the decoder allocate or read
  // past the outer body.
  Rng rng(53);
  std::vector<std::uint8_t> buf;
  wire::encode_forward_frame(SiteId{3}, SiteId{1}, 1, false, 0, SiteId{9},
                             SiteId{1}, random_message(rng, 0), buf);

  // Oversized inner claim: rejected as such before any body read.
  std::vector<std::uint8_t> bad = buf;
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(bad.data() + 37, &huge, sizeof(huge));
  EXPECT_EQ(wire::decode_frame(bad).status,
            wire::DecodeStatus::kOversizedBody);

  // A plausible inner claim past the wrapped bytes: the outer frame is
  // complete, so this is a malformed frame, never "need more stream".
  bad = buf;
  std::uint32_t inner_len;
  std::memcpy(&inner_len, bad.data() + 37, sizeof(inner_len));
  inner_len += 8;
  std::memcpy(bad.data() + 37, &inner_len, sizeof(inner_len));
  EXPECT_EQ(wire::decode_frame(bad).status, wire::DecodeStatus::kBadField);

  // An inner frame that is not a protocol message (a wrapped heartbeat)
  // is malformed: forwarding exists for client requests only.
  std::vector<std::uint8_t> hb;
  wire::encode_heartbeat_frame(SiteId{9}, SiteId{1}, wire::Heartbeat{}, hb);
  std::vector<std::uint8_t> wrapped;
  wire::encode_forward_frame_raw(SiteId{3}, SiteId{1}, 1, false, 0, hb,
                                 wrapped);
  EXPECT_EQ(wire::decode_frame(wrapped).status, wire::DecodeStatus::kBadField);

  // A forward wrapping nothing at all (empty body would be caught by the
  // size check; a lone flags byte leaves no room for the prefix, let alone
  // an inner header).
  bad = buf;
  bad.resize(wire::kHeaderBytes + 1);
  set_body_len(bad, 1);
  EXPECT_EQ(wire::decode_frame(bad).status, wire::DecodeStatus::kBadField);

  // The reserved flag bits (between the serve-here bit and the hop count)
  // are malformed, not ignored.
  bad = buf;
  bad[16] |= 0x40;
  EXPECT_EQ(wire::decode_frame(bad).status, wire::DecodeStatus::kBadField);
}

TEST(WireCodec, CacherSubscribeRoundTrip) {
  Rng rng(59);
  for (int iter = 0; iter < 100; ++iter) {
    wire::CacherSubscribe cs;
    cs.object = ObjectId{static_cast<std::uint32_t>(rng.uniform_int(0, 999))};
    cs.cacher = SiteId{static_cast<std::uint32_t>(rng.uniform_int(0, 5000))};
    cs.mode = static_cast<std::uint8_t>(rng.uniform_int(0, 1));

    std::vector<std::uint8_t> buf;
    wire::encode_cacher_subscribe_frame(SiteId{2}, SiteId{0}, cs, buf);
    for (std::size_t len = 0; len < buf.size(); ++len) {
      EXPECT_EQ(wire::decode_frame(
                    std::span<const std::uint8_t>(buf.data(), len)).status,
                wire::DecodeStatus::kNeedMore);
    }
    const wire::DecodedFrame frame = wire::decode_frame(buf);
    ASSERT_TRUE(frame.ok()) << wire::to_cstring(frame.status);
    ASSERT_EQ(frame.type, wire::MsgType::kCacherSubscribe);
    EXPECT_EQ(frame.consumed, buf.size());
    EXPECT_EQ(frame.cacher_subscribe, cs);
  }

  // Mode byte (absolute offset 16 + 4 + 4) only admits 0/1.
  std::vector<std::uint8_t> buf;
  wire::encode_cacher_subscribe_frame(SiteId{2}, SiteId{0},
                                      wire::CacherSubscribe{}, buf);
  buf[24] = 2;
  EXPECT_EQ(wire::decode_frame(buf).status, wire::DecodeStatus::kBadField);
}

TEST(WireCodec, SliceSyncRoundTrip) {
  Rng rng(67);
  for (int iter = 0; iter < 100; ++iter) {
    const wire::SliceSyncRequest rq = random_slice_sync(rng);
    std::vector<std::uint8_t> buf;
    wire::encode_slice_sync_frame(SiteId{4}, SiteId{1}, rq, buf);
    for (std::size_t len = 0; len < buf.size(); ++len) {
      EXPECT_EQ(wire::decode_frame(
                    std::span<const std::uint8_t>(buf.data(), len)).status,
                wire::DecodeStatus::kNeedMore);
    }
    const wire::DecodedFrame frame = wire::decode_frame(buf);
    ASSERT_TRUE(frame.ok()) << wire::to_cstring(frame.status);
    ASSERT_EQ(frame.type, wire::MsgType::kSliceSync);
    EXPECT_EQ(frame.consumed, buf.size());
    EXPECT_EQ(frame.slice_sync, rq);
  }
}

TEST(WireCodec, SliceSyncReplyRoundTripAndForgedCount) {
  Rng rng(71);
  for (int iter = 0; iter < 100; ++iter) {
    const std::uint64_t seq = rng.next_u64();
    const std::uint64_t ring_epoch = rng.next_u64();
    const auto status = static_cast<std::uint8_t>(rng.uniform_int(0, 2));
    const auto next_cursor = static_cast<std::uint32_t>(rng.next_u64());
    const std::vector<wire::SliceRecord> records = random_slice_records(
        rng, static_cast<std::size_t>(rng.uniform_int(0, 12)));
    std::vector<std::uint8_t> buf;
    wire::encode_slice_sync_reply_frame(SiteId{1}, SiteId{4}, seq, ring_epoch,
                                        status, next_cursor, records, buf);
    for (std::size_t len = 0; len < buf.size(); len += 5) {
      EXPECT_EQ(wire::decode_frame(
                    std::span<const std::uint8_t>(buf.data(), len)).status,
                wire::DecodeStatus::kNeedMore);
    }
    const wire::DecodedFrame frame = wire::decode_frame(buf);
    ASSERT_TRUE(frame.ok()) << wire::to_cstring(frame.status);
    ASSERT_EQ(frame.type, wire::MsgType::kSliceSyncReply);
    EXPECT_EQ(frame.consumed, buf.size());
    EXPECT_EQ(frame.slice_seq, seq);
    EXPECT_EQ(frame.slice_ring_epoch, ring_epoch);
    EXPECT_EQ(frame.slice_status, status);
    EXPECT_EQ(frame.slice_next_cursor, next_cursor);
    ASSERT_EQ(frame.slice_records.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(frame.slice_records[i], records[i]);
    }
  }

  // Reply body: seq u64, ring epoch u64, status u8, next cursor u32, then
  // the record count u32 at absolute offset 37. A forged count can never
  // force a large allocation or an over-read.
  std::vector<std::uint8_t> buf;
  wire::encode_slice_sync_reply_frame(SiteId{1}, SiteId{4}, 1, 2, 0, 3,
                                      random_slice_records(rng, 2), buf);
  std::vector<std::uint8_t> bad = buf;
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(bad.data() + 37, &huge, sizeof(huge));
  EXPECT_EQ(wire::decode_frame(bad).status, wire::DecodeStatus::kBadField);
  bad = buf;
  const std::uint32_t plausible = wire::kMaxSliceRecords;
  std::memcpy(bad.data() + 37, &plausible, sizeof(plausible));
  EXPECT_EQ(wire::decode_frame(bad).status, wire::DecodeStatus::kShortBody);
  // Status bytes past kSliceNotReady are malformed, not clamped.
  bad = buf;
  bad[32] = 3;
  EXPECT_EQ(wire::decode_frame(bad).status, wire::DecodeStatus::kBadField);
}

TEST(WireCodec, RingUpdateRoundTripAndForgedCount) {
  Rng rng(73);
  for (int iter = 0; iter < 100; ++iter) {
    const std::uint64_t epoch = rng.next_u64();
    const std::vector<std::uint32_t> members = random_ring_members(
        rng, static_cast<std::size_t>(rng.uniform_int(0, wire::kMaxMembers)));
    std::vector<std::uint8_t> buf;
    wire::encode_ring_update_frame(SiteId{2}, SiteId{9}, epoch, members, buf);
    for (std::size_t len = 0; len < buf.size(); len += 3) {
      EXPECT_EQ(wire::decode_frame(
                    std::span<const std::uint8_t>(buf.data(), len)).status,
                wire::DecodeStatus::kNeedMore);
    }
    const wire::DecodedFrame frame = wire::decode_frame(buf);
    ASSERT_TRUE(frame.ok()) << wire::to_cstring(frame.status);
    ASSERT_EQ(frame.type, wire::MsgType::kRingUpdate);
    EXPECT_EQ(frame.consumed, buf.size());
    EXPECT_EQ(frame.ring_update_epoch, epoch);
    ASSERT_EQ(frame.ring_members.size(), members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      EXPECT_EQ(frame.ring_members[i], members[i]);
    }
  }

  // Body: ring epoch u64, then the member count u32 at absolute offset 24.
  std::vector<std::uint8_t> buf;
  wire::encode_ring_update_frame(SiteId{2}, SiteId{9}, 7,
                                 random_ring_members(rng, 3), buf);
  std::vector<std::uint8_t> bad = buf;
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(bad.data() + 24, &huge, sizeof(huge));
  EXPECT_EQ(wire::decode_frame(bad).status, wire::DecodeStatus::kBadField);
  bad = buf;
  const std::uint32_t plausible = wire::kMaxMembers;
  std::memcpy(bad.data() + 24, &plausible, sizeof(plausible));
  EXPECT_EQ(wire::decode_frame(bad).status, wire::DecodeStatus::kShortBody);
}

TEST(WireCodec, OverloadedRoundTrip) {
  Rng rng(79);
  for (int iter = 0; iter < 100; ++iter) {
    const wire::Overloaded ov{static_cast<std::uint32_t>(rng.next_u64()),
                              rng.next_u64(),
                              static_cast<std::int64_t>(rng.next_u64() >> 1)};
    std::vector<std::uint8_t> buf;
    wire::encode_overloaded_frame(SiteId{1}, SiteId{4}, ov, buf);
    for (std::size_t len = 0; len < buf.size(); ++len) {
      EXPECT_EQ(wire::decode_frame(
                    std::span<const std::uint8_t>(buf.data(), len)).status,
                wire::DecodeStatus::kNeedMore);
    }
    const wire::DecodedFrame frame = wire::decode_frame(buf);
    ASSERT_TRUE(frame.ok()) << wire::to_cstring(frame.status);
    ASSERT_EQ(frame.type, wire::MsgType::kOverloaded);
    EXPECT_EQ(frame.consumed, buf.size());
    EXPECT_EQ(frame.overloaded, ov);
  }
}

TEST(WireCodec, RandomByteFlipsNeverCrashOrOverRead) {
  Rng rng(23);
  for (int iter = 0; iter < 3000; ++iter) {
    const int type = static_cast<int>(rng.uniform_int(0, kNumTypes - 1));
    std::vector<std::uint8_t> buf =
        encode(SiteId{1}, SiteId{2}, random_message(rng, type));
    const int flips = static_cast<int>(rng.uniform_int(1, 8));
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(buf.size()) - 1));
      buf[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
    const wire::DecodedFrame frame = wire::decode_frame(buf);
    if (frame.ok()) {
      EXPECT_LE(frame.consumed, buf.size());
    } else {
      EXPECT_EQ(frame.consumed, 0u);
    }
  }
}

TEST(WireCodec, RandomGarbageNeverCrashes) {
  Rng rng(29);
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<std::uint8_t> buf(
        static_cast<std::size_t>(rng.uniform_int(0, 600)));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
    // Planting the magic/version sometimes exercises the deeper paths.
    if (buf.size() >= 4 && rng.bernoulli(0.5)) {
      buf[0] = 0x43;
      buf[1] = 0x54;
      buf[2] = wire::kVersion;
      buf[3] = static_cast<std::uint8_t>(rng.uniform_int(1, 8));
    }
    const wire::DecodedFrame frame = wire::decode_frame(buf);
    if (frame.ok()) {
      EXPECT_LE(frame.consumed, buf.size());
    }
  }
}

/// Asserts that the zero-copy path (peek_frame + decode_frame_view into a
/// reused DecodedFrame) agrees with the owning decode_frame on every field
/// for this buffer. `scratch` is deliberately reused across calls — the
/// transport hot path never resets it between frames, so stale state from
/// a previous decode must never leak through.
void expect_view_matches_owning(std::span<const std::uint8_t> buf,
                                wire::DecodedFrame& scratch) {
  const wire::DecodedFrame owning = wire::decode_frame(buf);
  const wire::FrameView view = wire::peek_frame(buf);
  if (view.ok()) {
    ASSERT_EQ(wire::decode_frame_view(view, scratch), scratch.status);
    // The header fields are already authoritative on the view itself.
    // (view.consumed is the header-claimed frame size and stays set even
    // when the body decode below fails, so it only matches the owning
    // count on success — scratch.consumed matches unconditionally.)
    if (owning.ok()) {
      EXPECT_EQ(view.from, owning.from);
      EXPECT_EQ(view.to, owning.to);
      EXPECT_EQ(view.consumed, owning.consumed);
    }
  } else {
    // Every header-stage rejection must be the owning path's rejection.
    ASSERT_EQ(view.status, owning.status);
    EXPECT_EQ(view.consumed, 0u);
    return;
  }
  ASSERT_EQ(scratch.status, owning.status)
      << wire::to_cstring(scratch.status) << " vs "
      << wire::to_cstring(owning.status);
  EXPECT_EQ(scratch.consumed, owning.consumed);
  if (!owning.ok()) return;
  EXPECT_EQ(scratch.from, owning.from);
  EXPECT_EQ(scratch.to, owning.to);
  ASSERT_EQ(scratch.type, owning.type);
  switch (owning.type) {
    case wire::MsgType::kFetchRequest:
    case wire::MsgType::kFetchReply:
    case wire::MsgType::kWriteRequest:
    case wire::MsgType::kWriteAck:
    case wire::MsgType::kValidateRequest:
    case wire::MsgType::kValidateReply:
    case wire::MsgType::kInvalidate:
    case wire::MsgType::kPushUpdate:
      EXPECT_EQ(scratch.message, owning.message);
      return;
    case wire::MsgType::kHeartbeat:
      EXPECT_EQ(scratch.heartbeat.seq, owning.heartbeat.seq);
      EXPECT_EQ(scratch.heartbeat.send_time_us, owning.heartbeat.send_time_us);
      EXPECT_EQ(scratch.heartbeat.reply, owning.heartbeat.reply);
      return;
    case wire::MsgType::kTimeRequest:
    case wire::MsgType::kTimeReply:
      EXPECT_EQ(scratch.time_sync.seq, owning.time_sync.seq);
      EXPECT_EQ(scratch.time_sync.client_send_us,
                owning.time_sync.client_send_us);
      EXPECT_EQ(scratch.time_sync.server_time_us,
                owning.time_sync.server_time_us);
      EXPECT_EQ(scratch.time_sync.reply, owning.time_sync.reply);
      return;
    case wire::MsgType::kStatsRequest:
      EXPECT_EQ(scratch.stats_request.seq, owning.stats_request.seq);
      EXPECT_EQ(scratch.stats_request.target_site,
                owning.stats_request.target_site);
      return;
    case wire::MsgType::kStatsReply:
      EXPECT_EQ(scratch.stats_seq, owning.stats_seq);
      EXPECT_EQ(scratch.stats_boards, owning.stats_boards);
      EXPECT_EQ(scratch.stats_rows, owning.stats_rows);
      return;
    case wire::MsgType::kMembership:
      EXPECT_EQ(scratch.membership_epoch, owning.membership_epoch);
      EXPECT_EQ(scratch.membership_ring_epoch, owning.membership_ring_epoch);
      EXPECT_EQ(scratch.members, owning.members);
      return;
    case wire::MsgType::kForward:
      EXPECT_EQ(scratch.forward_hops, owning.forward_hops);
      EXPECT_EQ(scratch.forward_serve_here, owning.forward_serve_here);
      EXPECT_EQ(scratch.forward_ring_epoch, owning.forward_ring_epoch);
      EXPECT_EQ(scratch.forward_inner, owning.forward_inner);
      return;
    case wire::MsgType::kCacherSubscribe:
      EXPECT_EQ(scratch.cacher_subscribe, owning.cacher_subscribe);
      return;
    case wire::MsgType::kSliceSync:
      EXPECT_EQ(scratch.slice_sync, owning.slice_sync);
      return;
    case wire::MsgType::kSliceSyncReply:
      EXPECT_EQ(scratch.slice_seq, owning.slice_seq);
      EXPECT_EQ(scratch.slice_ring_epoch, owning.slice_ring_epoch);
      EXPECT_EQ(scratch.slice_status, owning.slice_status);
      EXPECT_EQ(scratch.slice_next_cursor, owning.slice_next_cursor);
      EXPECT_EQ(scratch.slice_records, owning.slice_records);
      return;
    case wire::MsgType::kOverloaded:
      EXPECT_EQ(scratch.overloaded, owning.overloaded);
      return;
    case wire::MsgType::kRingUpdate:
      EXPECT_EQ(scratch.ring_update_epoch, owning.ring_update_epoch);
      EXPECT_EQ(scratch.ring_members, owning.ring_members);
      return;
  }
}

TEST(WireCodec, ViewDecodeMatchesOwningDecodeOnEveryInput) {
  // The property behind the transport's zero-copy hot path: for ANY byte
  // buffer — valid frames of every type, heartbeats, time-sync legs,
  // truncations, bit flips, garbage — decode_frame_view(peek_frame(buf))
  // yields exactly decode_frame(buf)'s status, consumed count and fields.
  Rng rng(20260807);
  wire::DecodedFrame scratch;  // reused throughout, like a Connection's
  for (int iter = 0; iter < 400; ++iter) {
    for (int type = 0; type < kNumTypes; ++type) {
      std::vector<std::uint8_t> buf =
          encode(random_site(rng), random_site(rng), random_message(rng, type));
      expect_view_matches_owning(buf, scratch);
      // Every truncation.
      for (std::size_t cut = 0; cut < buf.size(); cut += 3) {
        expect_view_matches_owning(
            std::span<const std::uint8_t>(buf.data(), cut), scratch);
      }
      // Random corruption.
      const int flips = static_cast<int>(rng.uniform_int(1, 6));
      for (int f = 0; f < flips; ++f) {
        const std::size_t at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(buf.size()) - 1));
        buf[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      }
      expect_view_matches_owning(buf, scratch);
    }
    // Transport-internal frames, which the owning path also understands.
    {
      std::vector<std::uint8_t> buf;
      wire::Heartbeat hb{rng.next_u64(),
                         static_cast<std::int64_t>(rng.next_u64() >> 1),
                         rng.bernoulli(0.5)};
      wire::encode_heartbeat_frame(SiteId{1}, SiteId{2}, hb, buf);
      expect_view_matches_owning(buf, scratch);
      buf.clear();
      wire::TimeSync ts{rng.next_u64(),
                        static_cast<std::int64_t>(rng.next_u64() >> 1),
                        static_cast<std::int64_t>(rng.next_u64() >> 1),
                        rng.bernoulli(0.5)};
      wire::encode_time_sync_frame(SiteId{1}, SiteId{2}, ts, buf);
      expect_view_matches_owning(buf, scratch);
      buf.clear();
      wire::StatsRequest rq{rng.next_u64(),
                            static_cast<std::uint32_t>(rng.next_u64())};
      wire::encode_stats_request_frame(SiteId{1}, SiteId{2}, rq, buf);
      expect_view_matches_owning(buf, scratch);
      buf.clear();
      std::vector<StatsEntry> entries(
          static_cast<std::size_t>(rng.uniform_int(0, 8)));
      for (auto& e : entries) {
        e.key = static_cast<std::uint16_t>(rng.next_u64());
        e.value = static_cast<std::int64_t>(rng.next_u64());
      }
      const std::vector<wire::StatsBoardSpan> boards = {
          {static_cast<std::uint32_t>(rng.uniform_int(0, 500)), entries}};
      wire::encode_stats_reply_frame(SiteId{1}, SiteId{2}, rng.next_u64(),
                                     boards, buf);
      expect_view_matches_owning(buf, scratch);
      // Corrupt the stats reply too: its nested counts are the newest
      // attack surface.
      const int sflips = static_cast<int>(rng.uniform_int(1, 4));
      for (int f = 0; f < sflips; ++f) {
        const std::size_t at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(buf.size()) - 1));
        buf[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      }
      expect_view_matches_owning(buf, scratch);
    }
    // Cluster frames: membership digests, forwarded requests and
    // cacher registrations, pristine then bit-flipped — the forward
    // frame's nested length field is the newest nested-count surface.
    {
      std::vector<std::uint8_t> buf;
      wire::encode_membership_frame(
          SiteId{1}, SiteId{2}, rng.next_u64(), rng.next_u64(),
          random_members(rng,
                         static_cast<std::size_t>(rng.uniform_int(0, 8))),
          buf);
      expect_view_matches_owning(buf, scratch);
      buf.clear();
      wire::encode_forward_frame(
          SiteId{1}, SiteId{2},
          static_cast<std::uint8_t>(rng.uniform_int(0, 3)),
          rng.bernoulli(0.3), rng.next_u64(), random_site(rng), SiteId{2},
          random_message(rng, static_cast<int>(
                                  rng.uniform_int(0, kNumTypes - 1))),
          buf);
      expect_view_matches_owning(buf, scratch);
      const int cflips = static_cast<int>(rng.uniform_int(1, 4));
      for (int f = 0; f < cflips; ++f) {
        const std::size_t at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(buf.size()) - 1));
        buf[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      }
      expect_view_matches_owning(buf, scratch);
      buf.clear();
      wire::CacherSubscribe cs{
          ObjectId{static_cast<std::uint32_t>(rng.uniform_int(0, 999))},
          random_site(rng), static_cast<std::uint8_t>(rng.uniform_int(0, 1))};
      wire::encode_cacher_subscribe_frame(SiteId{1}, SiteId{2}, cs, buf);
      expect_view_matches_owning(buf, scratch);
    }
    // Self-healing frames, pristine then bit-flipped — the slice
    // reply's record count and the ring update's member count are the
    // newest nested-count surfaces.
    {
      std::vector<std::uint8_t> buf;
      wire::encode_slice_sync_frame(SiteId{1}, SiteId{2},
                                    random_slice_sync(rng), buf);
      expect_view_matches_owning(buf, scratch);
      buf.clear();
      wire::encode_slice_sync_reply_frame(
          SiteId{1}, SiteId{2}, rng.next_u64(), rng.next_u64(),
          static_cast<std::uint8_t>(rng.uniform_int(0, 2)),
          static_cast<std::uint32_t>(rng.next_u64()),
          random_slice_records(
              rng, static_cast<std::size_t>(rng.uniform_int(0, 8))),
          buf);
      expect_view_matches_owning(buf, scratch);
      const int vflips = static_cast<int>(rng.uniform_int(1, 4));
      for (int f = 0; f < vflips; ++f) {
        const std::size_t at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(buf.size()) - 1));
        buf[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      }
      expect_view_matches_owning(buf, scratch);
      buf.clear();
      wire::encode_ring_update_frame(
          SiteId{1}, SiteId{2}, rng.next_u64(),
          random_ring_members(
              rng, static_cast<std::size_t>(rng.uniform_int(0, 8))),
          buf);
      expect_view_matches_owning(buf, scratch);
      buf.clear();
      wire::encode_overloaded_frame(
          SiteId{1}, SiteId{2},
          wire::Overloaded{static_cast<std::uint32_t>(rng.next_u64()),
                           rng.next_u64(),
                           static_cast<std::int64_t>(rng.next_u64() >> 1)},
          buf);
      expect_view_matches_owning(buf, scratch);
    }
    // Pure garbage, occasionally with a plausible header planted.
    {
      std::vector<std::uint8_t> buf(
          static_cast<std::size_t>(rng.uniform_int(0, 200)));
      for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
      if (buf.size() >= 4 && rng.bernoulli(0.5)) {
        buf[0] = 0x43;
        buf[1] = 0x54;
        buf[2] = wire::kVersion;
        buf[3] = static_cast<std::uint8_t>(rng.uniform_int(1, 8));
      }
      expect_view_matches_owning(buf, scratch);
    }
  }
}

}  // namespace
}  // namespace timedc
