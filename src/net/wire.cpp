#include "net/wire.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/assert.hpp"

namespace timedc::wire {
namespace {

// --- encoding ---------------------------------------------------------------

/// Stores fixed-width little-endian fields through a cursor over bytes
/// begin_frame has already sized into the output, one store per field.
/// The destructor asserts the stores filled those bytes exactly: a body
/// size that disagrees with the fields written is a codec bug.
class Writer {
 public:
  Writer(std::uint8_t* at, std::uint8_t* end) : at_(at), end_(end) {}
  ~Writer() { TIMEDC_ASSERT(at_ == end_ && "frame size disagrees with body"); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void u8(std::uint8_t v) { *at_++ = v; }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v)); }
  void time(SimTime t) { i64(t.as_micros()); }
  void timestamp(const PlausibleTimestamp& ts) {
    TIMEDC_ASSERT(ts.num_entries() <= kMaxClockEntries);
    u32(ts.origin().value);
    u32(static_cast<std::uint32_t>(ts.num_entries()));
    for (std::uint64_t e : ts.entries()) u64(e);
  }
  void copy(const ObjectCopy& c) {
    u32(c.object.value);
    i64(c.value.value);
    u64(c.version);
    time(c.alpha);
    time(c.omega);
    time(c.beta);
    timestamp(c.alpha_l);
    timestamp(c.omega_l);
  }

 private:
  template <typename T>
  void put(T v) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(at_, &v, sizeof v);
    } else {
      for (std::size_t i = 0; i < sizeof v; ++i) {
        at_[i] = static_cast<std::uint8_t>(v >> (8 * i));
      }
    }
    at_ += sizeof v;
  }

  std::uint8_t* at_;
  std::uint8_t* end_;
};

std::size_t timestamp_size(const PlausibleTimestamp& ts) {
  return 8 + 8 * ts.num_entries();
}

std::size_t copy_size(const ObjectCopy& c) {
  return 4 + 8 + 8 + 3 * 8 + timestamp_size(c.alpha_l) + timestamp_size(c.omega_l);
}

struct TypeAndSize {
  MsgType type;
  std::size_t body;
};

TypeAndSize type_and_size(const Message& m) {
  struct Visitor {
    TypeAndSize operator()(const FetchRequest&) const {
      return {MsgType::kFetchRequest, 4 + 4 + 8};
    }
    TypeAndSize operator()(const FetchReply& r) const {
      return {MsgType::kFetchReply, copy_size(r.copy) + 8};
    }
    TypeAndSize operator()(const WriteRequest& r) const {
      return {MsgType::kWriteRequest, 4 + 8 + 8 + timestamp_size(r.write_ts) + 4 + 8};
    }
    TypeAndSize operator()(const WriteAck&) const {
      return {MsgType::kWriteAck, 4 + 8 + 8};
    }
    TypeAndSize operator()(const ValidateRequest&) const {
      return {MsgType::kValidateRequest, 4 + 8 + 4 + 8};
    }
    TypeAndSize operator()(const ValidateReply& r) const {
      return {MsgType::kValidateReply, 4 + 1 + copy_size(r.copy) + 8};
    }
    TypeAndSize operator()(const Invalidate&) const {
      return {MsgType::kInvalidate, 4 + 8};
    }
    TypeAndSize operator()(const PushUpdate& p) const {
      return {MsgType::kPushUpdate, copy_size(p.copy)};
    }
  };
  return std::visit(Visitor{}, m);
}

void encode_body(Writer& w, const Message& m) {
  struct Visitor {
    Writer& w;
    void operator()(const FetchRequest& r) const {
      w.u32(r.object.value);
      w.u32(r.reply_to.value);
      w.u64(r.request_id);
    }
    void operator()(const FetchReply& r) const {
      w.copy(r.copy);
      w.u64(r.request_id);
    }
    void operator()(const WriteRequest& r) const {
      w.u32(r.object.value);
      w.i64(r.value.value);
      w.time(r.client_time);
      w.timestamp(r.write_ts);
      w.u32(r.reply_to.value);
      w.u64(r.request_id);
    }
    void operator()(const WriteAck& a) const {
      w.u32(a.object.value);
      w.u64(a.version);
      w.u64(a.request_id);
    }
    void operator()(const ValidateRequest& r) const {
      w.u32(r.object.value);
      w.u64(r.version);
      w.u32(r.reply_to.value);
      w.u64(r.request_id);
    }
    void operator()(const ValidateReply& r) const {
      w.u32(r.object.value);
      w.u8(r.still_valid ? 1 : 0);
      w.copy(r.copy);
      w.u64(r.request_id);
    }
    void operator()(const Invalidate& i) const {
      w.u32(i.object.value);
      w.u64(i.version);
    }
    void operator()(const PushUpdate& p) const { w.copy(p.copy); }
  };
  std::visit(Visitor{w}, m);
}

// --- decoding ---------------------------------------------------------------

/// Cursor over the frame body only; every read is bounds-checked and a
/// failed read poisons the reader (subsequent reads return zeros), so one
/// status check at the end of the body suffices.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> body) : body_(body) {}

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return body_[at_++];
  }
  std::uint16_t u16() {
    if (!take(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(body_[at_]) |
                      static_cast<std::uint16_t>(body_[at_ + 1]) << 8;
    at_ += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(body_[at_ + i]) << (8 * i);
    at_ += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(body_[at_ + i]) << (8 * i);
    at_ += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  SimTime time() { return SimTime::micros(i64()); }

  PlausibleTimestamp timestamp() {
    const SiteId origin{u32()};
    const std::uint32_t n = u32();
    if (n > kMaxClockEntries) {
      fail(DecodeStatus::kOversizedClock);
      return {};
    }
    // The entry bytes must already be present before anything is allocated
    // (take() only checks bounds; the u64() loop below does the advancing).
    if (!take(std::size_t{8} * n)) return {};
    std::vector<std::uint64_t> entries(n);
    for (std::uint32_t i = 0; i < n; ++i) entries[i] = u64();
    return PlausibleTimestamp(std::move(entries), origin);
  }

  ObjectCopy copy() {
    ObjectCopy c;
    c.object = ObjectId{u32()};
    c.value = Value{i64()};
    c.version = u64();
    c.alpha = time();
    c.omega = time();
    c.beta = time();
    c.alpha_l = timestamp();
    c.omega_l = timestamp();
    return c;
  }

  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) {
      fail(DecodeStatus::kBadField);
      return false;
    }
    return v == 1;
  }

  /// Everything not yet read (the wrapped frame of a kForward).
  std::span<const std::uint8_t> rest() {
    const std::span<const std::uint8_t> left = body_.subspan(at_);
    at_ = body_.size();
    return left;
  }

  void fail(DecodeStatus why) {
    if (status_ == DecodeStatus::kOk) status_ = why;
  }
  DecodeStatus status() const { return status_; }
  bool ok() const { return status_ == DecodeStatus::kOk; }
  bool exhausted() const { return at_ == body_.size(); }

 private:
  bool take(std::size_t n) {
    if (status_ != DecodeStatus::kOk || body_.size() - at_ < n) {
      fail(DecodeStatus::kShortBody);
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> body_;
  std::size_t at_ = 0;
  DecodeStatus status_ = DecodeStatus::kOk;
};

std::uint32_t read_u32_at(std::span<const std::uint8_t> buf, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf[at + i]) << (8 * i);
  return v;
}

// reserve() to an exact size reallocates every time the buffer is already
// full, turning appends to a backlogged write buffer into O(n^2) copying.
// Grow geometrically instead, like push_back would.
void grow_for_append(std::vector<std::uint8_t>& out, std::size_t extra) {
  const std::size_t need = out.size() + extra;
  if (need > out.capacity()) out.reserve(std::max(need, out.capacity() * 2));
}

/// Append the 16-byte header of a frame with a `body`-byte body onto `out`
/// and return the Writer for the first `sized` body bytes. `out` grows
/// once, with room for the whole frame, and is sized for the header plus
/// those bytes. Only a kForward sizes less than its body: it appends the
/// wrapped frame after its prefix.
Writer begin_frame(MsgType type, SiteId from, SiteId to, std::size_t body,
                   std::size_t sized, std::vector<std::uint8_t>& out) {
  TIMEDC_ASSERT(body <= kMaxBodyBytes && sized <= body);
  grow_for_append(out, kHeaderBytes + body);
  const std::size_t at = out.size();
  out.resize(at + kHeaderBytes + sized);
  std::uint8_t* const header = out.data() + at;
  {
    Writer w(header, header + kHeaderBytes);
    w.u16(kMagic);
    w.u8(kVersion);
    w.u8(static_cast<std::uint8_t>(type));
    w.u32(from.value);
    w.u32(to.value);
    w.u32(static_cast<std::uint32_t>(body));
  }
  return Writer(header + kHeaderBytes, out.data() + out.size());
}

Writer begin_frame(MsgType type, SiteId from, SiteId to, std::size_t body,
                   std::vector<std::uint8_t>& out) {
  return begin_frame(type, from, to, body, body, out);
}

// kForward body prefix: [flags+hops u8][ring_epoch u64]. Bit 7 of the
// first byte is serve-here, the low 4 bits are the hop count, the bits in
// between must be zero.
inline constexpr std::uint8_t kForwardServeHereBit = 0x80;
inline constexpr std::uint8_t kForwardHopsMask = 0x0f;
inline constexpr std::size_t kForwardPrefixBytes = 1 + 8;

/// Append a kForward header and body prefix for an `inner_size`-byte
/// wrapped frame; the caller appends the frame itself.
void begin_forward(SiteId from, SiteId to, std::uint8_t hops, bool serve_here,
                   std::uint64_t ring_epoch, std::size_t inner_size,
                   std::vector<std::uint8_t>& out) {
  TIMEDC_ASSERT(hops <= kForwardHopsMask);
  Writer w = begin_frame(MsgType::kForward, from, to,
                         kForwardPrefixBytes + inner_size, kForwardPrefixBytes,
                         out);
  w.u8(static_cast<std::uint8_t>((serve_here ? kForwardServeHereBit : 0) |
                                 hops));
  w.u64(ring_epoch);
}

// Reserved bits fail the reader only after both fields are read: the
// transport's peek_forward_prefix still gets the fields, while
// decode_frame_view rejects the frame.
ForwardPrefix read_forward_prefix(Reader& r) {
  const std::uint8_t flags = r.u8();
  ForwardPrefix prefix;
  prefix.hops = flags & kForwardHopsMask;
  prefix.serve_here = (flags & kForwardServeHereBit) != 0;
  prefix.ring_epoch = r.u64();
  if ((flags & ~(kForwardServeHereBit | kForwardHopsMask)) != 0) {
    r.fail(DecodeStatus::kBadField);
  }
  return prefix;
}

}  // namespace

std::size_t encoded_frame_size(const Message& m) {
  return kHeaderBytes + type_and_size(m).body;
}

void encode_frame(SiteId from, SiteId to, const Message& m,
                  std::vector<std::uint8_t>& out) {
  const TypeAndSize ts = type_and_size(m);
  Writer w = begin_frame(ts.type, from, to, ts.body, out);
  encode_body(w, m);
}

void encode_heartbeat_frame(SiteId from, SiteId to, const Heartbeat& hb,
                            std::vector<std::uint8_t>& out) {
  Writer w = begin_frame(MsgType::kHeartbeat, from, to, 8 + 8 + 1, out);
  w.u64(hb.seq);
  w.i64(hb.send_time_us);
  w.u8(hb.reply ? 1 : 0);
}

void encode_time_sync_frame(SiteId from, SiteId to, const TimeSync& ts,
                            std::vector<std::uint8_t>& out) {
  Writer w = begin_frame(ts.reply ? MsgType::kTimeReply : MsgType::kTimeRequest,
                         from, to, 8 + 8 + 8, out);
  w.u64(ts.seq);
  w.i64(ts.client_send_us);
  w.i64(ts.server_time_us);
}

void encode_stats_request_frame(SiteId from, SiteId to,
                                const StatsRequest& rq,
                                std::vector<std::uint8_t>& out) {
  Writer w = begin_frame(MsgType::kStatsRequest, from, to, 8 + 4, out);
  w.u64(rq.seq);
  w.u32(rq.target_site);
}

void encode_stats_reply_frame(SiteId from, SiteId to, std::uint64_t seq,
                              std::span<const StatsBoardSpan> boards,
                              std::vector<std::uint8_t>& out) {
  TIMEDC_ASSERT(boards.size() <= kMaxStatsBoards);
  std::size_t body = 8 + 4;
  for (const StatsBoardSpan& b : boards) {
    TIMEDC_ASSERT(b.entries.size() <= kMaxStatsEntries);
    body += 4 + 4 + b.entries.size() * (2 + 8);
  }
  Writer w = begin_frame(MsgType::kStatsReply, from, to, body, out);
  w.u64(seq);
  w.u32(static_cast<std::uint32_t>(boards.size()));
  for (const StatsBoardSpan& b : boards) {
    w.u32(b.site);
    w.u32(static_cast<std::uint32_t>(b.entries.size()));
    for (const StatsEntry& e : b.entries) {
      w.u16(e.key);
      w.i64(e.value);
    }
  }
}

void encode_membership_frame(SiteId from, SiteId to, std::uint64_t epoch,
                             std::uint64_t ring_epoch,
                             std::span<const MemberEntry> members,
                             std::vector<std::uint8_t>& out) {
  TIMEDC_ASSERT(members.size() <= kMaxMembers);
  Writer w = begin_frame(MsgType::kMembership, from, to,
                         8 + 8 + 4 + members.size() * (4 + 8 + 1), out);
  w.u64(epoch);
  w.u64(ring_epoch);
  w.u32(static_cast<std::uint32_t>(members.size()));
  for (const MemberEntry& m : members) {
    w.u32(m.site);
    w.u64(m.incarnation);
    w.u8(m.status);
  }
}

void encode_forward_frame_raw(SiteId from, SiteId to, std::uint8_t hops,
                              bool serve_here, std::uint64_t ring_epoch,
                              std::span<const std::uint8_t> inner_frame,
                              std::vector<std::uint8_t>& out) {
  begin_forward(from, to, hops, serve_here, ring_epoch, inner_frame.size(),
                out);
  out.insert(out.end(), inner_frame.begin(), inner_frame.end());
}

void encode_forward_frame(SiteId from, SiteId to, std::uint8_t hops,
                          bool serve_here, std::uint64_t ring_epoch,
                          SiteId inner_from, SiteId inner_to,
                          const Message& inner,
                          std::vector<std::uint8_t>& out) {
  begin_forward(from, to, hops, serve_here, ring_epoch,
                encoded_frame_size(inner), out);
  encode_frame(inner_from, inner_to, inner, out);
}

void encode_cacher_subscribe_frame(SiteId from, SiteId to,
                                   const CacherSubscribe& cs,
                                   std::vector<std::uint8_t>& out) {
  Writer w = begin_frame(MsgType::kCacherSubscribe, from, to, 4 + 4 + 1, out);
  w.u32(cs.object.value);
  w.u32(cs.cacher.value);
  w.u8(cs.mode);
}

void encode_slice_sync_frame(SiteId from, SiteId to,
                             const SliceSyncRequest& rq,
                             std::vector<std::uint8_t>& out) {
  Writer w = begin_frame(MsgType::kSliceSync, from, to, 8 + 8 + 4 + 4 + 8, out);
  w.u64(rq.seq);
  w.u64(rq.ring_epoch);
  w.u32(rq.cursor);
  w.u32(rq.max_records);
  w.i64(rq.if_newer_than_us);
}

void encode_slice_sync_reply_frame(SiteId from, SiteId to, std::uint64_t seq,
                                   std::uint64_t ring_epoch,
                                   std::uint8_t status,
                                   std::uint32_t next_cursor,
                                   std::span<const SliceRecord> records,
                                   std::vector<std::uint8_t>& out) {
  TIMEDC_ASSERT(records.size() <= kMaxSliceRecords);
  TIMEDC_ASSERT(status <= kSliceNotReady);
  Writer w = begin_frame(
      MsgType::kSliceSyncReply, from, to,
      8 + 8 + 1 + 4 + 4 + records.size() * (4 + 8 + 8 + 8 + 4 + 8), out);
  w.u64(seq);
  w.u64(ring_epoch);
  w.u8(status);
  w.u32(next_cursor);
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const SliceRecord& rec : records) {
    w.u32(rec.object);
    w.i64(rec.value);
    w.u64(rec.version);
    w.i64(rec.alpha_us);
    w.u32(rec.writer);
    w.u64(rec.request_id);
  }
}

void encode_overloaded_frame(SiteId from, SiteId to, const Overloaded& ov,
                             std::vector<std::uint8_t>& out) {
  Writer w = begin_frame(MsgType::kOverloaded, from, to, 4 + 8 + 8, out);
  w.u32(ov.object);
  w.u64(ov.request_id);
  w.i64(ov.retry_after_us);
}

void encode_ring_update_frame(SiteId from, SiteId to, std::uint64_t ring_epoch,
                              std::span<const std::uint32_t> members,
                              std::vector<std::uint8_t>& out) {
  TIMEDC_ASSERT(members.size() <= kMaxMembers);
  Writer w = begin_frame(MsgType::kRingUpdate, from, to,
                         8 + 4 + members.size() * 4, out);
  w.u64(ring_epoch);
  w.u32(static_cast<std::uint32_t>(members.size()));
  for (std::uint32_t site : members) w.u32(site);
}

FrameView peek_frame(std::span<const std::uint8_t> buf) {
  FrameView view;
  // Fail fast on a corrupt stream: magic/version/type are validated as soon
  // as their bytes are present, without waiting for a full header.
  if (buf.size() < 2) return view;  // kNeedMore
  const std::uint16_t magic = static_cast<std::uint16_t>(buf[0]) |
                              static_cast<std::uint16_t>(buf[1]) << 8;
  if (magic != kMagic) {
    view.status = DecodeStatus::kBadMagic;
    return view;
  }
  if (buf.size() < 3) return view;
  if (buf[2] != kVersion) {
    view.status = DecodeStatus::kBadVersion;
    return view;
  }
  if (buf.size() < 4) return view;
  const std::uint8_t raw_type = buf[3];
  if (raw_type < static_cast<std::uint8_t>(MsgType::kFetchRequest) ||
      raw_type > static_cast<std::uint8_t>(kLastMsgType)) {
    view.status = DecodeStatus::kBadType;
    return view;
  }
  if (buf.size() < kHeaderBytes) return view;
  view.from = SiteId{read_u32_at(buf, 4)};
  view.to = SiteId{read_u32_at(buf, 8)};
  const std::uint32_t body_len = read_u32_at(buf, 12);
  if (body_len > kMaxBodyBytes) {
    view.status = DecodeStatus::kOversizedBody;
    return view;
  }
  if (buf.size() < kHeaderBytes + body_len) return view;
  view.status = DecodeStatus::kOk;
  view.consumed = kHeaderBytes + body_len;
  view.type = static_cast<MsgType>(raw_type);
  view.body = buf.subspan(kHeaderBytes, body_len);
  return view;
}

FrameView peek_forward_inner(const FrameView& outer) {
  FrameView inner;
  inner.status = DecodeStatus::kBadField;
  if (!outer.ok() || outer.type != MsgType::kForward ||
      outer.body.size() < kForwardPrefixBytes) {
    return inner;
  }
  const std::span<const std::uint8_t> wrapped =
      outer.body.subspan(kForwardPrefixBytes);
  FrameView peeked = peek_frame(wrapped);
  // A forged inner length can only land here as kNeedMore (the wrapped
  // bytes end before the declared body does) — still kBadField for the
  // outer frame: the stream itself is complete, the frame is malformed.
  if (!peeked.ok() || peeked.consumed != wrapped.size() ||
      !peeked.is_protocol()) {
    if (peeked.status == DecodeStatus::kOversizedBody) {
      inner.status = DecodeStatus::kOversizedBody;
    }
    return inner;
  }
  return peeked;
}

ForwardPrefix peek_forward_prefix(const FrameView& outer) {
  if (outer.type != MsgType::kForward ||
      outer.body.size() < kForwardPrefixBytes) {
    return {};
  }
  Reader r(outer.body);
  return read_forward_prefix(r);
}

DecodeStatus decode_frame_view(const FrameView& view, DecodedFrame& out) {
  out.status = view.status;
  out.consumed = 0;
  out.from = view.from;
  out.to = view.to;
  out.type = view.type;
  if (!view.ok()) return out.status;

  // Every case reads its fields straight into `out`. A field that fails
  // validation poisons the reader, so the epilogue after the switch is the
  // only place that classifies a body. Braced initializers evaluate their
  // clauses left to right, so each reads its fields in wire order.
  Reader r(view.body);
  switch (view.type) {
    case MsgType::kFetchRequest:
      out.message = FetchRequest{ObjectId{r.u32()}, SiteId{r.u32()}, r.u64()};
      break;
    case MsgType::kFetchReply:
      out.message = FetchReply{r.copy(), r.u64()};
      break;
    case MsgType::kWriteRequest:
      out.message = WriteRequest{ObjectId{r.u32()}, Value{r.i64()}, r.time(),
                                 r.timestamp(),     SiteId{r.u32()}, r.u64()};
      break;
    case MsgType::kWriteAck:
      out.message = WriteAck{ObjectId{r.u32()}, r.u64(), r.u64()};
      break;
    case MsgType::kValidateRequest:
      out.message =
          ValidateRequest{ObjectId{r.u32()}, r.u64(), SiteId{r.u32()}, r.u64()};
      break;
    case MsgType::kValidateReply:
      out.message =
          ValidateReply{ObjectId{r.u32()}, r.boolean(), r.copy(), r.u64()};
      break;
    case MsgType::kInvalidate:
      out.message = Invalidate{ObjectId{r.u32()}, r.u64()};
      break;
    case MsgType::kPushUpdate:
      out.message = PushUpdate{r.copy()};
      break;
    case MsgType::kHeartbeat:
      out.heartbeat = Heartbeat{r.u64(), r.i64(), r.boolean()};
      break;
    case MsgType::kTimeRequest:
    case MsgType::kTimeReply:
      out.time_sync = TimeSync{r.u64(), r.i64(), r.i64(),
                               view.type == MsgType::kTimeReply};
      break;
    case MsgType::kStatsRequest:
      out.stats_request = StatsRequest{r.u64(), r.u32()};
      break;
    case MsgType::kStatsReply:
      out.stats_rows.clear();
      out.stats_seq = r.u64();
      out.stats_boards = r.u32();
      if (out.stats_boards > kMaxStatsBoards) r.fail(DecodeStatus::kBadField);
      for (std::uint32_t b = 0; b < out.stats_boards && r.ok(); ++b) {
        const std::uint32_t site = r.u32();
        const std::uint32_t n = r.u32();
        if (n > kMaxStatsEntries) r.fail(DecodeStatus::kBadField);
        for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
          const std::uint16_t key = r.u16();
          const std::int64_t value = r.i64();
          if (r.ok()) out.stats_rows.push_back({site, key, value});
        }
      }
      break;
    case MsgType::kMembership: {
      out.members.clear();
      out.membership_epoch = r.u64();
      out.membership_ring_epoch = r.u64();
      const std::uint32_t n = r.u32();
      if (n > kMaxMembers) r.fail(DecodeStatus::kBadField);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        const MemberEntry e{r.u32(), r.u64(), r.u8()};
        if (e.status > 2) r.fail(DecodeStatus::kBadField);
        if (r.ok()) out.members.push_back(e);
      }
      break;
    }
    case MsgType::kForward: {
      const FrameView inner = peek_forward_inner(view);
      if (!inner.ok()) {
        r.fail(inner.status);
        break;
      }
      const ForwardPrefix prefix = read_forward_prefix(r);
      out.forward_hops = prefix.hops;
      out.forward_serve_here = prefix.serve_here;
      out.forward_ring_epoch = prefix.ring_epoch;
      const std::span<const std::uint8_t> wrapped = r.rest();
      out.forward_inner.assign(wrapped.begin(), wrapped.end());
      break;
    }
    case MsgType::kCacherSubscribe:
      out.cacher_subscribe =
          CacherSubscribe{ObjectId{r.u32()}, SiteId{r.u32()}, r.u8()};
      if (out.cacher_subscribe.mode > 1) r.fail(DecodeStatus::kBadField);
      break;
    case MsgType::kSliceSync: {
      out.slice_sync =
          SliceSyncRequest{r.u64(), r.u64(), r.u32(), r.u32(), r.i64()};
      const std::uint32_t max = out.slice_sync.max_records;
      if (max == 0 || max > kMaxSliceRecords) r.fail(DecodeStatus::kBadField);
      break;
    }
    case MsgType::kSliceSyncReply: {
      out.slice_records.clear();
      out.slice_seq = r.u64();
      out.slice_ring_epoch = r.u64();
      out.slice_status = r.u8();
      if (out.slice_status > kSliceNotReady) r.fail(DecodeStatus::kBadField);
      out.slice_next_cursor = r.u32();
      const std::uint32_t n = r.u32();
      if (n > kMaxSliceRecords) r.fail(DecodeStatus::kBadField);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        const SliceRecord rec{r.u32(), r.i64(), r.u64(),
                              r.i64(), r.u32(), r.u64()};
        if (r.ok()) out.slice_records.push_back(rec);
      }
      break;
    }
    case MsgType::kOverloaded:
      out.overloaded = Overloaded{r.u32(), r.u64(), r.i64()};
      break;
    case MsgType::kRingUpdate: {
      out.ring_members.clear();
      out.ring_update_epoch = r.u64();
      const std::uint32_t n = r.u32();
      if (n > kMaxMembers) r.fail(DecodeStatus::kBadField);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        const std::uint32_t site = r.u32();
        if (r.ok()) out.ring_members.push_back(site);
      }
      break;
    }
  }
  if (!r.ok()) return out.status = r.status();
  if (!r.exhausted()) return out.status = DecodeStatus::kTrailingBytes;
  out.consumed = view.consumed;
  return out.status = DecodeStatus::kOk;
}

DecodedFrame decode_frame(std::span<const std::uint8_t> buf) {
  DecodedFrame frame;
  decode_frame_view(peek_frame(buf), frame);
  return frame;
}

}  // namespace timedc::wire
