// The binary wire codec: length-prefixed framing for every protocol
// message in src/protocol/messages.hpp plus the transport's own frames.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   0       2     magic 0x5443 ("TC")
//   2       1     codec version (kVersion)
//   3       1     message type (MsgType)
//   4       4     from site id
//   8       4     to site id
//   12      4     body length in bytes (<= kMaxBodyBytes)
//   16      n     body (per-type field layout, DESIGN.md section 8)
//
// The (from, to) routing header is what lets one TCP connection multiplex
// many client sites (the load generator) and lets a server reply over
// whichever connection the request arrived on.
//
// There is exactly one codec version: every binary is built from this
// tree, so a frame with any other version byte is kBadVersion and its
// connection is closed.
//
// Decoding is strict and bounds-checked: a decoder never reads past the
// supplied buffer, never allocates more than the buffer could justify, and
// classifies every malformed input as a typed DecodeStatus instead of
// crashing — the property test in tests/wire_test.cpp sweeps truncations,
// corrupted length fields and random byte flips over every message type.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "obs/stats_board.hpp"
#include "protocol/messages.hpp"

namespace timedc::wire {

inline constexpr std::uint16_t kMagic = 0x5443;  // "TC"
/// The codec version; peek_frame accepts no other.
inline constexpr std::uint8_t kVersion = 6;
inline constexpr std::size_t kHeaderBytes = 16;
/// Upper bound on a frame body. Generous: the largest legitimate message is
/// an ObjectCopy with two kMaxClockEntries-wide timestamps (~64 KiB).
inline constexpr std::uint32_t kMaxBodyBytes = 1u << 20;
/// Upper bound on PlausibleTimestamp width accepted off the wire; a forged
/// count can then never force a large allocation or a long copy loop.
inline constexpr std::uint32_t kMaxClockEntries = 4096;

enum class MsgType : std::uint8_t {
  // The eight protocol messages: the Message variant's alternatives, in
  // order. Only these reach Transport handlers.
  kFetchRequest = 1,
  kFetchReply = 2,
  kWriteRequest = 3,
  kWriteAck = 4,
  kValidateRequest = 5,
  kValidateReply = 6,
  kInvalidate = 7,
  kPushUpdate = 8,
  // Transport frames: TcpTransport answers or consumes them itself.
  /// Supervision liveness ping/pong.
  kHeartbeat = 9,
  /// Cristian clock-sync exchange: requests are answered with the
  /// transport's reference time, replies go to the TimeSyncClient.
  kTimeRequest = 10,
  kTimeReply = 11,
  /// Live introspection: a request names one reactor site (or kAllSites);
  /// the answer comes from the lock-free StatsBoard/StatsHub snapshot.
  kStatsRequest = 12,
  kStatsReply = 13,
  /// One node's gossip digest (epoch, ring epoch, member incarnations),
  /// sent at heartbeat cadence.
  kMembership = 14,
  /// One complete protocol frame — header and body verbatim — plus hop
  /// count, serve-here flag and the sender's ring epoch, so a server can
  /// hand a request for a non-owned object to the owner while preserving
  /// the (client, request_id) routing header its WAL dedup and reply path
  /// need.
  kForward = 15,
  /// Registers the sending server as a cacher of one object at its owner
  /// (Section 5.2 push propagation).
  kCacherSubscribe = 16,
  /// Anti-entropy: a warming owner asks a donor for its hash-ring slice
  /// (bounded, cursor-resumable, if-modified-since batched) and installs
  /// the reply records before flipping WARMING -> SERVING.
  kSliceSync = 17,
  kSliceSyncReply = 18,
  /// The admission gate's shed reply: the named request was not served;
  /// retry after the carried hint.
  kOverloaded = 19,
  /// (ring epoch, serving member list), so a peer or owner-aware client
  /// that forwarded under a stale ring can rebuild it locally.
  kRingUpdate = 20,
};

/// The highest MsgType; peek_frame rejects anything above it.
inline constexpr MsgType kLastMsgType = MsgType::kRingUpdate;

enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  kNeedMore,        // buffer holds a valid prefix; wait for more bytes
  kBadMagic,        // not a frame boundary — the stream is corrupt
  kBadVersion,      // peer speaks a different codec version
  kBadType,         // unknown MsgType
  kOversizedBody,   // declared body length exceeds kMaxBodyBytes
  kOversizedClock,  // timestamp entry count exceeds kMaxClockEntries
  kShortBody,       // body ended before the message's fields did
  kTrailingBytes,   // body longer than the message's fields
  kBadField,        // a field holds an illegal value (e.g. bool not 0/1)
};

/// Number of DecodeStatus values, for per-status counter arrays.
inline constexpr std::size_t kDecodeStatusCount =
    static_cast<std::size_t>(DecodeStatus::kBadField) + 1;

/// Inline so header-only consumers (the stats bridge names its
/// net.decode_error.<status> counters with this) need not link timedc_net.
inline const char* to_cstring(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadType: return "bad-type";
    case DecodeStatus::kOversizedBody: return "oversized-body";
    case DecodeStatus::kOversizedClock: return "oversized-clock";
    case DecodeStatus::kShortBody: return "short-body";
    case DecodeStatus::kTrailingBytes: return "trailing-bytes";
    case DecodeStatus::kBadField: return "bad-field";
  }
  return "unknown";
}

/// Transport-level liveness probe carried in a kHeartbeat frame. `reply`
/// distinguishes ping (false) from pong (true); a pong echoes the ping's
/// seq and send_time_us so the sender can match it and measure RTT.
struct Heartbeat {
  std::uint64_t seq = 0;
  std::int64_t send_time_us = 0;
  bool reply = false;
};

/// One leg of a Cristian clock-sync exchange, carried in a kTimeRequest or
/// kTimeReply frame (`reply` selects the MsgType). The client stamps
/// client_send_us from its own hardware clock; the server echoes seq and
/// client_send_us and fills server_time_us with its reference clock, so the
/// client can pair the reply and compute RTT without per-request state.
struct TimeSync {
  std::uint64_t seq = 0;
  std::int64_t client_send_us = 0;
  std::int64_t server_time_us = 0;  // meaningful in replies only
  bool reply = false;
};

/// `target_site` sentinel in a StatsRequest: report every board the
/// answering process registered in its StatsHub.
inline constexpr std::uint32_t kAllSites = 0xffffffffu;
/// Forged-count ceilings for StatsReply decoding: a hostile header can
/// never force a large allocation.
inline constexpr std::uint32_t kMaxStatsBoards = 64;    // = StatsHub capacity
inline constexpr std::uint32_t kMaxStatsEntries = 512;  // >= kNumStatKeys

/// Introspection poll carried in a kStatsRequest frame. The server echoes
/// seq in its reply so a poller can match request/response without state.
struct StatsRequest {
  std::uint64_t seq = 0;
  std::uint32_t target_site = kAllSites;
};

/// Forged-count ceiling for kMembership decoding; matches the cluster
/// size bound a single gossip digest may describe.
inline constexpr std::uint32_t kMaxMembers = 64;

/// One member row of a kMembership gossip digest. `incarnation` is the
/// member's monotonically increasing liveness counter (a restarted process
/// announces a higher incarnation, which dominates any stale suspicion);
/// `status` is 0 = alive, 1 = suspect, 2 = dead.
struct MemberEntry {
  std::uint32_t site = 0;
  std::uint64_t incarnation = 0;
  std::uint8_t status = 0;

  friend bool operator==(const MemberEntry&, const MemberEntry&) = default;
};

/// Cacher registration carried in a kCacherSubscribe frame: the sending
/// server asks the owner of `object` to push writes to `cacher` from now
/// on. `mode` is 0 = invalidate (mark-old; the cacher revalidates with an
/// if-modified-since ValidateRequest) or 1 = update (ship the new copy).
struct CacherSubscribe {
  ObjectId object;
  SiteId cacher;
  std::uint8_t mode = 0;

  friend bool operator==(const CacherSubscribe&,
                         const CacherSubscribe&) = default;
};

/// Forged-count ceiling for kSliceSyncReply decoding: one reply batch can
/// never force a large allocation; donors paginate with next_cursor.
inline constexpr std::uint32_t kMaxSliceRecords = 256;

/// Anti-entropy pull carried in a kSliceSync frame.
/// The requester (frame `from`) asks the donor (frame `to`) for the
/// objects the DONOR's current ring assigns to the requester. `cursor` is
/// the resume point (0 = start; otherwise the last object id already
/// received, exclusive), `if_newer_than_us` skips records whose write time
/// is not strictly newer (0 = everything), and `ring_epoch` is the
/// requester's ring epoch so a donor that has not yet converged on the
/// requester owning anything can answer not-ready instead of an empty
/// (and wrong) done.
struct SliceSyncRequest {
  std::uint64_t seq = 0;
  std::uint64_t ring_epoch = 0;
  std::uint32_t cursor = 0;
  std::uint32_t max_records = kMaxSliceRecords;
  std::int64_t if_newer_than_us = 0;

  friend bool operator==(const SliceSyncRequest&,
                         const SliceSyncRequest&) = default;
};

/// One (object, value, version, write-time, writer identity) record of a
/// kSliceSyncReply. Carrying the ORIGINAL (writer, request_id) lets the
/// requester rebuild its write-dedup slot, so exactly-once survives an
/// ownership move exactly as it survives a WAL replay.
struct SliceRecord {
  std::uint32_t object = 0;
  std::int64_t value = 0;
  std::uint64_t version = 0;
  std::int64_t alpha_us = 0;      // the accepted write's client time (LWW key)
  std::uint32_t writer = 0;       // original client site of the last write
  std::uint64_t request_id = 0;   // that client's request id

  friend bool operator==(const SliceRecord&, const SliceRecord&) = default;
};

/// kSliceSyncReply status byte.
inline constexpr std::uint8_t kSliceMore = 0;      // batch full; resume at next_cursor
inline constexpr std::uint8_t kSliceDone = 1;      // slice exhausted
inline constexpr std::uint8_t kSliceNotReady = 2;  // donor ring older than requester's

/// Admission-shed reply carried in a kOverloaded frame:
/// the request identified by (frame `to`, request_id) was not served; the
/// client should retry no sooner than retry_after_us from receipt.
struct Overloaded {
  std::uint32_t object = 0;
  std::uint64_t request_id = 0;
  std::int64_t retry_after_us = 0;

  friend bool operator==(const Overloaded&, const Overloaded&) = default;
};

/// One decoded row of a kStatsReply body: board site, StatKey, value. The
/// body groups rows per board on the wire; decoding flattens them (site
/// repeats) into a scratch-reused vector.
struct StatsRow {
  std::uint32_t site = 0;
  std::uint16_t key = 0;
  std::int64_t value = 0;

  friend bool operator==(const StatsRow&, const StatsRow&) = default;
};

/// One board's entries for encode_stats_reply_frame.
struct StatsBoardSpan {
  std::uint32_t site = 0;
  std::span<const StatsEntry> entries;
};

/// Append one encoded frame carrying `m` routed from -> to onto `out`.
void encode_frame(SiteId from, SiteId to, const Message& m,
                  std::vector<std::uint8_t>& out);

/// Append one encoded kHeartbeat frame onto `out`.
void encode_heartbeat_frame(SiteId from, SiteId to, const Heartbeat& hb,
                            std::vector<std::uint8_t>& out);

/// Append one encoded kTimeRequest/kTimeReply frame (per ts.reply) onto
/// `out`.
void encode_time_sync_frame(SiteId from, SiteId to, const TimeSync& ts,
                            std::vector<std::uint8_t>& out);

/// Append one encoded kStatsRequest frame onto `out`.
void encode_stats_request_frame(SiteId from, SiteId to,
                                const StatsRequest& rq,
                                std::vector<std::uint8_t>& out);

/// Append one encoded kStatsReply frame carrying `boards` onto `out`.
/// Board and entry counts must respect kMaxStatsBoards/kMaxStatsEntries.
void encode_stats_reply_frame(SiteId from, SiteId to, std::uint64_t seq,
                              std::span<const StatsBoardSpan> boards,
                              std::vector<std::uint8_t>& out);

/// Append one encoded kMembership frame onto `out`. Member count must
/// respect kMaxMembers. `ring_epoch` is the sender's current ring epoch.
void encode_membership_frame(SiteId from, SiteId to, std::uint64_t epoch,
                             std::uint64_t ring_epoch,
                             std::span<const MemberEntry> members,
                             std::vector<std::uint8_t>& out);

/// Append one encoded kForward frame wrapping `inner` (re-encoded with the
/// given inner routing header) onto `out`. The inner from-site should be
/// the original client so the owner's transport learns the return path.
/// `serve_here` forces the receiver to serve the inner request locally
/// even if its ring says otherwise (a WARMING owner's forward-through to
/// the previous owner — the flag is what prevents a forwarding loop);
/// `ring_epoch` stamps the sender's ring epoch so a stale forward can be
/// bounced with a kRingUpdate hint.
void encode_forward_frame(SiteId from, SiteId to, std::uint8_t hops,
                          bool serve_here, std::uint64_t ring_epoch,
                          SiteId inner_from, SiteId inner_to,
                          const Message& inner,
                          std::vector<std::uint8_t>& out);

/// Append one encoded kForward frame wrapping `inner_frame` — one already
/// encoded, complete protocol frame, copied verbatim — onto `out`. This is
/// the zero-decode path: a transport that holds a FrameView of a misrouted
/// request wraps its bytes without materializing the message.
void encode_forward_frame_raw(SiteId from, SiteId to, std::uint8_t hops,
                              bool serve_here, std::uint64_t ring_epoch,
                              std::span<const std::uint8_t> inner_frame,
                              std::vector<std::uint8_t>& out);

/// Append one encoded kSliceSync frame onto `out`.
void encode_slice_sync_frame(SiteId from, SiteId to,
                             const SliceSyncRequest& rq,
                             std::vector<std::uint8_t>& out);

/// Append one encoded kSliceSyncReply frame onto `out`. Record count must
/// respect kMaxSliceRecords; `status` is kSliceMore/kSliceDone/
/// kSliceNotReady and `ring_epoch` is the donor's ring epoch.
void encode_slice_sync_reply_frame(SiteId from, SiteId to, std::uint64_t seq,
                                   std::uint64_t ring_epoch,
                                   std::uint8_t status,
                                   std::uint32_t next_cursor,
                                   std::span<const SliceRecord> records,
                                   std::vector<std::uint8_t>& out);

/// Append one encoded kRingUpdate frame onto `out`: the sender's ring
/// epoch plus the serving member list the deterministic ring is built
/// from. Member count must respect kMaxMembers.
void encode_ring_update_frame(SiteId from, SiteId to, std::uint64_t ring_epoch,
                              std::span<const std::uint32_t> members,
                              std::vector<std::uint8_t>& out);

/// Append one encoded kOverloaded frame onto `out`.
void encode_overloaded_frame(SiteId from, SiteId to, const Overloaded& ov,
                             std::vector<std::uint8_t>& out);

/// Append one encoded kCacherSubscribe frame onto `out`.
void encode_cacher_subscribe_frame(SiteId from, SiteId to,
                                   const CacherSubscribe& cs,
                                   std::vector<std::uint8_t>& out);

/// The exact number of bytes encode_frame appends for `m`.
std::size_t encoded_frame_size(const Message& m);

/// One decoded frame. `type` says which payload fields below the decode
/// filled; the others keep whatever an earlier decode left in them (a
/// transport reuses one DecodedFrame as scratch, so the vectors keep their
/// capacity and steady-state decodes do not allocate).
struct DecodedFrame {
  DecodeStatus status = DecodeStatus::kNeedMore;
  std::size_t consumed = 0;  // frame bytes to drop from the buffer when kOk
  SiteId from;
  SiteId to;
  MsgType type = MsgType::kFetchRequest;
  /// The eight protocol types.
  Message message;
  /// kHeartbeat.
  Heartbeat heartbeat;
  /// kTimeRequest / kTimeReply.
  TimeSync time_sync;
  /// kStatsRequest.
  StatsRequest stats_request;
  /// kStatsReply: rows are flattened per board (site repeats across a
  /// board's rows).
  std::uint64_t stats_seq = 0;
  std::uint32_t stats_boards = 0;
  std::vector<StatsRow> stats_rows;
  /// kMembership.
  std::uint64_t membership_epoch = 0;
  std::uint64_t membership_ring_epoch = 0;
  std::vector<MemberEntry> members;
  /// kForward: forward_inner holds the wrapped frame's bytes (header +
  /// body, themselves a valid protocol frame). The hot path never takes
  /// this copy — it peeks the inner frame straight out of the view body —
  /// but owning decodes (tests, offline tools) do.
  std::uint8_t forward_hops = 0;
  bool forward_serve_here = false;
  std::uint64_t forward_ring_epoch = 0;
  std::vector<std::uint8_t> forward_inner;
  /// kCacherSubscribe.
  CacherSubscribe cacher_subscribe;
  /// kSliceSync.
  SliceSyncRequest slice_sync;
  /// kSliceSyncReply.
  std::uint64_t slice_seq = 0;
  std::uint64_t slice_ring_epoch = 0;
  std::uint8_t slice_status = 0;
  std::uint32_t slice_next_cursor = 0;
  std::vector<SliceRecord> slice_records;
  /// kRingUpdate.
  std::uint64_t ring_update_epoch = 0;
  std::vector<std::uint32_t> ring_members;
  /// kOverloaded.
  Overloaded overloaded;

  bool ok() const { return status == DecodeStatus::kOk; }
};

/// Try to decode one frame from the front of `buf`. kNeedMore means the
/// buffer is a valid proper prefix (read more and retry); every other
/// non-kOk status is a permanent protocol error for this stream.
DecodedFrame decode_frame(std::span<const std::uint8_t> buf);

/// A non-owning view of one wire frame sitting in a receive buffer. Only
/// the 16-byte header has been validated; `body` aliases the buffer the
/// view was peeked from and is valid exactly as long as those bytes stay
/// put — the hot path hands views to handlers and recycles the buffer when
/// the handler returns (DESIGN.md section 11 states the lifetime rule).
///
/// peek_frame() costs a header validation and no allocation, so transport-
/// level routing (dispatch, connection steering) can act on (from, to,
/// type) without materializing the message; decode_frame_view() then does
/// the typed body decode on demand, into a caller-reused DecodedFrame.
struct FrameView {
  DecodeStatus status = DecodeStatus::kNeedMore;
  std::size_t consumed = 0;  // header + body bytes when kOk
  SiteId from;
  SiteId to;
  MsgType type = MsgType::kFetchRequest;  // meaningful when kOk
  std::span<const std::uint8_t> body;

  bool ok() const { return status == DecodeStatus::kOk; }
  /// True for the eight protocol message types (the ones surfaced to
  /// Transport handlers); false for transport-internal frames.
  bool is_protocol() const {
    return type >= MsgType::kFetchRequest && type <= MsgType::kPushUpdate;
  }
};

/// Validate the header of the frame at the front of `buf` without decoding
/// its body: magic, version (exactly kVersion), type, body length. Status
/// semantics match decode_frame for every header-stage outcome
/// (kNeedMore/kBadMagic/kBadVersion/kBadType/kOversizedBody); body-stage
/// errors are only found by decode_frame_view.
FrameView peek_frame(std::span<const std::uint8_t> buf);

/// The complete on-wire bytes (header + body) of a kOk view. Valid exactly
/// as long as the buffer the view was peeked from stays put: the body span
/// aliases that buffer and the header is the kHeaderBytes preceding it.
inline std::span<const std::uint8_t> frame_bytes(const FrameView& view) {
  return {view.body.data() - kHeaderBytes, view.consumed};
}

/// Peek the protocol frame wrapped inside a kOk kForward view, straight out
/// of the outer body (no copy). Returns a kBadField view when the outer
/// body is empty, the inner bytes are not one complete frame filling the
/// remainder, or the inner type is not a protocol message (forwarding never
/// nests and never wraps transport frames).
FrameView peek_forward_inner(const FrameView& outer);

/// The routing metadata in front of a kForward view's wrapped frame:
/// [flags u8: bit 7 serve-here, bits 0-3 hop count][ring epoch u64]. Call
/// only on a view peek_forward_inner accepted; a too-short body yields all
/// zeros.
struct ForwardPrefix {
  std::uint8_t hops = 0;
  bool serve_here = false;
  std::uint64_t ring_epoch = 0;
};
ForwardPrefix peek_forward_prefix(const FrameView& outer);

/// Decode the typed body of a kOk view into `out`, reusing out's storage
/// (a per-connection scratch DecodedFrame keeps the hot path free of
/// per-message allocation: every protocol message whose timestamps are
/// empty — all TSC traffic — decodes without touching the heap). Returns
/// out.status. The composition decode_frame_view(peek_frame(buf)) yields
/// exactly decode_frame(buf)'s status, fields and consumed count; the
/// property test in tests/wire_test.cpp holds the two paths equal.
DecodeStatus decode_frame_view(const FrameView& view, DecodedFrame& out);

}  // namespace timedc::wire
