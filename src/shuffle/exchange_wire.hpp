// Wire format of the PLS exchange: the coalesced frame.
//
// All of an epoch's rounds bound for peer p travel as ONE frame, so the
// per-message costs (mailbox hop, matching scan, allocation) are paid once
// per PEER instead of once per SAMPLE. It is the exchange's only wire.
//
// Frame layout, v2 (little-endian, no padding):
//
//   offset  size            field
//   ------  --------------  ------------------------------------------
//   0       8               epoch     (u64; cross-checked on receive)
//   8       4               origin    (u32; sender rank — trace context,
//                                      cross-checked against the message
//                                      source on receive)
//   12      8               flow id   (u64; the sender's flow/send-span
//                                      id — frame_flow_id(epoch, origin,
//                                      dest). The receiver records its
//                                      recv flow point under this id, so
//                                      merged multi-rank traces draw the
//                                      frame's journey)
//   20      4               count     (u32; samples in this frame)
//   24      4 * (count+1)   offsets   (u32 each, relative to body start;
//                                      offsets[0] == 0, offsets[count]
//                                      == body size — sample j's bytes
//                                      are body[offsets[j], offsets[j+1]))
//   ...     body            per sample: SampleId (u32) + payload bytes
//
// Version note: v1 (PR 5) had no trace context — the origin/flow-id words
// were added in front of count. There is deliberately no version field on
// the wire: the per-epoch tag namespace already guarantees both endpoints
// of a tag window run the same build, and parse_frame's offsets[count] ==
// body-size cross-check rejects a frame framed under the other layout
// loudly rather than silently mis-staging it.
//
// The offsets table makes every sample's bytes addressable without
// parsing its predecessors, so the deposit path hands out std::span views
// straight into the received frame — zero copies, zero allocations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "shuffle/types.hpp"
#include "util/error.hpp"

namespace dshuf::shuffle {

/// Fixed part of a frame: epoch + origin + flow id + count + the
/// (count+1)-entry offset table.
[[nodiscard]] constexpr std::size_t frame_header_bytes(std::size_t count) {
  return sizeof(std::uint64_t) + sizeof(std::uint32_t) +  // epoch, origin
         sizeof(std::uint64_t) + sizeof(std::uint32_t) +  // flow id, count
         sizeof(std::uint32_t) * (count + 1);
}

// Byte offsets of the fixed header fields (see the layout table above).
inline constexpr std::size_t kFrameEpochOff = 0;
inline constexpr std::size_t kFrameOriginOff = 8;
inline constexpr std::size_t kFrameFlowIdOff = 12;
inline constexpr std::size_t kFrameCountOff = 20;
inline constexpr std::size_t kFrameOffsetsOff = 24;

/// Flow id carried by the coalesced frame from `origin` to `dest` in
/// `epoch`: a pure function of seeded protocol state (38/13/13-bit
/// epoch|origin|dest split), so retransmissions reuse the id and golden
/// traces stay byte-identical across runs.
[[nodiscard]] constexpr std::uint64_t frame_flow_id(std::uint64_t epoch,
                                                    int origin, int dest) {
  return (epoch << 26) | (static_cast<std::uint64_t>(origin) << 13) |
         static_cast<std::uint64_t>(dest);
}

/// Incremental frame encoder writing into a caller-provided buffer
/// (typically one acquired from comm::BufferPool). Usage:
///
///   FrameWriter w(buf, epoch, origin, flow_id, count);
///   for each sample: w.begin_sample(id); payload_fn(id, buf);
///   w.finish();
///
/// begin_sample records the running offset and appends the id; any bytes
/// the caller appends to `buf` before the next begin_sample/finish belong
/// to that sample's payload. finish() patches the offset table. Appends
/// within the buffer's reserved capacity never reallocate.
class FrameWriter {
 public:
  FrameWriter(std::vector<std::byte>& buf, std::uint64_t epoch, int origin,
              std::uint64_t flow_id, std::uint32_t count);

  /// Start sample `next` (must be called exactly `count` times).
  void begin_sample(SampleId id);

  /// Patch the offset table; the frame in `buf` is complete after this.
  void finish();

 private:
  std::vector<std::byte>* buf_;
  std::uint32_t count_;
  std::uint32_t next_ = 0;
};

/// Parsed view over a received frame. Does not own the bytes — keep the
/// backing buffer alive while using it.
class FrameView {
 public:
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// Sender rank carried in the trace context.
  [[nodiscard]] std::uint32_t origin() const { return origin_; }
  /// The sender's flow/send-span id (frame_flow_id of this frame).
  [[nodiscard]] std::uint64_t flow_id() const { return flow_id_; }
  [[nodiscard]] std::uint32_t count() const { return count_; }

  /// SampleId of sample `j`.
  [[nodiscard]] SampleId id(std::uint32_t j) const;
  /// Payload bytes of sample `j` (view into the frame; may be empty).
  [[nodiscard]] std::span<const std::byte> payload(std::uint32_t j) const;

 private:
  friend FrameView parse_frame(std::span<const std::byte> frame);
  std::uint64_t epoch_ = 0;
  std::uint32_t origin_ = 0;
  std::uint64_t flow_id_ = 0;
  std::uint32_t count_ = 0;
  const std::byte* offsets_ = nullptr;  // start of the offset table
  const std::byte* body_ = nullptr;     // start of the packed samples
  std::size_t body_size_ = 0;

  [[nodiscard]] std::uint32_t offset(std::uint32_t j) const;
};

/// Validate and parse a frame. Truncated or inconsistent frames (short
/// header, offsets out of range or non-monotonic, sample shorter than its
/// SampleId) fail a DSHUF_CHECK — a corrupt frame must never be staged.
[[nodiscard]] FrameView parse_frame(std::span<const std::byte> frame);

}  // namespace dshuf::shuffle
