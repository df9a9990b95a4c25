#include "shuffle/exchange_wire.hpp"

#include <cstring>

namespace dshuf::shuffle {

namespace {

void put_u32(std::vector<std::byte>& buf, std::size_t at, std::uint32_t v) {
  std::memcpy(buf.data() + at, &v, sizeof(v));
}

void append_u32(std::vector<std::byte>& buf, std::uint32_t v) {
  const std::size_t at = buf.size();
  // Frame buffers are reserved to frame_capacity_bound ahead of packing,
  // so steady-state growth here stays within capacity.
  // analyze:alloc-ok buffer reserved to frame_capacity_bound ahead of time
  buf.resize(at + sizeof(v));
  std::memcpy(buf.data() + at, &v, sizeof(v));
}

std::uint32_t read_u32(const std::byte* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

FrameWriter::FrameWriter(std::vector<std::byte>& buf, std::uint64_t epoch,
                         int origin, std::uint64_t flow_id,
                         std::uint32_t count)
    : buf_(&buf), count_(count) {
  // analyze:alloc-ok frame buffers are reserved to frame_capacity_bound
  buf.resize(frame_header_bytes(count));
  std::memcpy(buf.data() + kFrameEpochOff, &epoch, sizeof(epoch));
  put_u32(buf, kFrameOriginOff, static_cast<std::uint32_t>(origin));
  std::memcpy(buf.data() + kFrameFlowIdOff, &flow_id, sizeof(flow_id));
  put_u32(buf, kFrameCountOff, count);
  // The offset table is patched in finish(); zero it now so a frame that
  // skips finish() is caught by parse_frame's monotonicity check.
  std::memset(buf.data() + kFrameOffsetsOff, 0,
              sizeof(std::uint32_t) * (count + 1));
}

void FrameWriter::begin_sample(SampleId id) {
  DSHUF_CHECK_LT(next_, count_, "FrameWriter: more samples than declared");
  const auto body_off =
      static_cast<std::uint32_t>(buf_->size() - frame_header_bytes(count_));
  put_u32(*buf_, kFrameOffsetsOff + sizeof(std::uint32_t) * next_, body_off);
  append_u32(*buf_, id);
  ++next_;
}

void FrameWriter::finish() {
  DSHUF_CHECK_EQ(next_, count_, "FrameWriter: fewer samples than declared");
  const auto body_size =
      static_cast<std::uint32_t>(buf_->size() - frame_header_bytes(count_));
  put_u32(*buf_, kFrameOffsetsOff + sizeof(std::uint32_t) * count_, body_size);
}

std::uint32_t FrameView::offset(std::uint32_t j) const {
  return read_u32(offsets_ + sizeof(std::uint32_t) * j);
}

SampleId FrameView::id(std::uint32_t j) const {
  DSHUF_CHECK_LT(j, count_, "frame sample index out of range");
  return read_u32(body_ + offset(j));
}

std::span<const std::byte> FrameView::payload(std::uint32_t j) const {
  DSHUF_CHECK_LT(j, count_, "frame sample index out of range");
  const std::uint32_t lo = offset(j);
  const std::uint32_t hi = offset(j + 1);
  return {body_ + lo + sizeof(SampleId), hi - lo - sizeof(SampleId)};
}

FrameView parse_frame(std::span<const std::byte> frame) {
  DSHUF_CHECK_GE(frame.size(), frame_header_bytes(0),
                 "truncated exchange frame: short header");
  FrameView v;
  std::memcpy(&v.epoch_, frame.data() + kFrameEpochOff, sizeof(v.epoch_));
  v.origin_ = read_u32(frame.data() + kFrameOriginOff);
  std::memcpy(&v.flow_id_, frame.data() + kFrameFlowIdOff,
              sizeof(v.flow_id_));
  v.count_ = read_u32(frame.data() + kFrameCountOff);
  const std::size_t header = frame_header_bytes(v.count_);
  DSHUF_CHECK_GE(frame.size(), header,
                 "truncated exchange frame: offset table cut off");
  v.offsets_ = frame.data() + kFrameOffsetsOff;
  v.body_ = frame.data() + header;
  v.body_size_ = frame.size() - header;
  DSHUF_CHECK_EQ(static_cast<std::size_t>(v.offset(0)), 0U,
                 "corrupt exchange frame: first offset not zero");
  DSHUF_CHECK_EQ(static_cast<std::size_t>(v.offset(v.count_)), v.body_size_,
                 "truncated exchange frame: body size mismatch");
  for (std::uint32_t j = 0; j < v.count_; ++j) {
    DSHUF_CHECK(v.offset(j) + sizeof(SampleId) <= v.offset(j + 1) &&
                    v.offset(j + 1) <= v.body_size_,
                "corrupt exchange frame: sample " << j << " offsets ["
                    << v.offset(j) << ", " << v.offset(j + 1)
                    << ") invalid for body of " << v.body_size_ << " bytes");
  }
  return v;
}

}  // namespace dshuf::shuffle
