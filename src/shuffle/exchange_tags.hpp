// Per-epoch tag-space helpers for the PLS exchange.
//
// Tag layout: each epoch owns a disjoint window of 2 * (quota + workers)
// tags starting at epoch_tag_base(). The coalesced frame ORIGINATING at
// rank p travels on base + 2*quota + 2p, its acknowledgement on the
// adjacent odd tag. Keying frame tags by the DATA frame's origin (not the
// destination) lets the receiver match "the frame from peer p" with a
// plain (source, tag) receive, and the sender match p's ACK of its own
// frame the same way.
//
// The first 2*quota tags of every window are reserved and unused (they
// carried the retired one-message-per-sample wire). They stay reserved
// because the fault injector decides each message's fate from a hash of
// (source, dest, tag, attempt) (comm/fault.hpp): moving the frame tags
// would reseed every recorded chaos schedule.
//
// Disjoint per peer AND per epoch, so duplicate copies, retransmissions,
// and stale messages that escape an epoch's drain can never match another
// peer's or epoch's receive — an escapee is caught by World::check_drained
// instead of silently corrupting the exchange.
//
// Every isend/irecv in exchange code must derive its tag through these
// helpers; dshuf_lint (tools/dshuf_lint) rejects raw tag literals.
#pragma once

#include <cstdint>
#include <limits>

#include "util/error.hpp"

namespace dshuf::shuffle {

/// Width of one epoch's tag window: 2*quota reserved tags followed by
/// 2*workers per-peer frame tags.
[[nodiscard]] inline std::uint64_t epoch_tag_span(std::size_t quota,
                                                  int workers) {
  return 2ull * (quota + static_cast<std::uint64_t>(workers));
}

/// First tag of `epoch`'s window. Checks the whole window still fits in
/// the (int-typed) tag space.
[[nodiscard]] inline std::uint64_t epoch_tag_base(std::size_t epoch,
                                                  std::size_t quota,
                                                  int workers) {
  const std::uint64_t span = epoch_tag_span(quota, workers);
  const std::uint64_t base = epoch * span;
  DSHUF_CHECK_LE(base + span,
                 static_cast<std::uint64_t>(std::numeric_limits<int>::max()),
                 "exchange tag space exhausted (epoch * quota too large)");
  return base;
}

/// Tag carrying the coalesced DATA frame that rank `origin` sends this
/// epoch (one frame per destination peer, all on the origin's tag — the
/// receiver disambiguates by source rank).
[[nodiscard]] inline int frame_data_tag(std::uint64_t tag_base,
                                        std::size_t quota, int origin) {
  return static_cast<int>(tag_base + 2 * quota +
                          2 * static_cast<std::uint64_t>(origin));
}

/// Tag acknowledging rank `origin`'s coalesced frame (sent back to the
/// origin by the frame's receiver).
[[nodiscard]] inline int frame_ack_tag(std::uint64_t tag_base,
                                       std::size_t quota, int origin) {
  return frame_data_tag(tag_base, quota, origin) + 1;
}

/// True iff `tag` is a coalesced-frame DATA tag inside this epoch's
/// window.
[[nodiscard]] inline bool is_epoch_frame_data_tag(int tag,
                                                  std::uint64_t tag_base,
                                                  std::size_t quota,
                                                  int workers) {
  if (tag < 0) return false;
  const auto t = static_cast<std::uint64_t>(tag);
  const std::uint64_t lo = tag_base + 2 * quota;
  const std::uint64_t hi = tag_base + epoch_tag_span(quota, workers);
  return t >= lo && t < hi && (t - lo) % 2 == 0;
}

/// Origin rank of a coalesced-frame DATA tag; only valid when
/// is_epoch_frame_data_tag(tag, ...).
[[nodiscard]] inline int origin_of_frame_data_tag(int tag,
                                                  std::uint64_t tag_base,
                                                  std::size_t quota) {
  return static_cast<int>(
      (static_cast<std::uint64_t>(tag) - tag_base - 2 * quota) / 2);
}

}  // namespace dshuf::shuffle
