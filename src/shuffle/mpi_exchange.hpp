// Message-passing execution of Algorithm 1.
//
// This is the paper's exchange as it would run on MPI: the destination
// permutations come from the SHARED-seed ExchangePlan, which every rank
// can derive locally — no global coordination is exchanged, only samples.
// Ranks in one process share one copy per epoch (acquire_exchange_plan).
//
// All of an epoch's rounds bound for peer p travel as ONE coalesced frame
// (header + packed ids + payloads; see shuffle/exchange_wire.hpp), so an
// epoch costs O(peers) messages instead of O(quota). Frames pack into
// pooled comm buffers and the deposit path hands out span views into the
// received frame — with a warmed-up ExchangeScratch the fast path performs
// zero heap allocations per epoch.
//
// Two execution modes:
//
//   * Fast path (robust == nullptr): fire-and-wait (Algorithm 1 lines
//     2-7). Assumes a perfect fabric; refuses to run over a World with
//     fault injection enabled.
//   * Robust path (pass an ExchangeRobustness): DATA/ACK per peer frame
//     with retry + exponential backoff, receive deadlines, duplicate
//     suppression, and an end-of-epoch reconciliation over the reliable
//     control plane (collectives). Commit decisions are NOT taken from
//     ACKs (those are lossy too) but from the receivers' received-bitmaps,
//     allgathered reliably at epoch end. A frame that exhausts its budget
//     falls back to keeping its samples at the SENDER (LS fallback); the
//     receiver's word is the single source of truth, so sender and
//     receiver always agree and no sample is ever lost or duplicated,
//     whatever the fault schedule. With no drops (delay/reorder/
//     duplication only) every frame commits and the result is
//     bit-identical to the fault-free exchange and to the sequential
//     PartialLocalShuffler.
//
// The sequential PartialLocalShuffler computes the same exchange without
// threads — with or without a Topology — and is the reference the test
// suite holds this executor to, shard for shard.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>

#include "comm/comm.hpp"
#include "obs/trace.hpp"
#include "shuffle/exchange_plan.hpp"
#include "shuffle/exchange_wire.hpp"
#include "shuffle/shard_store.hpp"
#include "shuffle/types.hpp"
#include "util/log.hpp"

namespace dshuf::shuffle {

/// Optional payload provider: APPENDS the serialized bytes of a sample to
/// `out` (which already holds the wire prefix — never resize it
/// downward). Writing into the caller's buffer lets the exchange pack
/// frames without an intermediate vector per sample. When null, messages
/// carry only the 4-byte sample id.
using PayloadFn = std::function<void(SampleId, std::vector<std::byte>& out)>;
/// Optional payload consumer invoked for each received sample. The span
/// points into the received wire buffer — copy it out if it must outlive
/// the call.
using DepositFn = std::function<void(SampleId, std::span<const std::byte>)>;

/// Retry/timeout budget for the robust exchange. Defaults are sized for
/// the in-process fabric with injected delays up to a few milliseconds;
/// scale them together with the fault magnitudes.
struct ExchangeRobustness {
  /// How long to wait for a DATA message's ACK before retransmitting it.
  std::chrono::microseconds ack_timeout{std::chrono::milliseconds(40)};
  /// Total DATA transmissions per frame (first send + retries).
  int max_attempts = 4;
  /// Multiplier applied to ack_timeout after each retransmission.
  double backoff = 2.0;
  /// Budget for incoming samples, measured from the start of the epoch's
  /// exchange; expiry marks the frame's rounds as receive fallbacks.
  std::chrono::microseconds recv_deadline{std::chrono::milliseconds(500)};
  /// Sleep between progress-loop scans.
  std::chrono::microseconds poll_interval{std::chrono::microseconds(200)};
};

/// Per-rank result of one epoch's exchange.
struct ExchangeOutcome {
  std::size_t rounds = 0;             ///< quota for this epoch
  std::size_t sends_committed = 0;    ///< our samples the receiver got
  std::size_t send_fallbacks = 0;     ///< our samples kept local (LS fallback)
  std::size_t recvs_committed = 0;    ///< samples we received and staged
  std::size_t recv_fallbacks = 0;     ///< expected samples that never came
  std::size_t retries = 0;            ///< DATA retransmissions (per message)
  std::size_t duplicates_suppressed = 0;  ///< redundant sample copies discarded
  std::size_t strays_drained = 0;     ///< late/duplicate messages drained
  /// Point-to-point messages sent (DATA first attempts + retransmits +
  /// ACKs) — in lockstep with the comm.isend counter.
  std::size_t msgs_sent = 0;
  /// First-attempt wire framing bytes: frame headers/offset tables and the
  /// 4-byte sample ids.
  std::size_t bytes_header = 0;
  /// First-attempt sample payload bytes — the quantity the analytic
  /// traffic model (shuffle/traffic.hpp) prices as Q * D / M per worker.
  std::size_t bytes_body = 0;
  std::size_t bytes_sent = 0;  ///< DATA bytes on the wire, retransmits included
  /// First-attempt DATA bytes only (== bytes_header + bytes_body).
  /// Independent of the fault schedule, so trace attributes built from it
  /// are reproducible.
  std::size_t bytes_offered = 0;

  /// Merge into epoch stats (aggregates across ranks).
  void accumulate_into(ExchangeStats& stats) const {
    stats.retries += retries;
    stats.send_fallbacks += send_fallbacks;
    stats.recv_fallbacks += recv_fallbacks;
    stats.duplicates_suppressed += duplicates_suppressed;
  }
};

/// Reusable per-rank working storage for run_pls_exchange_epoch. Optional:
/// passing the same instance every epoch lets the exchange reuse the
/// routing lists and staging cursors, which — together with the comm
/// buffer pool and the recycled plan-cache entries — is what makes the
/// steady-state fast path allocation-free (tests/test_exchange_alloc.cpp
/// asserts the zero).
///
/// Peer routing is a CSR over the peers that actually exchange traffic
/// with this rank (at most min(M, quota) of them), NOT dense over all M
/// ranks: at M=4096 a dense per-peer layout costs O(M) per rank = O(M^2)
/// across the world, which is what previously made paper-scale worlds
/// unrepresentable. All peer-indexed arrays below are indexed by SLOT
/// (position in send_peers / recv_peers, each sorted ascending by rank).
struct ExchangeScratch {
  SharedPlan plan;  ///< the epoch's plan, shared by every rank
  std::vector<std::uint32_t> picks;
  std::vector<SampleId> outgoing;
  std::vector<int> send_peers;  ///< ranks we send a frame to, ascending
  std::vector<int> recv_peers;  ///< ranks that send us a frame, ascending
  std::vector<std::uint32_t> send_off;  ///< [slot] -> send_rounds range
  std::vector<std::uint32_t> recv_off;  ///< [slot] -> recv_rounds range
  std::vector<std::uint32_t> send_rounds;  ///< grouped by slot, round order
  std::vector<std::uint32_t> recv_rounds;  ///< grouped by slot, round order
  std::vector<std::pair<int, std::uint32_t>> route_pairs;  ///< build scratch
  std::vector<std::uint32_t> round_slot;  ///< [round] -> recv slot of source
  std::vector<comm::Message> frames;      ///< received, [recv slot]
  std::vector<FrameView> views;           ///< parsed, [recv slot]
  std::vector<std::uint32_t> cursor;      ///< staging, [recv slot]
  /// Largest per-sample payload seen; sizes the pooled-buffer capacity
  /// hint so a steady-state epoch can never outgrow its frame buffer.
  std::size_t payload_high_water = 0;
};

/// Run one epoch of the PLS exchange for THIS rank. `store` is the rank's
/// local shard store; `global_min_shard` must be the minimum shard size
/// across ranks (all ranks already know it — shard sizes are static on a
/// perfect fabric, and under faults the chaos harness re-agrees on it via
/// a collective). After return the store holds the post-exchange shard
/// (received samples added, committed-transmitted ones removed) but is NOT
/// locally re-shuffled; the caller owns that step. Pass `robust` to enable
/// the retry/timeout protocol (required when the World injects faults),
/// `scratch` to reuse working storage across epochs, and a `topology` of
/// more than one group to exchange through the grouped plan of Section V-F
/// (plan_spec_for); every rank must pass the same one.
ExchangeOutcome run_pls_exchange_epoch(
    comm::Communicator& comm, ShardStore& store, std::uint64_t seed,
    std::size_t epoch, double q, std::size_t global_min_shard,
    const PayloadFn& payload = nullptr, const DepositFn& deposit = nullptr,
    const ExchangeRobustness* robust = nullptr,
    ExchangeScratch* scratch = nullptr,
    const std::optional<Topology>& topology = std::nullopt);

/// Split-phase epoch exchange — the overlap primitive: post() fires this
/// rank's outgoing frames as asynchronous sends, the caller runs its batch
/// compute, and finish() collects/reconciles once the compute is done, so
/// frame transit hides under compute instead of serialising after it (the
/// paper's "shuffling cost judged against its overlap with training").
/// run_pls_exchange_epoch is exactly construct + post + finish
/// back-to-back, and both produce bit-identical shards.
///
/// Thread contract: construct and finish() on the RANK's thread (they
/// touch the rank's log context, trace track, and blocking receives);
/// post() may run on any thread but must have RETURNED before finish() is
/// called. The payload/deposit/robust/scratch pointers are borrowed: the
/// caller keeps them alive until finish() returns. Robust retry/deadline
/// clocks are anchored at finish() entry, not at post(), so a long compute
/// phase between the two never burns the retry budget or expires the
/// receive deadline.
///
/// The "exchange.epoch" span opens at construction and closes at
/// finish(), so in an overlapped epoch it brackets the whole in-flight
/// window — which is precisely what the dshuf_trace overlap report
/// intersects with compute spans to measure hidden exchange time.
class PlsEpochExchange {
 public:
  PlsEpochExchange(comm::Communicator& comm, ShardStore& store,
                   std::uint64_t seed, std::size_t epoch, double q,
                   std::size_t global_min_shard,
                   const PayloadFn* payload = nullptr,
                   const DepositFn* deposit = nullptr,
                   const ExchangeRobustness* robust = nullptr,
                   ExchangeScratch* scratch = nullptr,
                   const std::optional<Topology>& topology = std::nullopt);
  PlsEpochExchange(const PlsEpochExchange&) = delete;
  PlsEpochExchange& operator=(const PlsEpochExchange&) = delete;

  /// Pack and fire this rank's outgoing frames (first attempts only).
  void post();

  /// Collect incoming frames, stage them, reconcile (robust mode), fold
  /// the obs counters, and return the epoch's outcome. Must follow
  /// post().
  ExchangeOutcome finish();

  /// True when the epoch exchanges nothing (quota 0 or a single rank);
  /// post()/finish() are then no-ops returning a default outcome.
  [[nodiscard]] bool trivial() const { return trivial_; }

 private:
  // Robust-mode per-peer state, slot-indexed (send slots and recv slots
  // separately — see ExchangeScratch's CSR layout). Retry clocks are
  // Communicator::now_us() microseconds, so the same protocol runs on wall
  // time under the threaded world and on virtual time under the
  // event-driven one.
  struct SendPeer {
    bool done = false;
    int attempts = 0;
    std::uint64_t next_retry_us = 0;
  };
  struct RecvPeer {
    bool done = false;
    bool ok = false;
  };

  void finish_fast();
  void finish_robust();
  [[nodiscard]] const PayloadFn& payload_fn() const;
  [[nodiscard]] const DepositFn& deposit_fn() const;

  comm::Communicator& comm_;
  ShardStore& store_;
  std::size_t epoch_;
  int rank_ = 0;
  int m_ = 0;
  std::size_t quota_ = 0;
  std::uint64_t tag_base_ = 0;
  std::size_t frame_cap_ = 0;
  const PayloadFn* payload_;
  const DepositFn* deposit_;
  const ExchangeRobustness* robust_;
  ExchangeScratch own_scratch_;  // used only when the caller passes none
  ExchangeScratch* s_;
  ExchangeOutcome out_;
  std::optional<ScopedLogContext> log_ctx_;
  std::optional<obs::SpanGuard> epoch_span_;
  // Robust-mode state (left empty on the fast path), slot-indexed.
  std::vector<SendPeer> send_state_;           // [send slot]
  std::vector<RecvPeer> recv_state_;           // [recv slot]
  std::vector<char> frame_ok_;                 // [recv slot]
  std::vector<std::vector<std::byte>> wires_;  // masters, [send slot]
  bool trivial_ = true;
  bool posted_ = false;
  bool finished_ = false;
};

}  // namespace dshuf::shuffle
