#include "shuffle/mpi_exchange.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "shuffle/exchange_tags.hpp"
#include "shuffle/shuffler.hpp"
#include "util/log.hpp"
#include "util/noalloc.hpp"

namespace dshuf::shuffle {

namespace {

// Point s.plan at this epoch's plan in the process-wide cache, which
// builds it once for all ranks. The shape comes from the topology (see
// plan_spec_for).
const ExchangePlan& plan_for_epoch(std::uint64_t seed, std::size_t epoch,
                                   int m, std::size_t quota,
                                   const std::optional<Topology>& topology,
                                   ExchangeScratch& s) {
  acquire_exchange_plan(plan_spec_for(seed, epoch, m, quota, topology),
                        s.plan);
  return *s.plan;
}

// Fill one CSR side (peers / off / rounds) from (peer, round) pairs.
// Sorting by (peer, round) groups rounds by peer while keeping round order
// within each peer — exactly the iteration order the dense layout had.
void fill_csr_side(std::vector<std::pair<int, std::uint32_t>>& pairs,
                   std::vector<int>& peers, std::vector<std::uint32_t>& off,
                   std::vector<std::uint32_t>& rounds) {
  std::sort(pairs.begin(), pairs.end());
  peers.clear();
  off.clear();
  rounds.clear();
  for (const auto& [peer, round] : pairs) {
    if (peers.empty() || peers.back() != peer) {
      peers.push_back(peer);
      off.push_back(static_cast<std::uint32_t>(rounds.size()));
    }
    rounds.push_back(round);
  }
  off.push_back(static_cast<std::uint32_t>(rounds.size()));
}

// Group the epoch's rounds by peer into the scratch's CSR routing: slot k
// of send_peers/recv_peers exchanges the rounds in the [off[k], off[k+1])
// slice, in round order. Only peers with traffic appear — the map is
// O(quota), not O(M), which is what lets 4096-rank worlds fit in memory.
void build_peer_routing(const ExchangePlan& plan, int rank,
                        std::size_t quota, ExchangeScratch& s) {
  auto& pairs = s.route_pairs;
  pairs.resize(quota);  // analyze:alloc-ok amortised into retained capacity
  for (std::size_t i = 0; i < quota; ++i) {
    pairs[i] = {plan.dest(i, rank), static_cast<std::uint32_t>(i)};
  }
  fill_csr_side(pairs, s.send_peers, s.send_off, s.send_rounds);
  for (std::size_t i = 0; i < quota; ++i) {
    pairs[i] = {plan.source(i, rank), static_cast<std::uint32_t>(i)};
  }
  fill_csr_side(pairs, s.recv_peers, s.recv_off, s.recv_rounds);
  // Invert: which recv slot serves each round (staging walks rounds).
  s.round_slot.resize(quota);  // analyze:alloc-ok amortised as above
  for (std::size_t k = 0; k + 1 < s.recv_off.size(); ++k) {
    for (std::uint32_t j = s.recv_off[k]; j < s.recv_off[k + 1]; ++j) {
      s.round_slot[s.recv_rounds[j]] = static_cast<std::uint32_t>(k);
    }
  }
}

// Rounds a slot receives (count for the frame cross-check).
std::size_t recv_slot_count(const ExchangeScratch& s, std::size_t slot) {
  return s.recv_off[slot + 1] - s.recv_off[slot];
}

// Recv slot of origin rank `p`, or npos when p sends us nothing this
// epoch (stray-drain bookkeeping needs the miss case).
std::size_t recv_slot_of(const ExchangeScratch& s, int p) {
  const auto it =
      std::lower_bound(s.recv_peers.begin(), s.recv_peers.end(), p);
  if (it == s.recv_peers.end() || *it != p) {
    return static_cast<std::size_t>(-1);
  }
  return static_cast<std::size_t>(it - s.recv_peers.begin());
}

// Capacity hint for a pooled frame buffer: the largest frame this epoch
// could produce (all quota rounds to one peer, every payload at the high
// water mark). Acquiring at this bound means a steady-state epoch never
// outgrows its buffer, so packing never reallocates.
std::size_t frame_capacity_bound(std::size_t quota, std::size_t payload_high) {
  return frame_header_bytes(quota) +
         quota * (sizeof(SampleId) + payload_high);
}

// Pack this rank's frame for peer `dest` into `buf` and account the
// bytes. The header carries the trace context (origin + flow id), so a
// retransmission of the same buffer propagates the same context. Returns
// the number of samples packed.
DSHUF_NOALLOC std::size_t pack_frame_for_peer(
    std::vector<std::byte>& buf, std::size_t epoch, int origin, int dest,
    std::span<const std::uint32_t> rounds, const PayloadFn& payload,
    ExchangeScratch& s, ExchangeOutcome& out) {
  FrameWriter writer(buf, static_cast<std::uint64_t>(epoch), origin,
                     frame_flow_id(epoch, origin, dest),
                     static_cast<std::uint32_t>(rounds.size()));
  for (std::uint32_t i : rounds) {
    writer.begin_sample(s.outgoing[i]);
    const std::size_t before = buf.size();
    if (payload) payload(s.outgoing[i], buf);
    const std::size_t body = buf.size() - before;
    if (body > s.payload_high_water) s.payload_high_water = body;
    out.bytes_body += body;
  }
  writer.finish();
  out.bytes_header +=
      frame_header_bytes(rounds.size()) + rounds.size() * sizeof(SampleId);
  return rounds.size();
}

// The [off[k], off[k+1]) slice of a CSR side as a span.
std::span<const std::uint32_t> csr_slice(
    const std::vector<std::uint32_t>& rounds,
    const std::vector<std::uint32_t>& off, std::size_t slot) {
  return std::span<const std::uint32_t>(rounds).subspan(
      off[slot], off[slot + 1] - off[slot]);
}

// Parse + sanity-check a received frame before anything is staged, and
// record the receive endpoint of the frame's flow under the id the sender
// put on the wire — this is where the propagated trace context closes the
// cross-rank arrow. `self` is the receiving rank.
FrameView checked_frame_view(const comm::Message& msg, std::size_t epoch,
                             std::size_t expected_count, int peer, int self) {
  FrameView view = parse_frame(msg.payload);
  DSHUF_CHECK_EQ(view.epoch(), static_cast<std::uint64_t>(epoch),
                 "frame from rank " << peer << " belongs to another epoch");
  DSHUF_CHECK_EQ(static_cast<std::size_t>(view.origin()),
                 static_cast<std::size_t>(peer),
                 "frame trace context names origin " << view.origin()
                     << " but arrived from rank " << peer);
  DSHUF_CHECK_EQ(static_cast<std::size_t>(view.count()), expected_count,
                 "frame from rank " << peer
                                    << " disagrees with the exchange plan");
  DSHUF_CHECK_EQ(view.flow_id(), frame_flow_id(epoch, peer, self),
                 "frame from rank " << peer << " carries a foreign flow id");
  auto& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    tracer.flow_point("exchange.frame", view.flow_id(),
                      obs::FlowPhase::kFinish,
                      {{"epoch", std::to_string(epoch)}});
  }
  return view;
}

// Stage every received sample into the store in ROUND order — the same
// per-store append order the sequential driver produces — handing the
// deposit a span view into the frame. Cursor[slot] walks that slot's
// frame in lockstep because its recv_rounds slice is itself in round
// order.
std::size_t stage_frames_in_round_order(ShardStore& store, std::size_t quota,
                                        const DepositFn& deposit,
                                        ExchangeScratch& s,
                                        const std::vector<char>* frame_ok) {
  std::size_t staged = 0;
  s.cursor.assign(s.views.size(), 0);
  for (std::size_t i = 0; i < quota; ++i) {
    const auto slot = static_cast<std::size_t>(s.round_slot[i]);
    if (frame_ok != nullptr && (*frame_ok)[slot] == 0) continue;
    const std::uint32_t j = s.cursor[slot]++;
    const SampleId got = s.views[slot].id(j);
    store.add(got);
    ++staged;
    if (deposit) deposit(got, s.views[slot].payload(j));
  }
  return staged;
}

// Retry backoff for attempt `attempts` (the one just sent), in the
// communicator's microsecond clock.
std::uint64_t backoff_us(const ExchangeRobustness& robust, int attempts) {
  return static_cast<std::uint64_t>(
      static_cast<double>(robust.ack_timeout.count()) *
      std::pow(robust.backoff, attempts - 1));
}

// Fold the outcome into the process-wide registry; the per-field names
// mirror ExchangeOutcome so ExchangeStats aggregates and counters can be
// cross-checked exactly.
void fold_outcome_counters(const ExchangeOutcome& out) {
  DSHUF_COUNTER("exchange.epochs").add();
  DSHUF_COUNTER("exchange.rounds").add(out.rounds);
  DSHUF_COUNTER("exchange.sends_committed").add(out.sends_committed);
  DSHUF_COUNTER("exchange.send_fallbacks").add(out.send_fallbacks);
  DSHUF_COUNTER("exchange.recvs_committed").add(out.recvs_committed);
  DSHUF_COUNTER("exchange.recv_fallbacks").add(out.recv_fallbacks);
  DSHUF_COUNTER("exchange.retries").add(out.retries);
  DSHUF_COUNTER("exchange.duplicates_suppressed")
      .add(out.duplicates_suppressed);
  DSHUF_COUNTER("exchange.strays_drained").add(out.strays_drained);
  DSHUF_COUNTER("exchange.msgs").add(out.msgs_sent);
  DSHUF_COUNTER("exchange.bytes.header").add(out.bytes_header);
  DSHUF_COUNTER("exchange.bytes.body").add(out.bytes_body);
  DSHUF_COUNTER("exchange.bytes_sent").add(out.bytes_sent);
}

}  // namespace

PlsEpochExchange::PlsEpochExchange(comm::Communicator& comm,
                                   ShardStore& store, std::uint64_t seed,
                                   std::size_t epoch, double q,
                                   std::size_t global_min_shard,
                                   const PayloadFn* payload,
                                   const DepositFn* deposit,
                                   const ExchangeRobustness* robust,
                                   ExchangeScratch* scratch,
                                   const std::optional<Topology>& topology)
    : comm_(comm),
      store_(store),
      epoch_(epoch),
      payload_(payload),
      deposit_(deposit),
      robust_(robust),
      s_(scratch != nullptr ? scratch : &own_scratch_) {
  rank_ = comm.rank();
  m_ = comm.size();
  quota_ = exchange_quota(global_min_shard, q);
  trivial_ = quota_ == 0 || m_ <= 1;
  if (trivial_) return;

  if (robust_ == nullptr) {
    DSHUF_CHECK(!comm.fault_injection_enabled(),
                "the fast-path exchange cannot survive fault injection — "
                "pass an ExchangeRobustness budget");
  } else {
    DSHUF_CHECK_GT(robust_->max_attempts, 0, "need at least one send attempt");
  }

  // Spans from this rank thread land on their own trace lane, and every
  // log line it emits carries the (rank, epoch) it was working for. The
  // epoch span stays open until finish() — in an overlapped epoch it
  // brackets the whole in-flight window (see the header note).
  obs::Tracer::set_thread_track(rank_);
  if (obs::Tracer::instance().enabled()) {
    obs::Tracer::set_thread_name("rank " + std::to_string(rank_));
  }
  log_ctx_.emplace(rank_, static_cast<std::int64_t>(epoch));
  epoch_span_.emplace("exchange.epoch");
  epoch_span_->attr("epoch", std::to_string(epoch))
      .attr("rank", std::to_string(rank_));

  // Every rank uses the identical plan derived from the shared seed —
  // Algorithm 1's "all workers use the same random seed" — built once per
  // process (see plan_for_epoch). The scratch (a caller-provided one in
  // the steady state) reuses last epoch's routing tables.
  ExchangeScratch& s = *s_;
  const ExchangePlan& plan =
      plan_for_epoch(seed, epoch, m_, quota_, topology, s);
  pick_outgoing_into(seed, epoch, rank_, store.ids(), quota_, s.picks,
                     s.outgoing);

  tag_base_ = epoch_tag_base(epoch, quota_, m_);
  out_.rounds = quota_;
  build_peer_routing(plan, rank_, quota_, s);
  frame_cap_ = frame_capacity_bound(quota_, s.payload_high_water);
  s.frames.resize(s.recv_peers.size());
  s.views.resize(s.recv_peers.size());
  if (robust_ != nullptr) {
    send_state_.assign(s.send_peers.size(), SendPeer{});
    recv_state_.assign(s.recv_peers.size(), RecvPeer{});
    frame_ok_.assign(s.recv_peers.size(), 0);
    wires_.resize(s.send_peers.size());
  }
}

const PayloadFn& PlsEpochExchange::payload_fn() const {
  static const PayloadFn kNoPayload;
  return payload_ != nullptr ? *payload_ : kNoPayload;
}

const DepositFn& PlsEpochExchange::deposit_fn() const {
  static const DepositFn kNoDeposit;
  return deposit_ != nullptr ? *deposit_ : kNoDeposit;
}

void PlsEpochExchange::post() {
  DSHUF_CHECK(!posted_, "PlsEpochExchange::post() called twice");
  posted_ = true;
  if (trivial_) return;
  obs::SpanGuard post_span("exchange.post");
  post_span.attr("epoch", std::to_string(epoch_))
      .attr("rank", std::to_string(rank_));
  ExchangeScratch& s = *s_;
  const PayloadFn& payload = payload_fn();

  auto& tracer = obs::Tracer::instance();
  if (robust_ == nullptr) {
    // Fire-and-forget frames into pooled buffers (Algorithm 1 lines 2-6
    // with the coalesced wire); finish() blocks on the matching receives.
    for (std::size_t k = 0; k < s.send_peers.size(); ++k) {
      const int p = s.send_peers[k];
      auto buf = comm_.pool().acquire(frame_cap_);
      pack_frame_for_peer(buf, epoch_, rank_, p,
                          csr_slice(s.send_rounds, s.send_off, k), payload,
                          s, out_);
      out_.bytes_sent += buf.size();
      out_.bytes_offered += buf.size();
      ++out_.msgs_sent;
      // Every send site stamps its flow point BEFORE sending: once the
      // frame is deposited, the receiver may stamp the finish before
      // send() returns, and a finish ahead of its send fails
      // `dshuf_trace --check`.
      if (tracer.enabled()) {
        tracer.flow_point("exchange.frame",
                          frame_flow_id(epoch_, rank_, p),
                          obs::FlowPhase::kSend,
                          {{"epoch", std::to_string(epoch_)}});
      }
      comm_.send(p, frame_data_tag(tag_base_, quota_, rank_),
                 std::move(buf));
    }
    return;
  }

  // Robust mode: keep a master copy of each frame for retransmission and
  // fire attempt 1. Retry/deadline clocks are anchored at finish() entry
  // (see the header note), so nothing times out under a long compute.
  for (std::size_t k = 0; k < s.send_peers.size(); ++k) {
    const int p = s.send_peers[k];
    auto& wire = wires_[k];
    wire.clear();
    wire.reserve(frame_cap_);
    pack_frame_for_peer(wire, epoch_, rank_, p,
                        csr_slice(s.send_rounds, s.send_off, k), payload, s,
                        out_);
    out_.bytes_offered += wire.size();
    auto buf = comm_.pool().acquire(wire.size());
    buf.assign(wire.begin(), wire.end());
    if (tracer.enabled()) {
      tracer.flow_point("exchange.frame", frame_flow_id(epoch_, rank_, p),
                        obs::FlowPhase::kSend,
                        {{"epoch", std::to_string(epoch_)}});
    }
    comm_.send(p, frame_data_tag(tag_base_, quota_, rank_), std::move(buf));
    ++out_.msgs_sent;
    out_.bytes_sent += wire.size();
    send_state_[k].attempts = 1;
  }
}

void PlsEpochExchange::finish_fast() {
  ExchangeScratch& s = *s_;
  // One blocking receive per sending peer; arrival order is free because
  // each frame parks in the mailbox until its (source, tag) receive runs.
  for (std::size_t k = 0; k < s.recv_peers.size(); ++k) {
    const int p = s.recv_peers[k];
    s.frames[k] = comm_.recv(p, frame_data_tag(tag_base_, quota_, p));
    s.views[k] = checked_frame_view(s.frames[k], epoch_,
                                    recv_slot_count(s, k), p, rank_);
  }

  out_.recvs_committed = stage_frames_in_round_order(
      store_, quota_, deposit_fn(), s, nullptr);
  for (SampleId id : s.outgoing) store_.remove_id(id);
  out_.sends_committed = quota_;

  // Frames are fully staged — recycle their buffers.
  for (std::size_t k = 0; k < s.recv_peers.size(); ++k) {
    comm_.pool().release(std::move(s.frames[k].payload));
  }
}

// Retry/timeout protocol: a DATA/ACK handshake per PEER FRAME, all peers
// progressing concurrently in one event loop so a single slow peer cannot
// serialise the epoch. Commit decisions are NOT taken from ACKs (those are
// lossy too) but from the receivers' reconciliation bitmap, exchanged over
// the reliable collective path at the end — that is what keeps sender and
// receiver in agreement no matter which messages were lost. A lost frame
// falls back a whole peer's worth of rounds at once.
//
// All deadlines/retries read Communicator::now_us() and pauses go through
// Communicator::backoff(): on the threaded world that is wall time and a
// real sleep, on the event-driven world virtual time and a fiber timer —
// a wall-clock sleep there would stall the epoch forever, since virtual
// time only advances while fibers are suspended on it.
void PlsEpochExchange::finish_robust() {
  ExchangeScratch& s = *s_;
  const ExchangeRobustness& robust = *robust_;

  const std::uint64_t fstart = comm_.now_us();
  const std::uint64_t recv_deadline_at =
      fstart + static_cast<std::uint64_t>(robust.recv_deadline.count());
  // Unfinished send + receive duties (per peer slot).
  std::size_t open = s.recv_peers.size() + s.send_peers.size();
  for (auto& ss : send_state_) {
    ss.next_retry_us =
        fstart + static_cast<std::uint64_t>(robust.ack_timeout.count());
  }

  while (open > 0) {
    bool progressed = false;
    const std::uint64_t now = comm_.now_us();
    for (std::size_t k = 0; k < s.recv_peers.size(); ++k) {
      auto& rs = recv_state_[k];
      if (rs.done) continue;
      const int p = s.recv_peers[k];
      if (auto msg = comm_.poll(p, frame_data_tag(tag_base_, quota_, p))) {
        s.frames[k] = std::move(*msg);
        s.views[k] = checked_frame_view(s.frames[k], epoch_,
                                        recv_slot_count(s, k), p, rank_);
        rs.done = true;
        rs.ok = true;
        frame_ok_[k] = 1;
        comm_.send(p, frame_ack_tag(tag_base_, quota_, p), {});
        ++out_.msgs_sent;
        --open;
        progressed = true;
      } else if (now >= recv_deadline_at) {
        // LS fallback for every round this peer owed us; a late frame
        // drains as a stray after the fence.
        rs.done = true;
        out_.recv_fallbacks += recv_slot_count(s, k);
        LOG_DEBUG << "frame from rank " << p << " missed the deadline; "
                  << "its samples stay with the sender";
        --open;
        progressed = true;
      }
    }
    for (std::size_t k = 0; k < s.send_peers.size(); ++k) {
      auto& ss = send_state_[k];
      if (ss.done) continue;
      const int p = s.send_peers[k];
      if (comm_.poll(p, frame_ack_tag(tag_base_, quota_, rank_))) {
        ss.done = true;
        --open;
        progressed = true;
      } else if (now >= ss.next_retry_us) {
        if (ss.attempts >= robust.max_attempts) {
          // Give up retrying. The frame may still commit if an earlier
          // attempt landed — the reconciliation bitmap decides.
          ss.done = true;
          --open;
          LOG_DEBUG << "frame to rank " << p << " exhausted " << ss.attempts
                    << " attempts; reconciliation decides";
        } else {
          const auto& wire = wires_[k];
          auto buf = comm_.pool().acquire(wire.size());
          buf.assign(wire.begin(), wire.end());
          // The retransmitted bytes carry the identical trace context,
          // so this is a step on the SAME flow, not a new arrow.
          auto& tracer = obs::Tracer::instance();
          if (tracer.enabled()) {
            tracer.flow_point("exchange.frame",
                              frame_flow_id(epoch_, rank_, p),
                              obs::FlowPhase::kStep,
                              {{"epoch", std::to_string(epoch_)}});
          }
          comm_.send(p, frame_data_tag(tag_base_, quota_, rank_),
                     std::move(buf));
          ++out_.msgs_sent;
          out_.bytes_sent += wire.size();
          ++ss.attempts;
          ++out_.retries;
          ss.next_retry_us = now + backoff_us(robust, ss.attempts);
        }
        progressed = true;
      }
    }
    if (open > 0 && !progressed) {
      comm_.backoff(robust.poll_interval);
    }
  }

  // Stage whatever arrived, in round order (skipping rounds whose frame
  // fell back) — the sequential driver's append order under the same
  // commit pattern.
  out_.recvs_committed = stage_frames_in_round_order(
      store_, quota_, deposit_fn(), s, &frame_ok_);

  // Quiesce the fabric, then drain late arrivals and duplicate frames.
  {
    obs::SpanGuard fence_span("exchange.fence");
    comm_.barrier();
    comm_.fence_faults();
    while (auto stray = comm_.poll(comm::kAnySource, comm::kAnyTag)) {
      ++out_.strays_drained;
      if (is_epoch_frame_data_tag(stray->tag, tag_base_, quota_, m_)) {
        const int origin =
            origin_of_frame_data_tag(stray->tag, tag_base_, quota_);
        const std::size_t slot = recv_slot_of(s, origin);
        if (slot != static_cast<std::size_t>(-1) && recv_state_[slot].ok) {
          // A duplicate copy of a frame we already staged: every sample in
          // it is a suppressed duplicate.
          out_.duplicates_suppressed += parse_frame(stray->payload).count();
        }
      }
    }
    DSHUF_HISTOGRAM_US("exchange.fence_wait_us").observe(fence_span.finish());
  }

  // Reconciliation: one received-bit per ORIGIN rank. A frame carries all
  // of an origin's rounds or none, so the per-origin bit decides exactly
  // the same commits the per-round bitmap would.
  DSHUF_SPAN("exchange.reconcile");
  std::vector<std::byte> received_bits(static_cast<std::size_t>(m_));
  for (std::size_t k = 0; k < s.recv_peers.size(); ++k) {
    received_bits[static_cast<std::size_t>(s.recv_peers[k])] =
        recv_state_[k].ok ? std::byte{1} : std::byte{0};
  }
  const auto all_bits = comm_.allgather(std::move(received_bits));
  const ExchangePlan& plan = *s.plan;
  for (std::size_t i = 0; i < quota_; ++i) {
    const auto dest = static_cast<std::size_t>(plan.dest(i, rank_));
    DSHUF_CHECK_EQ(all_bits[dest].size(), static_cast<std::size_t>(m_),
                   "reconciliation bitmap length mismatch");
    if (all_bits[dest][static_cast<std::size_t>(rank_)] != std::byte{0}) {
      store_.remove_id(s.outgoing[i]);
      ++out_.sends_committed;
    } else {
      ++out_.send_fallbacks;
      LOG_DEBUG << "round " << i << " not received by rank "
                << plan.dest(i, rank_) << "; keeping sample locally";
    }
  }

  for (std::size_t k = 0; k < s.recv_peers.size(); ++k) {
    if (frame_ok_[k] == 0) continue;
    comm_.pool().release(std::move(s.frames[k].payload));
  }
}

ExchangeOutcome PlsEpochExchange::finish() {
  DSHUF_CHECK(posted_, "PlsEpochExchange::finish() before post()");
  DSHUF_CHECK(!finished_, "PlsEpochExchange::finish() called twice");
  finished_ = true;
  if (trivial_) return {};

  if (robust_ == nullptr) {
    finish_fast();
  } else {
    finish_robust();
  }

  fold_outcome_counters(out_);
  // bytes_offered is fault-schedule independent, so this attribute is
  // stable across reruns; retransmitted bytes live in the counter above.
  epoch_span_->attr("bytes", std::to_string(out_.bytes_offered));
  epoch_span_->finish();
  log_ctx_.reset();
  return out_;
}

ExchangeOutcome run_pls_exchange_epoch(
    comm::Communicator& comm, ShardStore& store, std::uint64_t seed,
    std::size_t epoch, double q, std::size_t global_min_shard,
    const PayloadFn& payload, const DepositFn& deposit,
    const ExchangeRobustness* robust, ExchangeScratch* scratch,
    const std::optional<Topology>& topology) {
  // The split-phase object run back-to-back IS the monolithic epoch.
  PlsEpochExchange exchange(comm, store, seed, epoch, q, global_min_shard,
                            &payload, &deposit, robust, scratch, topology);
  exchange.post();
  return exchange.finish();
}

}  // namespace dshuf::shuffle
