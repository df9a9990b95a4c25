#include "shuffle/mpi_exchange.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "shuffle/exchange_tags.hpp"
#include "shuffle/shuffler.hpp"
#include "shuffle/topology.hpp"
#include "util/log.hpp"
#include "util/noalloc.hpp"

namespace dshuf::shuffle {

namespace {

// Per-sample wire encoding: 4-byte SampleId followed by the payload,
// appended by the PayloadFn straight into the (pooled) wire buffer — one
// buffer per message, no intermediate payload vector.
void encode_sample_into(SampleId id, const PayloadFn& payload,
                        std::vector<std::byte>& wire) {
  wire.resize(sizeof(SampleId));
  std::memcpy(wire.data(), &id, sizeof(SampleId));
  if (payload) payload(id, wire);
}

SampleId decode_sample_id(const std::vector<std::byte>& buf) {
  DSHUF_CHECK_GE(buf.size(), sizeof(SampleId), "short exchange message");
  SampleId id = 0;
  std::memcpy(&id, buf.data(), sizeof(SampleId));
  return id;
}

// Point s.plan at this epoch's plan in the process-wide cache, which
// builds it once for all ranks. The shape comes from the process-wide
// topology policy: flat Algorithm-1 permutations when none is set, the
// grouped hierarchical plan otherwise.
const ExchangePlan& plan_for_epoch(std::uint64_t seed, std::size_t epoch,
                                   int m, std::size_t quota,
                                   ExchangeScratch& s) {
  PlanSpec spec;
  spec.seed = seed;
  spec.epoch = epoch;
  spec.workers = m;
  spec.quota = quota;
  if (const auto topo = exchange_topology()) {
    const Topology t = topo->resolved_for(m);
    if (t.groups > 1) {
      spec.groups = t.groups;
      spec.group_size = t.group_size;
      spec.intra_fraction = t.intra_fraction;
    }
  }
  acquire_exchange_plan(spec, s.plan);
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
// cross-rank arrow.
FrameView checked_frame_view(const comm::Message& msg, std::size_t epoch,
                             std::size_t expected_count, int peer) {
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

// ------------------------------------------------------------ fast paths --

// Fire-and-wait, one message per round (the original wire). Rewritten on
// the pooled-buffer data path: each message's buffer comes from the pool
// and returns to the receiver's pool after staging.
ExchangeOutcome run_fast_per_sample(comm::Communicator& comm,
                                    ShardStore& store, std::size_t epoch,
                                    const PayloadFn& payload,
                                    const DepositFn& deposit,
                                    ExchangeScratch& s) {
  const int rank = comm.rank();
  const int m = comm.size();
  const std::size_t quota = s.outgoing.size();
  const std::uint64_t tag_base = epoch_tag_base(epoch, quota, m);
  const ExchangePlan& plan = *s.plan;

  ExchangeOutcome out;
  out.rounds = quota;

  auto& tracer = obs::Tracer::instance();

  // Algorithm 1 lines 2-6: send the p[i]-th sample to dest_i[rank]. Tag =
  // round index keeps rounds aligned across ranks.
  for (std::size_t i = 0; i < quota; ++i) {
    const int dest = plan.dest(i, rank);
    auto wire = comm.pool().acquire(sizeof(SampleId) + s.payload_high_water);
    encode_sample_into(s.outgoing[i], payload, wire);
    const std::size_t body = wire.size() - sizeof(SampleId);
    if (body > s.payload_high_water) s.payload_high_water = body;
    out.bytes_header += sizeof(SampleId);
    out.bytes_body += body;
    out.bytes_sent += wire.size();
    out.bytes_offered += wire.size();
    ++out.msgs_sent;
    if (tracer.enabled()) {
      tracer.flow_point("exchange.sample", sample_flow_id(tag_base, i, rank),
                        obs::FlowPhase::kSend,
                        {{"epoch", std::to_string(epoch)}});
    }
    comm.send(dest, data_tag(tag_base, i), std::move(wire));
  }

  // Line 7: collect each round's sample (blocking; sends above already
  // completed locally, so no rank can deadlock here) and stage it in round
  // order — identical store-append order to the sequential driver.
  for (std::size_t i = 0; i < quota; ++i) {
    comm::Message msg = comm.recv(comm::kAnySource, data_tag(tag_base, i));
    if (tracer.enabled()) {
      // The per-sample wire carries no context bytes: (source, tag)
      // re-derive the sender's flow id exactly.
      tracer.flow_point("exchange.sample",
                        sample_flow_id(tag_base, i, msg.source),
                        obs::FlowPhase::kFinish,
                        {{"epoch", std::to_string(epoch)}});
    }
    const SampleId got = decode_sample_id(msg.payload);
    store.add(got);
    if (deposit) {
      deposit(got, std::span<const std::byte>(
                       msg.payload.data() + sizeof(SampleId),
                       msg.payload.size() - sizeof(SampleId)));
    }
    comm.pool().release(std::move(msg.payload));
  }
  for (SampleId id : s.outgoing) store.remove_id(id);

  out.sends_committed = quota;
  out.recvs_committed = quota;
  return out;
}

// ---------------------------------------------------------- robust paths --

// Retry backoff for attempt `attempts` (the one just sent), in the
// communicator's microsecond clock.
std::uint64_t backoff_us(const ExchangeRobustness& robust, int attempts) {
  return static_cast<std::uint64_t>(
      static_cast<double>(robust.ack_timeout.count()) *
      std::pow(robust.backoff, attempts - 1));
}

// Retry/timeout protocol, per-sample wire. Every round runs a DATA/ACK
// handshake; all rounds progress concurrently in one event loop so a
// single slow peer cannot serialise the epoch. Commit decisions are NOT
// taken from ACKs (those are lossy too) but from the receivers' bitmaps,
// exchanged over the reliable collective path at the end — that is what
// keeps sender and receiver in agreement no matter which messages were
// lost.
//
// All deadlines/retries read Communicator::now_us() and pauses go through
// Communicator::backoff(): on the threaded world that is wall time and a
// real sleep, on the event-driven world virtual time and a fiber timer —
// a wall-clock sleep there would stall the epoch forever, since virtual
// time only advances while fibers are suspended on it.
ExchangeOutcome run_robust_per_sample(comm::Communicator& comm,
                                      ShardStore& store, std::size_t epoch,
                                      const PayloadFn& payload,
                                      const DepositFn& deposit,
                                      const ExchangeRobustness& robust,
                                      ExchangeScratch& s) {
  const int rank = comm.rank();
  const std::size_t quota = s.outgoing.size();
  DSHUF_CHECK_GT(robust.max_attempts, 0, "need at least one send attempt");
  const std::uint64_t tag_base = epoch_tag_base(epoch, quota, comm.size());
  const ExchangePlan& plan = *s.plan;

  ExchangeOutcome out;
  out.rounds = quota;

  struct RoundState {
    int dest = -1;
    int src = -1;
    comm::Request rx_data;  // the sample we expect this round
    comm::Request rx_ack;   // our peer's acknowledgement of our sample
    std::vector<std::byte> wire;  // encoded outgoing sample, kept for retries
    bool recv_done = false;
    bool recv_ok = false;
    bool send_done = false;
    int attempts = 0;
    std::uint64_t next_retry_us = 0;
    SampleId got = 0;
    std::vector<std::byte> got_body;
  };

  auto& tracer = obs::Tracer::instance();
  const std::uint64_t start = comm.now_us();
  std::vector<RoundState> rounds(quota);
  for (std::size_t i = 0; i < quota; ++i) {
    auto& r = rounds[i];
    r.dest = plan.dest(i, rank);
    r.src = plan.source(i, rank);
    // Post both receives before the first send so no early arrival is ever
    // unmatched, then fire attempt 1.
    r.rx_data = comm.irecv(r.src, data_tag(tag_base, i));
    r.rx_ack = comm.irecv(r.dest, ack_tag(tag_base, i));
    encode_sample_into(s.outgoing[i], payload, r.wire);
    if (tracer.enabled()) {
      tracer.flow_point("exchange.sample", sample_flow_id(tag_base, i, rank),
                        obs::FlowPhase::kSend,
                        {{"epoch", std::to_string(epoch)}});
    }
    comm.send(r.dest, data_tag(tag_base, i), r.wire);
    ++out.msgs_sent;
    out.bytes_header += sizeof(SampleId);
    out.bytes_body += r.wire.size() - sizeof(SampleId);
    out.bytes_sent += r.wire.size();
    out.bytes_offered += r.wire.size();
    r.attempts = 1;
    r.next_retry_us =
        start + static_cast<std::uint64_t>(robust.ack_timeout.count());
  }
  const std::uint64_t recv_deadline_at =
      start + static_cast<std::uint64_t>(robust.recv_deadline.count());

  auto take_data = [&](std::size_t i, RoundState& r) {
    const auto& msg = r.rx_data.message();
    if (tracer.enabled()) {
      // Retries resend the same bytes on the same tag, so whichever
      // attempt landed, (source, tag) re-derive the sender's flow id.
      tracer.flow_point("exchange.sample",
                        sample_flow_id(tag_base, i, msg.source),
                        obs::FlowPhase::kFinish,
                        {{"epoch", std::to_string(epoch)}});
    }
    r.got = decode_sample_id(msg.payload);
    r.got_body.assign(msg.payload.begin() +
                          static_cast<std::ptrdiff_t>(sizeof(SampleId)),
                      msg.payload.end());
    r.recv_done = true;
    r.recv_ok = true;
    comm.send(r.src, ack_tag(tag_base, i), {});
    ++out.msgs_sent;
  };

  std::size_t open = 2 * quota;  // unfinished send + receive duties
  while (open > 0) {
    bool progressed = false;
    const std::uint64_t now = comm.now_us();
    for (std::size_t i = 0; i < quota; ++i) {
      auto& r = rounds[i];
      if (!r.recv_done) {
        if (r.rx_data.test()) {
          take_data(i, r);
          --open;
          progressed = true;
        } else if (now >= recv_deadline_at) {
          if (comm.cancel(r.rx_data)) {
            r.recv_done = true;  // LS fallback: the sender keeps it
            ++out.recv_fallbacks;
            LOG_DEBUG << "round " << i << " recv deadline expired; "
                      << "expected sample stays with rank " << r.src;
          } else {
            take_data(i, r);  // arrival raced the cancel — accept it
          }
          --open;
          progressed = true;
        }
      }
      if (!r.send_done) {
        if (r.rx_ack.test()) {
          r.send_done = true;
          --open;
          progressed = true;
        } else if (now >= r.next_retry_us) {
          if (r.attempts >= robust.max_attempts) {
            // Give up retrying. The round may still commit if an earlier
            // attempt landed — the reconciliation bitmap decides.
            comm.cancel(r.rx_ack);
            r.send_done = true;
            --open;
            LOG_DEBUG << "round " << i << " exhausted " << r.attempts
                      << " attempts to rank " << r.dest
                      << "; reconciliation decides";
          } else {
            if (tracer.enabled()) {
              tracer.flow_point("exchange.sample",
                                sample_flow_id(tag_base, i, rank),
                                obs::FlowPhase::kStep,
                                {{"epoch", std::to_string(epoch)}});
            }
            comm.send(r.dest, data_tag(tag_base, i), r.wire);
            ++out.msgs_sent;
            out.bytes_sent += r.wire.size();
            ++r.attempts;
            ++out.retries;
            r.next_retry_us = now + backoff_us(robust, r.attempts);
          }
          progressed = true;
        }
      }
    }
    if (open > 0 && !progressed) {
      comm.backoff(robust.poll_interval);
    }
  }

  // Stage received samples in round order — the same per-store append
  // order the sequential driver produces, so fault-free (no-drop) runs
  // stay bit-identical to PartialLocalShuffler.
  for (std::size_t i = 0; i < quota; ++i) {
    auto& r = rounds[i];
    if (!r.recv_ok) continue;
    store.add(r.got);
    ++out.recvs_committed;
    if (deposit) {
      deposit(r.got, std::span<const std::byte>(r.got_body));
    }
  }

  // Quiesce the fabric: after the barrier no rank sends again this epoch,
  // so fencing flushes every delayed message and the drain below removes
  // late arrivals, duplicate copies, and orphaned ACKs.
  {
    obs::SpanGuard fence_span("exchange.fence");
    comm.barrier();
    comm.fence_faults();
    while (auto stray = comm.poll(comm::kAnySource, comm::kAnyTag)) {
      ++out.strays_drained;
      if (is_epoch_data_tag(stray->tag, tag_base, quota)) {
        const auto i = round_of_data_tag(stray->tag, tag_base);
        if (rounds[i].recv_ok) ++out.duplicates_suppressed;
      }
    }
    DSHUF_HISTOGRAM_US("exchange.fence_wait_us").observe(fence_span.finish());
  }

  // Reconciliation over the reliable control plane: each rank publishes
  // which rounds it received; the receiver's word is the commit decision,
  // so the sample ends up at exactly one rank (receiver if the bit is set,
  // sender otherwise).
  DSHUF_SPAN("exchange.reconcile");
  std::vector<std::byte> received_bits(quota);
  for (std::size_t i = 0; i < quota; ++i) {
    received_bits[i] =
        rounds[i].recv_ok ? std::byte{1} : std::byte{0};
  }
  const auto all_bits = comm.allgather(std::move(received_bits));
  for (std::size_t i = 0; i < quota; ++i) {
    const auto dest = static_cast<std::size_t>(rounds[i].dest);
    DSHUF_CHECK_EQ(all_bits[dest].size(), quota,
                   "reconciliation bitmap length mismatch");
    if (all_bits[dest][i] != std::byte{0}) {
      store.remove_id(s.outgoing[i]);
      ++out.sends_committed;
    } else {
      ++out.send_fallbacks;
      LOG_DEBUG << "round " << i << " not received by rank "
                << rounds[i].dest << "; keeping sample locally";
    }
  }
  return out;
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

// ------------------------------------------------- split-phase coalesced --

PlsEpochExchange::PlsEpochExchange(comm::Communicator& comm,
                                   ShardStore& store, std::uint64_t seed,
                                   std::size_t epoch, double q,
                                   std::size_t global_min_shard,
                                   const PayloadFn* payload,
                                   const DepositFn* deposit,
                                   const ExchangeRobustness* robust,
                                   ExchangeScratch* scratch)
    : comm_(comm),
      store_(store),
      epoch_(epoch),
      payload_(payload),
      deposit_(deposit),
      robust_(robust),
      s_(scratch != nullptr ? scratch : &own_scratch_) {
  DSHUF_CHECK(exchange_wire() == ExchangeWire::kCoalesced,
              "PlsEpochExchange drives the coalesced wire; use "
              "run_pls_exchange_epoch for the per-sample wire");
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
  const ExchangePlan& plan = plan_for_epoch(seed, epoch, m_, quota_, s);
  pick_permutation_into(seed, epoch, rank_, store.size(), s.picks);
  DSHUF_CHECK_GE(store.size(), quota_,
                 "rank " << rank_
                         << " shard smaller than the exchange quota");
  s.outgoing.resize(quota_);
  for (std::size_t i = 0; i < quota_; ++i) {
    s.outgoing[i] = store.ids()[s.picks[i]];
  }

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
    s.views[k] =
        checked_frame_view(s.frames[k], epoch_, recv_slot_count(s, k), p);
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

// Retry/timeout protocol, coalesced wire: the DATA/ACK handshake runs per
// PEER FRAME instead of per round. This is failure-equivalent to the
// per-sample handshake because commits still come from the receivers'
// reconciliation bitmap, not from ACKs — a lost frame simply falls back a
// whole peer's worth of rounds at once (the bitmap is per ORIGIN rank,
// which decides exactly the same set because a frame carries all of an
// origin's rounds or none of them).
//
// Clocks are Communicator::now_us() microseconds and pauses go through
// Communicator::backoff() — see run_robust_per_sample's note on why.
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
                                        recv_slot_count(s, k), p);
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
  // fell back) — identical append order to the per-sample robust path
  // under the same commit pattern.
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
          // it is a suppressed duplicate (the per-sample wire counts the
          // same samples one message at a time).
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

ExchangeOutcome run_pls_exchange_epoch(comm::Communicator& comm,
                                       ShardStore& store, std::uint64_t seed,
                                       std::size_t epoch, double q,
                                       std::size_t global_min_shard,
                                       const PayloadFn& payload,
                                       const DepositFn& deposit,
                                       const ExchangeRobustness* robust,
                                       ExchangeScratch* scratch) {
  // Read the wire mode exactly once so this epoch cannot tear across a
  // concurrent flip (see exchange_wire.hpp's thread model).
  const ExchangeWire wire = exchange_wire();
  if (wire == ExchangeWire::kCoalesced) {
    // The split-phase object run back-to-back IS the monolithic epoch.
    PlsEpochExchange exchange(comm, store, seed, epoch, q, global_min_shard,
                              &payload, &deposit, robust, scratch);
    exchange.post();
    return exchange.finish();
  }

  const int rank = comm.rank();
  const int m = comm.size();
  const std::size_t quota = exchange_quota(global_min_shard, q);
  if (quota == 0 || m <= 1) return {};

  // Spans from this rank thread land on their own trace lane, and every
  // log line it emits carries the (rank, epoch) it was working for.
  obs::Tracer::set_thread_track(rank);
  if (obs::Tracer::instance().enabled()) {
    obs::Tracer::set_thread_name("rank " + std::to_string(rank));
  }
  ScopedLogContext log_ctx(rank, static_cast<std::int64_t>(epoch));
  obs::SpanGuard epoch_span("exchange.epoch",
                            {{"epoch", std::to_string(epoch)},
                             {"rank", std::to_string(rank)}});

  // Every rank uses the identical plan derived from the shared seed —
  // Algorithm 1's "all workers use the same random seed" — built once per
  // process (see plan_for_epoch).
  ExchangeScratch local_scratch;
  ExchangeScratch& s = scratch != nullptr ? *scratch : local_scratch;
  plan_for_epoch(seed, epoch, m, quota, s);
  pick_permutation_into(seed, epoch, rank, store.size(), s.picks);
  DSHUF_CHECK_GE(store.size(), quota,
                 "rank " << rank << " shard smaller than the exchange quota");

  s.outgoing.resize(quota);
  for (std::size_t i = 0; i < quota; ++i) {
    s.outgoing[i] = store.ids()[s.picks[i]];
  }

  ExchangeOutcome out;
  if (robust == nullptr) {
    DSHUF_CHECK(!comm.fault_injection_enabled(),
                "the fast-path exchange cannot survive fault injection — "
                "pass an ExchangeRobustness budget");
    out = run_fast_per_sample(comm, store, epoch, payload, deposit, s);
  } else {
    out = run_robust_per_sample(comm, store, epoch, payload, deposit,
                                *robust, s);
  }

  fold_outcome_counters(out);

  // bytes_offered is fault-schedule independent, so this attribute is
  // stable across reruns; retransmitted bytes live in the counter above.
  epoch_span.attr("bytes", std::to_string(out.bytes_offered));
  return out;
}

}  // namespace dshuf::shuffle
