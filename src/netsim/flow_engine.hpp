// Incremental max-min-fair flow engine.
//
// The original simulate_flows recomputed EVERY flow's rate from scratch at
// every arrival and completion: progressive filling over all links, then a
// linear scan to find the next event — O(F) work per event, O(F^2) per
// epoch. Fine at M=64; at M=4096 a coalesced exchange epoch injects
// hundreds of thousands of flows and the recompute-everything loop is what
// made paper-scale simulation unaffordable.
//
// This engine keeps the same fluid model (max-min fairness via progressive
// filling, identical tolerances — the differential suite holds it against
// the reference implementation in tests/flow_reference_oracle.hpp) but
// does event-driven, SCOPED work:
//
//   * Arrivals and completions mark only the links they touch dirty.
//   * A refill settles and re-fills only the CONNECTED COMPONENT of flows
//     reachable from dirty links through shared links. Flows outside the
//     component provably keep their max-min rates (they share no
//     constraint with anything that changed), so their predicted finish
//     times stay valid.
//   * Per-link active-flow sets are bucketed (lazily compacted vectors),
//     so membership updates are O(1) amortised.
//   * Predicted completions live in a lazily-invalidated heap keyed by
//     (finish time, admission seq); a rate change bumps the flow's
//     generation and orphans the stale entry instead of rebalancing.
//   * Same-timestamp events batch: all arrivals at time t dirty links
//     first, then one refill covers them.
//
// Flows that touch no link (self-sends, zero-byte control messages) are
// the caller's business — the engine prices wire occupancy only.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace dshuf::netsim {

class FlowEngine {
 public:
  using FlowId = std::uint64_t;
  static constexpr FlowId kInvalidFlow = ~FlowId{0};

  /// `link_caps_bps[l]` is link l's capacity. Links are whatever the
  /// caller says they are — NICs, group uplinks, a fabric pool.
  explicit FlowEngine(std::vector<double> link_caps_bps);

  /// Admit a flow of `bytes` over `links` (indices into the cap table,
  /// each traversed link constrains the flow) starting at the engine's
  /// current time. Rates rebalance lazily at the next query.
  FlowId add_flow(double bytes, const std::vector<int>& links);

  /// Current simulation time.
  [[nodiscard]] double now_s() const { return now_s_; }

  /// Earliest predicted completion among active flows (triggers a refill
  /// of any dirty component first); +inf when no flow is active.
  double next_finish_s();

  /// Advance to `t`, retiring every flow that completes at or before it —
  /// appended to `finished` as (id, completion time) in deterministic
  /// (time, admission) order. `t` may not rewind. Completions the caller
  /// never asked about don't get skipped: retiring a batch rebalances the
  /// survivors at the batch time before the clock moves past it.
  void advance_to(double t,
                  std::vector<std::pair<FlowId, double>>& finished);

  [[nodiscard]] std::size_t active_flows() const { return live_; }

  /// Total refill work (flows settled+filled, summed over refills) — the
  /// scaling diagnostic BENCH_scale reports as the incremental advantage.
  [[nodiscard]] std::uint64_t refill_work() const { return refill_work_; }

  /// Lazy rebalancing: advance_to retires EVERY completion in the window
  /// with one terminal refill instead of rebalancing survivors at each
  /// distinct batch time. Survivors integrate their (stale, never faster)
  /// rates across the window, so completions are exact-or-pessimistic by
  /// at most the window length. The virtual backend enables this when its
  /// event quantum exceeds 1 us — at 4096 ranks the per-batch refills are
  /// the dominant cost and the quantum bounds the error. Default off:
  /// exact per-batch rebalancing, the mode the differential suite pins.
  void set_lazy_rebalance(bool on) { lazy_ = on; }

 private:
  struct FlowRec {
    std::vector<int> links;
    double remaining = 0;      // bytes left at last_settle_s
    double rate = 0;           // current max-min rate
    double last_settle_s = 0;  // when `remaining` was last materialised
    std::uint32_t gen = 0;     // bumped on every rate change / retirement
    bool live = false;
    bool fixed = false;  // refill scratch
    bool in_component = false;
    bool has_prediction = false;  // a live heap entry exists for gen
  };

  struct HeapEntry {
    double finish_s;
    std::uint64_t seq;  // admission order tiebreak — determinism
    FlowId id;
    std::uint32_t gen;
    bool operator<(const HeapEntry& o) const {
      // std::push_heap keeps the LARGEST on top; invert for earliest.
      return finish_s != o.finish_s ? finish_s > o.finish_s : seq > o.seq;
    }
  };

  struct LinkRec {
    double cap_bps = 0;
    std::vector<FlowId> flows;  // bucketed: may hold retired ids
    std::size_t live = 0;       // live flow count (compaction trigger)
    // Refill scratch, valid only inside refill():
    double headroom = 0;
    int unfixed = 0;
    bool in_component = false;
    bool dirty = false;
  };

  void mark_dirty(const std::vector<int>& links);
  void refill_dirty();
  void settle(FlowRec& f);
  void push_prediction(FlowId id);
  void retire(FlowId id);

  std::vector<LinkRec> links_;
  std::vector<FlowRec> flows_;
  std::vector<FlowId> free_slots_;
  std::vector<int> dirty_links_;
  // Refill scratch (capacity retained across refills).
  std::vector<int> comp_links_;
  std::vector<FlowId> comp_flows_;
  std::vector<FlowId> bfs_stack_;
  std::vector<double> old_rates_;     // parallel to comp_flows_
  std::vector<FlowId> unfixed_flows_; // filling worklist (order-stable)
  std::vector<int> unfixed_links_;    // links with unfixed > 0
  std::vector<HeapEntry> heap_;
  double now_s_ = 0;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<std::uint64_t> flow_seq_;
  std::uint64_t refill_work_ = 0;
  bool lazy_ = false;
};

}  // namespace dshuf::netsim
