// Independent oracle for netsim::simulate_flows: the original
// recompute-everything max-min flow simulation, which reassigns every
// active flow's rate by progressive filling at each arrival and
// completion. test_flow_engine holds the incremental FlowEngine behind
// simulate_flows to it across random flow sets.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "netsim/flowsim.hpp"
#include "util/error.hpp"

namespace dshuf::netsim {

namespace flow_oracle_detail {

inline constexpr double kInf = std::numeric_limits<double>::infinity();
inline constexpr double kTimeEps = 1e-12;

struct ActiveFlow {
  std::size_t index;  // into the input vector
  int src;
  int dst;
  double remaining;
  bool uses_fabric;
  double rate = 0;
  bool fixed = false;
};

/// Max-min fair rates via progressive filling over the three link
/// classes. Mutates `flows` in place.
inline void assign_rates(std::vector<ActiveFlow>& flows,
                         const LinkCaps& caps, int ranks) {
  if (flows.empty()) return;
  for (auto& f : flows) {
    f.rate = 0;
    f.fixed = false;
  }
  // Link bookkeeping: [0, ranks) = out NICs, [ranks, 2*ranks) = in NICs,
  // index 2*ranks = fabric (if constrained).
  const bool fabric = caps.fabric_bps > 0;
  const std::size_t nlinks = 2 * static_cast<std::size_t>(ranks) +
                             (fabric ? 1 : 0);
  std::vector<double> headroom(nlinks);
  std::vector<int> unfixed(nlinks, 0);
  auto links_of = [&](const ActiveFlow& f, auto&& fn) {
    fn(static_cast<std::size_t>(f.src));
    fn(static_cast<std::size_t>(ranks + f.dst));
    if (fabric && f.uses_fabric) {
      fn(2 * static_cast<std::size_t>(ranks));
    }
  };
  for (std::size_t l = 0; l < nlinks; ++l) {
    headroom[l] = l < static_cast<std::size_t>(ranks) ? caps.nic_out_bps
                  : l < 2 * static_cast<std::size_t>(ranks)
                      ? caps.nic_in_bps
                      : caps.fabric_bps;
  }
  for (auto& f : flows) {
    links_of(f, [&](std::size_t l) { ++unfixed[l]; });
  }

  std::size_t remaining_flows = flows.size();
  while (remaining_flows > 0) {
    // Find the bottleneck link: smallest fair share among links with
    // unfixed flows.
    double best_share = kInf;
    for (std::size_t l = 0; l < nlinks; ++l) {
      if (unfixed[l] > 0) {
        best_share = std::min(best_share, headroom[l] / unfixed[l]);
      }
    }
    DSHUF_CHECK(best_share < kInf, "no bottleneck found with flows left");
    // Fix every unfixed flow that traverses a link achieving that share.
    bool fixed_any = false;
    for (auto& f : flows) {
      if (f.fixed) continue;
      bool at_bottleneck = false;
      links_of(f, [&](std::size_t l) {
        if (unfixed[l] > 0 &&
            headroom[l] / unfixed[l] <= best_share * (1 + 1e-12)) {
          at_bottleneck = true;
        }
      });
      if (!at_bottleneck) continue;
      f.fixed = true;
      f.rate = best_share;
      fixed_any = true;
      --remaining_flows;
      links_of(f, [&](std::size_t l) {
        headroom[l] -= best_share;
        --unfixed[l];
      });
    }
    DSHUF_CHECK(fixed_any, "progressive filling made no progress");
  }
}

}  // namespace flow_oracle_detail

/// The original recompute-everything progressive-filling loop, O(F) work
/// per event. Kept as the semantic oracle: the differential suite holds
/// simulate_flows to it across random flow sets, and anyone changing the
/// engine's tolerances must keep the two in agreement.
inline SimOutcome simulate_flows_reference(const std::vector<Flow>& flows,
                                           const LinkCaps& caps, int ranks) {
  using namespace flow_oracle_detail;
  DSHUF_CHECK_GT(ranks, 0, "need at least one rank");
  DSHUF_CHECK_GT(caps.nic_out_bps, 0.0, "NIC egress must be positive");
  DSHUF_CHECK_GT(caps.nic_in_bps, 0.0, "NIC ingress must be positive");

  SimOutcome out;
  out.flow_finish_s.assign(flows.size(), 0.0);
  out.rank_finish_s.assign(static_cast<std::size_t>(ranks), 0.0);

  // Effective start includes the per-message latency; self-flows finish
  // right there.
  struct Pending {
    std::size_t index;
    double ready_s;
  };
  std::vector<Pending> pending;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto& f = flows[i];
    DSHUF_CHECK(f.src >= 0 && f.src < ranks, "flow src out of range");
    DSHUF_CHECK(f.dst >= 0 && f.dst < ranks, "flow dst out of range");
    DSHUF_CHECK_GE(f.bytes, 0.0, "flow bytes must be non-negative");
    const double ready = f.start_s + caps.per_message_latency_s;
    if (f.src == f.dst || f.bytes == 0.0) {
      out.flow_finish_s[i] = ready;
    } else {
      pending.push_back(Pending{i, ready});
    }
  }
  std::sort(pending.begin(), pending.end(),
            [](const Pending& a, const Pending& b) {
              return a.ready_s < b.ready_s;
            });

  std::vector<ActiveFlow> active;
  std::size_t next_pending = 0;
  double now = 0.0;
  if (!pending.empty()) now = pending.front().ready_s;

  while (!active.empty() || next_pending < pending.size()) {
    // Admit flows that have become ready.
    while (next_pending < pending.size() &&
           pending[next_pending].ready_s <= now + kTimeEps) {
      const auto& f = flows[pending[next_pending].index];
      active.push_back(ActiveFlow{pending[next_pending].index, f.src, f.dst,
                                  f.bytes, f.uses_fabric});
      ++next_pending;
    }
    if (active.empty()) {
      now = pending[next_pending].ready_s;
      continue;
    }
    assign_rates(active, caps, ranks);

    // Time to the earliest completion or next admission.
    double dt = kInf;
    for (const auto& f : active) {
      if (f.rate > 0) dt = std::min(dt, f.remaining / f.rate);
    }
    if (next_pending < pending.size()) {
      dt = std::min(dt, pending[next_pending].ready_s - now);
    }
    DSHUF_CHECK(dt < kInf, "flow simulation stalled");
    dt = std::max(dt, 0.0);

    now += dt;
    for (auto& f : active) f.remaining -= f.rate * dt;
    // Retire completed flows.
    for (auto it = active.begin(); it != active.end();) {
      if (it->remaining <= it->rate * kTimeEps + 1e-9) {
        out.flow_finish_s[it->index] = now;
        it = active.erase(it);
      } else {
        ++it;
      }
    }
  }

  for (std::size_t i = 0; i < flows.size(); ++i) {
    const double t = out.flow_finish_s[i];
    out.makespan_s = std::max(out.makespan_s, t);
    out.rank_finish_s[static_cast<std::size_t>(flows[i].src)] =
        std::max(out.rank_finish_s[static_cast<std::size_t>(flows[i].src)], t);
    out.rank_finish_s[static_cast<std::size_t>(flows[i].dst)] =
        std::max(out.rank_finish_s[static_cast<std::size_t>(flows[i].dst)], t);
  }
  return out;
}

}  // namespace dshuf::netsim
