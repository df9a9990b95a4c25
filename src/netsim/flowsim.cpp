#include "netsim/flowsim.hpp"

#include "netsim/flow_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace dshuf::netsim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTimeEps = 1e-12;

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
void assign_rates(std::vector<ActiveFlow>& flows, const LinkCaps& caps,
                  int ranks) {
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

}  // namespace

SimOutcome simulate_flows_reference(const std::vector<Flow>& flows,
                                    const LinkCaps& caps, int ranks) {
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

SimOutcome simulate_flows(const std::vector<Flow>& flows,
                          const LinkCaps& caps, int ranks) {
  DSHUF_CHECK_GT(ranks, 0, "need at least one rank");
  DSHUF_CHECK_GT(caps.nic_out_bps, 0.0, "NIC egress must be positive");
  DSHUF_CHECK_GT(caps.nic_in_bps, 0.0, "NIC ingress must be positive");

  SimOutcome out;
  out.flow_finish_s.assign(flows.size(), 0.0);
  out.rank_finish_s.assign(static_cast<std::size_t>(ranks), 0.0);

  // Same link classes as the reference: [0, ranks) out NICs, [ranks,
  // 2*ranks) in NICs, 2*ranks the fabric pool when constrained
  // (fabric_bps == 0 means unconstrained — no fabric link exists and
  // uses_fabric flows see only their NICs).
  const bool fabric = caps.fabric_bps > 0;
  std::vector<double> link_caps(2 * static_cast<std::size_t>(ranks) +
                                (fabric ? 1 : 0));
  for (int r = 0; r < ranks; ++r) {
    link_caps[static_cast<std::size_t>(r)] = caps.nic_out_bps;
    link_caps[static_cast<std::size_t>(ranks + r)] = caps.nic_in_bps;
  }
  if (fabric) link_caps[2 * static_cast<std::size_t>(ranks)] = caps.fabric_bps;

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
      // Latency-only path: self-flows and empty messages never occupy a
      // link (the engine refuses linkless flows for the same reason).
      out.flow_finish_s[i] = ready;
    } else {
      pending.push_back(Pending{i, ready});
    }
  }
  std::sort(pending.begin(), pending.end(),
            [](const Pending& a, const Pending& b) {
              return a.ready_s != b.ready_s ? a.ready_s < b.ready_s
                                            : a.index < b.index;
            });

  FlowEngine engine(std::move(link_caps));
  std::vector<std::size_t> index_of;  // engine FlowId -> input index
  std::vector<std::pair<FlowEngine::FlowId, double>> finished;
  std::vector<int> path;
  std::size_t next_pending = 0;
  while (next_pending < pending.size() || engine.active_flows() > 0) {
    const double t_admit = next_pending < pending.size()
                               ? pending[next_pending].ready_s
                               : kInf;
    const double t_finish = engine.next_finish_s();
    DSHUF_CHECK(std::min(t_admit, t_finish) < kInf,
                "flow simulation stalled");
    finished.clear();
    if (t_admit <= t_finish) {
      engine.advance_to(std::max(t_admit, engine.now_s()), finished);
      // Admit the whole same-instant batch: one refill covers them all.
      while (next_pending < pending.size() &&
             pending[next_pending].ready_s <= engine.now_s() + kTimeEps) {
        const auto& f = flows[pending[next_pending].index];
        path.clear();
        path.push_back(f.src);
        path.push_back(ranks + f.dst);
        if (fabric && f.uses_fabric) path.push_back(2 * ranks);
        const FlowEngine::FlowId id = engine.add_flow(f.bytes, path);
        if (index_of.size() <= id) index_of.resize(id + 1);
        index_of[id] = pending[next_pending].index;
        ++next_pending;
      }
    } else {
      engine.advance_to(t_finish, finished);
    }
    for (const auto& [id, at_s] : finished) {
      out.flow_finish_s[index_of[id]] = at_s;
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

std::vector<Flow> flows_from_plan(const shuffle::ExchangePlan& plan,
                                  double bytes_per_sample) {
  std::vector<Flow> flows;
  flows.reserve(plan.rounds() * static_cast<std::size_t>(plan.workers()));
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    for (int r = 0; r < plan.workers(); ++r) {
      flows.push_back(Flow{r, plan.dest(i, r), bytes_per_sample, 0.0, true});
    }
  }
  return flows;
}

std::vector<Flow> flows_from_hierarchical_plan(
    const shuffle::ExchangePlan& plan, int group_size,
    double bytes_per_sample) {
  DSHUF_CHECK_GT(group_size, 0, "need at least one rank per group");
  std::vector<Flow> flows;
  flows.reserve(plan.rounds() * static_cast<std::size_t>(plan.workers()));
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    for (int r = 0; r < plan.workers(); ++r) {
      const int d = plan.dest(i, r);
      flows.push_back(Flow{r, d, bytes_per_sample, 0.0,
                           r / group_size != d / group_size});
    }
  }
  return flows;
}

std::vector<Flow> flows_naive(int ranks, std::size_t quota,
                              double bytes_per_sample, std::uint64_t seed) {
  std::vector<Flow> flows;
  flows.reserve(quota * static_cast<std::size_t>(ranks));
  Rng base(seed);
  for (int r = 0; r < ranks; ++r) {
    Rng rng = base.fork(0xF10, static_cast<std::uint64_t>(r));
    for (std::size_t i = 0; i < quota; ++i) {
      flows.push_back(Flow{
          r, static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(
                 ranks))),
          bytes_per_sample, 0.0, true});
    }
  }
  return flows;
}

double ring_allreduce_time(int ranks, double bytes, const LinkCaps& caps) {
  DSHUF_CHECK_GT(ranks, 0, "need at least one rank");
  if (ranks == 1) return 0.0;
  const double m = ranks;
  const double volume = 2.0 * (m - 1.0) / m * bytes;
  const double bw = std::min(caps.nic_out_bps, caps.nic_in_bps);
  return volume / bw +
         2.0 * (m - 1.0) * caps.per_message_latency_s;
}

}  // namespace dshuf::netsim
