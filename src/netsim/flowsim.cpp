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

}  // namespace

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
