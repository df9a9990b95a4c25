// Network-level validation of the exchange claims using the flow-level
// simulator (max-min fair NIC/fabric sharing):
//   (1) Algorithm 1's balance keeps the exchange makespan at the NIC
//       bound; naive random destinations pay an incast penalty that grows
//       with scale — the network-level cost of losing the balance
//       guarantee.
//   (2) The hierarchical variant relieves a tight fabric exactly as the
//       analytic perf model assumes.
#include <iostream>

#include "netsim/flowsim.hpp"
#include "util/table.hpp"

#include "bench_common.hpp"

int main(int argc, char** argv) {
  const dshuf::bench::ObsSession obs_session(argc, argv);
  using namespace dshuf;
  using namespace dshuf::netsim;

  std::cout << "\n==================================================\n"
            << "Extension — flow-level network simulation of the exchange\n"
            << "==================================================\n";

  const double bytes = 117e3;  // one ImageNet-like sample per message
  const std::size_t quota = 16;
  const LinkCaps nic_only{.nic_out_bps = 1.25e9,
                          .nic_in_bps = 1.25e9,
                          .fabric_bps = 0,
                          .per_message_latency_s = 5e-6};

  TextTable t("exchange makespan: balanced (Algorithm 1) vs naive");
  t.header({"workers", "balanced ms", "naive ms", "naive penalty",
            "NIC lower bound ms"});
  for (int m : {16, 32, 64}) {
    const shuffle::ExchangePlan plan(7, 0, m, quota);
    const auto balanced =
        simulate_flows(flows_from_plan(plan, bytes), nic_only, m);
    const auto naive =
        simulate_flows(flows_naive(m, quota, bytes, 7), nic_only, m);
    const double bound = quota * bytes / nic_only.nic_in_bps;
    t.row({std::to_string(m), fmt_double(balanced.makespan_s * 1e3, 2),
           fmt_double(naive.makespan_s * 1e3, 2),
           fmt_double(naive.makespan_s / balanced.makespan_s, 2) + "x",
           fmt_double(bound * 1e3, 2)});
  }
  t.print(std::cout);

  TextTable h("hierarchical vs flat under a tight fabric (32 ranks, "
              "4 groups, 50% intra rounds)");
  h.header({"fabric GB/s", "flat ms", "hierarchical ms", "speedup"});
  const int groups = 4;
  const int gsize = 8;
  const shuffle::ExchangePlan flat(7, 0, groups * gsize, quota);
  shuffle::ExchangePlan hier;
  hier.rebuild_grouped(7, 0, groups, gsize, quota, 0.5);
  for (double fabric_gbps : {2.0, 5.0, 10.0, 40.0}) {
    LinkCaps caps = nic_only;
    caps.fabric_bps = fabric_gbps * 1e9;
    const auto f = simulate_flows(flows_from_plan(flat, bytes), caps,
                                  groups * gsize);
    const auto hr = simulate_flows(
        flows_from_hierarchical_plan(hier, gsize, bytes), caps,
        groups * gsize);
    h.row({fmt_double(fabric_gbps, 0), fmt_double(f.makespan_s * 1e3, 2),
           fmt_double(hr.makespan_s * 1e3, 2),
           fmt_double(f.makespan_s / hr.makespan_s, 2) + "x"});
  }
  h.print(std::cout);
  std::cout << "Reading: the balanced plan sits on the NIC lower bound at\n"
               "every scale; the naive scheme's worst receiver inflates the\n"
               "makespan. With a constrained fabric the hierarchical plan's\n"
               "group-local rounds recover most of the loss — confirming\n"
               "the analytic model's congestion assumptions from first\n"
               "principles.\n";
  return 0;
}
