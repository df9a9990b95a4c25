// The benchmark's workloads; see perfbench/README.md for why each exists.
#pragma once

#include "harness.hpp"

namespace perfbench {

void run_dp_pls(const Options& opt, Report& rep);
void run_exchange_gs(const Options& opt, Report& rep);
void run_virtual_1024(const Options& opt, Report& rep);
void run_sim_pls(const Options& opt, Report& rep);

}  // namespace perfbench
