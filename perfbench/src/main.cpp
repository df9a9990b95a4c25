// dshuf_perfbench: runs one benchmark workload and prints its result as one
// JSON object on the last line of standard output. perfbench/run.py builds
// this binary and is the command to use:
//
//   python3 perfbench/run.py --workload dp_pls --seed 1 --seconds 15 --trace 0
//
// Direct use:
//
//   dshuf_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                   --work-dir=DIR [--small=true]
#include <exception>
#include <filesystem>
#include <iostream>

#include "util/argparse.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  dshuf::ArgParser args("dshuf_perfbench", "Repository benchmark workloads");
  args.flag("workload", "", "dp_pls | exchange_gs | virtual_1024 | sim_pls");
  args.flag("seed", "1", "workload seed");
  args.flag("seconds", "10", "nominal length of the timed window");
  args.flag("trace", "0", "1 = traced run reporting per-layer metrics");
  args.flag("work-dir", "", "directory for stores and the trace file");
  args.flag("small", "false", "reduced sizes (determinism self-test)");
  try {
    if (!args.parse(argc, argv)) return 0;
    perfbench::Options opt;
    opt.workload = args.get("workload");
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    opt.seconds = args.get_double("seconds");
    opt.trace = args.get_int("trace") != 0;
    opt.small = args.get_bool("small");
    opt.work_dir = args.get("work-dir");
    if (opt.work_dir.empty() || opt.seconds <= 0) {
      std::cerr << "dshuf_perfbench: --work-dir and --seconds > 0 required\n";
      return 2;
    }
    std::filesystem::create_directories(opt.work_dir);

    perfbench::Report rep;
    if (opt.workload == "dp_pls") {
      perfbench::run_dp_pls(opt, rep);
    } else if (opt.workload == "exchange_gs") {
      perfbench::run_exchange_gs(opt, rep);
    } else if (opt.workload == "virtual_1024") {
      perfbench::run_virtual_1024(opt, rep);
    } else if (opt.workload == "sim_pls") {
      perfbench::run_sim_pls(opt, rep);
    } else {
      std::cerr << "dshuf_perfbench: unknown workload '" << opt.workload
                << "'\n";
      return 2;
    }
    std::cout << rep.json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "dshuf_perfbench: " << e.what() << "\n";
    return 1;
  }
}
