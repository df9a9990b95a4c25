// bench_overlap: the split-phase exchange measured against the sequential
// schedule — the paper's "shuffling cost is what training cannot hide"
// claim as a runnable experiment. Two arms over identical seeds/shards:
//
//   sequential — each epoch's exchange completes before its compute;
//   overlapped — PlsEpochExchange::post fires its frames as asynchronous
//                sends, compute runs, finish() collects — the
//                exchange's in-flight window hides under compute.
//
// Prints wall time per epoch for both arms plus the exchange/compute
// overlap report (obs/overlap.hpp) for the overlapped arm, and asserts
// the two schedules leave bit-identical shards. The tracer is cleared
// between arms, so a --trace-out file holds the overlapped arm only —
// CI runs dshuf_trace --min-overlap=0.5 against it.
#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "obs/overlap.hpp"
#include "obs/trace.hpp"
#include "sim/overlap.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const dshuf::bench::ObsSession obs_session(argc, argv);
  using namespace dshuf;
  obs::Tracer::instance().set_enabled(true);

  sim::OverlapConfig cfg;
  cfg.n = 512;
  cfg.ranks = 4;
  cfg.q = 0.3;
  cfg.epochs = 6;
  cfg.seed = 21;
  cfg.compute_gemm_n = 160;
  cfg.compute_reps = 4;

  std::cout << "\n==================================================\n"
            << "Exchange/compute overlap — split-phase vs sequential\n"
            << "==================================================\n"
            << "ranks " << cfg.ranks << ", n " << cfg.n << ", q " << cfg.q
            << ", epochs " << cfg.epochs << "\n";

  auto timed_run = [&](bool overlapped) {
    sim::OverlapConfig arm = cfg;
    arm.overlapped = overlapped;
    const auto t0 = std::chrono::steady_clock::now();
    sim::OverlapResult res = sim::run_overlapped_epochs(arm);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return std::make_pair(std::move(res), ms);
  };

  auto [seq, seq_ms] = timed_run(false);
  // Keep only the overlapped arm in the recorded trace (and in the
  // --trace-out file the obs session writes at exit).
  obs::Tracer::instance().clear();
  auto [ovl, ovl_ms] = timed_run(true);

  const auto epochs_d = static_cast<double>(cfg.epochs);
  TextTable arms("Wall time per epoch");
  arms.header({"schedule", "total_ms", "ms/epoch"});
  arms.row({"sequential", fmt_double(seq_ms), fmt_double(seq_ms / epochs_d)});
  arms.row({"overlapped", fmt_double(ovl_ms), fmt_double(ovl_ms / epochs_d)});
  arms.print(std::cout);

  const auto report =
      obs::compute_overlap(obs::Tracer::instance().snapshot());
  TextTable ot("Overlap report (overlapped arm)");
  ot.header({"metric", "value"});
  ot.row({"exchange spans", std::to_string(report.exchange_spans)});
  ot.row({"exchange_ms",
          fmt_double(static_cast<double>(report.exchange_us) / 1e3)});
  ot.row({"hidden_ms",
          fmt_double(static_cast<double>(report.hidden_us) / 1e3)});
  ot.row({"compute_ms",
          fmt_double(static_cast<double>(report.compute_us) / 1e3)});
  ot.row({"efficiency", fmt_percent(report.efficiency())});
  ot.print(std::cout);

  DSHUF_CHECK(seq.shards == ovl.shards,
              "overlapped schedule changed the shards");
  std::cout << "shards bit-identical across schedules: yes\n"
            << "Reading: the overlapped arm's exchange window sits under\n"
               "compute, so its visible cost is the unhidden tail only —\n"
               "the Fig. 4 overlap argument, measured on a real trace.\n";
  return 0;
}
