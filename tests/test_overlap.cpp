// The exchange/compute overlap stack, end to end:
//
//   1. obs::compute_overlap arithmetic pinned on hand-built golden traces
//      (exact microsecond expectations, not tolerances);
//   2. the overlapped schedule (sim/overlap.hpp) leaves shards
//      bit-identical to the sequential schedule AND to the single-process
//      PartialLocalShuffler reference;
//   3. chaos: overlapped epochs under drops/delays/stalls keep the
//      conservation and balance invariants;
//   4. a real recorded trace round-trips through the dshuf_trace library
//      (tests link trace_analysis the way test_lint links the lint rules):
//      load_trace's structural validation — the --check gate — accepts an
//      overlapped trace, and the tool's overlap_report reproduces the
//      in-process numbers exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "chaos_harness.hpp"
#include "gemm_count.hpp"
#include "obs/overlap.hpp"
#include "obs/trace.hpp"
#include "sim/overlap.hpp"
#include "trace_analysis.hpp"

namespace dshuf {
namespace {

using obs::NamedSpan;
using obs::OverlapReport;

OverlapReport report_of(std::vector<NamedSpan> spans) {
  return obs::compute_overlap(
      std::span<const NamedSpan>(spans.data(), spans.size()));
}

// --- golden arithmetic ------------------------------------------------

TEST(OverlapMetric, HalfHiddenExchange) {
  const auto r = report_of({
      {"exchange.epoch", 100, 100},    // [100, 200)
      {"sim.epoch.compute", 150, 100}, // [150, 250)
  });
  EXPECT_EQ(r.exchange_us, 100U);
  EXPECT_EQ(r.compute_us, 100U);
  EXPECT_EQ(r.hidden_us, 50U);
  EXPECT_EQ(r.exchange_spans, 1U);
  EXPECT_EQ(r.compute_spans, 1U);
  EXPECT_DOUBLE_EQ(r.efficiency(), 0.5);
}

TEST(OverlapMetric, OverlappingComputeSpansCoalesceIntoAUnion) {
  // Compute [0,30) and [20,60) must count as one 60us interval, not 70us,
  // and the exchange [10,70) hides exactly its 50us under that union.
  const auto r = report_of({
      {"compute.batch", 0, 30},
      {"compute.batch", 20, 40},
      {"exchange.epoch", 10, 60},
  });
  EXPECT_EQ(r.compute_us, 60U);
  EXPECT_EQ(r.exchange_us, 60U);
  EXPECT_EQ(r.hidden_us, 50U);
}

TEST(OverlapMetric, ExchangeSpansSumAcrossHiddenAndExposed) {
  const auto r = report_of({
      {"sim.epoch.compute", 0, 100},
      {"exchange.epoch", 0, 10},    // fully hidden
      {"sim.epoch.shuffle", 200, 20}, // fully exposed
  });
  EXPECT_EQ(r.exchange_spans, 2U);
  EXPECT_EQ(r.exchange_us, 30U);
  EXPECT_EQ(r.hidden_us, 10U);
  EXPECT_DOUBLE_EQ(r.efficiency(), 10.0 / 30.0);
}

TEST(OverlapMetric, ExchangeAcrossGappedComputeIntervals) {
  // Exchange [0,50) over compute [10,20) + [30,40): hidden = 20.
  const auto r = report_of({
      {"exchange.epoch", 0, 50},
      {"compute.batch", 10, 10},
      {"compute.batch", 30, 10},
  });
  EXPECT_EQ(r.hidden_us, 20U);
  EXPECT_DOUBLE_EQ(r.efficiency(), 0.4);
}

TEST(OverlapMetric, NoExchangeMeansNothingToHide) {
  const auto r = report_of({{"sim.epoch.compute", 0, 100}});
  EXPECT_EQ(r.exchange_spans, 0U);
  EXPECT_EQ(r.exchange_us, 0U);
  EXPECT_DOUBLE_EQ(r.efficiency(), 1.0);
}

TEST(OverlapMetric, NoComputeMeansNothingHidden) {
  const auto r = report_of({{"exchange.epoch", 0, 100}});
  EXPECT_EQ(r.hidden_us, 0U);
  EXPECT_DOUBLE_EQ(r.efficiency(), 0.0);
}

TEST(OverlapMetric, UnrelatedSpansDoNotPerturbTheNumbers) {
  const auto quiet = report_of({
      {"exchange.epoch", 100, 100},
      {"sim.epoch.compute", 150, 100},
  });
  const auto noisy = report_of({
      {"exchange.epoch", 100, 100},
      {"sim.epoch.compute", 150, 100},
      {"io.read", 0, 10'000},
      {"sim.epoch", 90, 500},
      {"exchange_frames", 120, 40},  // not "exchange." taxonomy
  });
  EXPECT_EQ(noisy.exchange_us, quiet.exchange_us);
  EXPECT_EQ(noisy.hidden_us, quiet.hidden_us);
  EXPECT_EQ(noisy.compute_us, quiet.compute_us);
}

TEST(OverlapMetric, SpanTaxonomy) {
  EXPECT_TRUE(obs::is_exchange_span("exchange.epoch"));
  EXPECT_TRUE(obs::is_exchange_span("sim.epoch.shuffle"));
  EXPECT_TRUE(obs::is_compute_span("sim.epoch.compute"));
  EXPECT_TRUE(obs::is_compute_span("compute.batch"));
  EXPECT_FALSE(obs::is_exchange_span("sim.epoch.compute"));
  EXPECT_FALSE(obs::is_compute_span("exchange.epoch"));
  EXPECT_FALSE(obs::is_exchange_span("io.read"));
  EXPECT_FALSE(obs::is_compute_span("io.read"));
}

// --- schedule equivalence ---------------------------------------------

sim::OverlapConfig tiny_overlap_config() {
  sim::OverlapConfig cfg;
  cfg.n = 64;
  cfg.ranks = 4;
  cfg.q = 0.3;
  cfg.epochs = 3;
  cfg.seed = 5;
  cfg.compute = [](int, std::size_t) {};  // shards don't depend on compute
  return cfg;
}

chaos::ChaosConfig matching_chaos_config(const sim::OverlapConfig& cfg) {
  chaos::ChaosConfig c;
  c.n = cfg.n;
  c.m = cfg.ranks;
  c.q = cfg.q;
  c.epochs = cfg.epochs;
  c.seed = cfg.seed;
  return c;
}

TEST(OverlapSchedule, OverlappedMatchesSequentialAndReference) {
  auto cfg = tiny_overlap_config();
  for (const std::uint64_t seed : {5ULL, 6ULL, 7ULL}) {
    cfg.seed = seed;
    const auto reference =
        chaos::sequential_reference(matching_chaos_config(cfg));

    cfg.overlapped = false;
    const auto seq = sim::run_overlapped_epochs(cfg);
    cfg.overlapped = true;
    const auto ovl = sim::run_overlapped_epochs(cfg);

    EXPECT_EQ(seq.shards, reference)
        << "sequential arm diverged from PartialLocalShuffler, seed " << seed;
    EXPECT_EQ(ovl.shards, reference)
        << "overlapped arm diverged from PartialLocalShuffler, seed " << seed;
    chaos::expect_conservation(ovl.shards, cfg.n);
  }
}

// The default compute phase is a counted GEMM burn: one overlapped run
// raises tensor.gemm.* by exactly its burns, compute_reps n x n x n GEMMs
// per rank and epoch at 2n^3 flops each.
TEST(OverlapSchedule, GemmBurnIsCountedInTensorGemmCounters) {
  auto cfg = tiny_overlap_config();
  cfg.compute = nullptr;
  cfg.compute_gemm_n = 24;
  cfg.compute_reps = 3;
  const GemmCount before = gemm_count();
  (void)sim::run_overlapped_epochs(cfg);
  const GemmCount got = gemm_count() - before;
  const std::uint64_t calls = static_cast<std::uint64_t>(cfg.ranks) *
                              cfg.epochs * cfg.compute_reps;
  const std::uint64_t n = cfg.compute_gemm_n;
  EXPECT_EQ(got.calls, calls);
  EXPECT_EQ(got.flops, calls * 2 * n * n * n);
}

// --- chaos under overlap ----------------------------------------------

void expect_total_drift_bounded(const sim::OverlapResult& res,
                                std::size_t n, int ranks) {
  const auto initial = chaos::make_shards(n, ranks);
  std::size_t quota_sum = 0;
  for (const auto q : res.quota_per_epoch) quota_sum += q;
  ASSERT_EQ(res.shards.size(), initial.size());
  for (std::size_t r = 0; r < res.shards.size(); ++r) {
    const std::size_t now = res.shards[r].size();
    const std::size_t was = initial[r].size();
    const std::size_t drift = now > was ? now - was : was - now;
    EXPECT_LE(drift, quota_sum)
        << "rank " << r << " drifted past the summed per-epoch quotas";
  }
}

TEST(OverlapChaos, FaultedOverlappedEpochsConserveSamples) {
  auto cfg = tiny_overlap_config();
  cfg.overlapped = true;
  cfg.robust = chaos::default_robustness();
  comm::FaultSpec spec;
  spec.drop_prob = 0.3;
  spec.delay_prob = 0.3;
  spec.min_delay_us = 100;
  spec.max_delay_us = 5'000;
  cfg.faults = spec;
  for (const std::uint64_t fault_seed : {1ULL, 2ULL, 3ULL}) {
    cfg.fault_seed = fault_seed;
    const auto res = sim::run_overlapped_epochs(cfg);
    chaos::expect_conservation(res.shards, cfg.n);
    expect_total_drift_bounded(res, cfg.n, cfg.ranks);
  }
}

TEST(OverlapChaos, FaultedOverlappedEpochsAreSeedDeterministic) {
  auto cfg = tiny_overlap_config();
  cfg.overlapped = true;
  cfg.robust = chaos::default_robustness();
  comm::FaultSpec spec;
  spec.drop_prob = 0.4;
  cfg.faults = spec;
  cfg.fault_seed = 9;
  const auto a = sim::run_overlapped_epochs(cfg);
  const auto b = sim::run_overlapped_epochs(cfg);
  EXPECT_EQ(a.shards, b.shards);
}

TEST(OverlapChaos, NoDropFaultsStillMatchReference) {
  // Delays and stalls reorder the wire but never change the outcome.
  auto cfg = tiny_overlap_config();
  cfg.overlapped = true;
  cfg.robust = chaos::default_robustness();
  comm::FaultSpec spec;
  spec.dup_prob = 0.2;
  spec.delay_prob = 0.5;
  spec.min_delay_us = 100;
  spec.max_delay_us = 8'000;
  cfg.faults = spec;
  const auto res = sim::run_overlapped_epochs(cfg);
  EXPECT_EQ(res.shards, chaos::sequential_reference(matching_chaos_config(cfg)));
}

// --- trace round-trip through the dshuf_trace library -----------------

TEST(OverlapTrace, RecordedTraceRoundTripsThroughTheTool) {
  auto& tracer = obs::Tracer::instance();
  tracer.set_enabled(true);
  tracer.clear();

  auto cfg = tiny_overlap_config();
  cfg.overlapped = true;
  cfg.compute = {};  // use the gemm burn so compute spans have real width
  cfg.compute_gemm_n = 128;
  cfg.compute_reps = 2;
  const auto res = sim::run_overlapped_epochs(cfg);
  ASSERT_FALSE(res.shards.empty());

  const auto snapshot = tracer.snapshot();
  const auto in_process = obs::compute_overlap(snapshot);
  EXPECT_GT(in_process.exchange_spans, 0U);
  EXPECT_GT(in_process.compute_spans, 0U);
  EXPECT_GT(in_process.compute_us, 0U);

  const std::string path = ::testing::TempDir() + "dshuf_overlap_trace.json";
  ASSERT_TRUE(tracer.write_chrome_trace(path));
  tracer.clear();
  tracer.set_enabled(false);

  // load_trace performs the structural validation behind `dshuf_trace
  // --check`; an overlapped trace must pass it.
  const auto events = tracetool::load_trace(path);
  EXPECT_GE(events.size(), snapshot.size());

  // And the tool-side overlap report reproduces the in-process numbers.
  const auto from_file = tracetool::overlap_report(events);
  EXPECT_EQ(from_file.exchange_spans, in_process.exchange_spans);
  EXPECT_EQ(from_file.compute_spans, in_process.compute_spans);
  EXPECT_EQ(from_file.exchange_us, in_process.exchange_us);
  EXPECT_EQ(from_file.hidden_us, in_process.hidden_us);
  EXPECT_EQ(from_file.compute_us, in_process.compute_us);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dshuf
