// Overlapped multi-rank exchange driver — the measurement harness for the
// paper's "judge shuffling cost by what training can hide" claim.
//
// Each epoch, every rank runs the split-phase exchange
// (shuffle::PlsEpochExchange): post() fires the rank's coalesced frames as
// asynchronous sends, the rank then runs its compute phase under a
// "compute.batch" span, and finish() collects/reconciles once compute is
// done. The "exchange.epoch"
// span therefore brackets the whole in-flight window, and the dshuf_trace
// overlap report measures how much of it hid under compute.
//
// With `overlapped = false` the same epochs run the classic sequential
// schedule (the entire exchange completes before compute starts) — the
// baseline arm of bench_overlap. Both schedules, and any fault plan the
// robust protocol survives, produce shards governed by the same
// conservation invariants as the chaos harness; tests/test_overlap.cpp
// asserts overlapped == sequential == PartialLocalShuffler bit-for-bit on
// a perfect fabric.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "comm/fault.hpp"
#include "shuffle/mpi_exchange.hpp"

namespace dshuf::sim {

/// Per-rank compute phase invoked between post() and finish(). Runs on the
/// rank's thread; receives (rank, epoch).
using ComputeFn = std::function<void(int rank, std::size_t epoch)>;

struct OverlapConfig {
  std::size_t n = 256;    ///< dataset size (dealt round-robin to ranks)
  int ranks = 4;
  double q = 0.3;         ///< exchange fraction
  std::size_t epochs = 4;
  std::uint64_t seed = 1;
  /// Split-phase overlapped schedule (true) or the sequential baseline
  /// where each epoch's exchange completes before its compute (false).
  bool overlapped = true;
  /// Compute phase; when empty, a deterministic GEMM burn of
  /// `compute_gemm_n`^3 x `compute_reps` stands in for a batch.
  ComputeFn compute;
  std::size_t compute_gemm_n = 160;
  std::size_t compute_reps = 4;
  /// Robust retry protocol; required when `faults` is set.
  std::optional<shuffle::ExchangeRobustness> robust;
  /// Fault plan injected into the World (chaos-under-overlap).
  std::optional<comm::FaultSpec> faults;
  std::uint64_t fault_seed = 1;
};

struct OverlapResult {
  std::vector<std::vector<shuffle::SampleId>> shards;  ///< final, [rank]
  std::vector<std::vector<shuffle::ExchangeOutcome>> outcomes;  ///< [epoch][rank]
  std::vector<std::size_t> quota_per_epoch;
};

/// Run `cfg.epochs` overlapped (or baseline) exchange+compute epochs over
/// an in-process World, including the post-exchange local shuffle.
OverlapResult run_overlapped_epochs(const OverlapConfig& cfg);

}  // namespace dshuf::sim
