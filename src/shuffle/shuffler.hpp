// Shuffling strategies (Section III of the paper).
//
// A Shuffler owns the epoch-by-epoch assignment of sample ids to workers:
//
//   * GlobalShuffler  — every epoch draws a fresh permutation of the WHOLE
//                       dataset and deals it to workers (PyTorch
//                       DistributedSampler semantics). Needs global data
//                       access (the paper's baseline, PFS- or full-replica-
//                       backed).
//   * LocalShuffler   — workers keep their initial shard forever and only
//                       permute it locally each epoch (Q = 0).
//   * PartialLocalShuffler — the paper's contribution: each epoch every
//                       worker exchanges k = ceil(Q * N/M) randomly chosen
//                       local samples through the balanced Algorithm-1 plan
//                       (or, given a Topology, the Section V-F grouped
//                       plan) and then shuffles the updated shard locally.
//
// The driver is sequential over workers but computes exactly what the
// distributed implementation computes (every random draw is derived from
// (seed, epoch, worker) — no draw depends on execution order), so the
// simulator's results match a real M-rank run of the same seeds.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>

#include "shuffle/exchange_plan.hpp"
#include "shuffle/shard_store.hpp"
#include "shuffle/topology.hpp"
#include "shuffle/types.hpp"

namespace dshuf::shuffle {

class Shuffler {
 public:
  virtual ~Shuffler() = default;

  /// Prepare epoch `epoch`: perform the strategy's shuffle/exchange.
  virtual void begin_epoch(std::size_t epoch) = 0;

  /// Sample ids worker `worker` processes this epoch, in visit order.
  [[nodiscard]] virtual const std::vector<SampleId>& local_order(
      int worker) const = 0;

  [[nodiscard]] virtual int workers() const = 0;
  [[nodiscard]] virtual std::string label() const = 0;

  /// Exchange statistics for the last begin_epoch (null when the strategy
  /// does not exchange).
  [[nodiscard]] virtual const ExchangeStats* last_stats() const {
    return nullptr;
  }
};

/// Global shuffling: permute all of [0, N), deal strided to workers.
class GlobalShuffler final : public Shuffler {
 public:
  GlobalShuffler(std::size_t dataset_size, int workers, std::uint64_t seed);

  void begin_epoch(std::size_t epoch) override;
  [[nodiscard]] const std::vector<SampleId>& local_order(
      int worker) const override;
  [[nodiscard]] int workers() const override { return workers_; }
  [[nodiscard]] std::string label() const override { return "global"; }

 private:
  std::size_t dataset_size_;
  int workers_;
  Rng base_rng_;
  std::vector<std::vector<SampleId>> orders_;
};

/// Local shuffling: fixed shards, per-epoch local permutation.
class LocalShuffler final : public Shuffler {
 public:
  LocalShuffler(std::vector<std::vector<SampleId>> shards, std::uint64_t seed);

  void begin_epoch(std::size_t epoch) override;
  [[nodiscard]] const std::vector<SampleId>& local_order(
      int worker) const override;
  [[nodiscard]] int workers() const override {
    return static_cast<int>(orders_.size());
  }
  [[nodiscard]] std::string label() const override { return "local"; }

 private:
  Rng base_rng_;
  std::vector<std::vector<SampleId>> orders_;
};

/// How a worker selects which local samples to contribute to the global
/// exchange (Algorithm 1 line 1). The paper uses a uniform random pick;
/// the importance-based policies implement its Section IV-B future-work
/// direction — biasing the exchange toward informative samples to counter
/// the sampling bias of partial shuffling.
enum class PickPolicy {
  kUniform,   // random permutation prefix (the paper's Algorithm 1)
  kHighLoss,  // export the samples this worker finds hardest
  kLowLoss,   // export the samples this worker has mastered
};

std::string to_string(PickPolicy p);

/// Partial local shuffling (the paper's contribution). The sequential
/// reference for the message-passing exchange (shuffle/mpi_exchange.hpp):
/// both take their plans from the same cache and their picks from the
/// same helper, so their shards agree bit for bit.
class PartialLocalShuffler final : public Shuffler {
 public:
  /// `q` is the exchange fraction. With a `topology` of more than one
  /// group, every epoch exchanges through the grouped plan of Section
  /// V-F (ExchangePlan::rebuild_grouped) — the shape the message-passing
  /// exchange uses when passed the same topology; its shape is checked
  /// against the worker count here. Without one, or with a single
  /// group, the flat Algorithm-1 plan.
  PartialLocalShuffler(std::vector<std::vector<SampleId>> shards, double q,
                       std::uint64_t seed,
                       std::optional<Topology> topology = std::nullopt);

  void begin_epoch(std::size_t epoch) override;
  [[nodiscard]] const std::vector<SampleId>& local_order(
      int worker) const override;
  [[nodiscard]] int workers() const override {
    return static_cast<int>(stores_.size());
  }
  [[nodiscard]] std::string label() const override;
  [[nodiscard]] const ExchangeStats* last_stats() const override {
    return &stats_;
  }

  [[nodiscard]] double q() const { return q_; }
  /// Per-worker stores (tests verify capacity bounds and conservation).
  [[nodiscard]] const std::vector<ShardStore>& stores() const {
    return stores_;
  }

  /// Switch the exchange-pick policy. For the importance policies, callers
  /// must provide fresh per-sample scores (indexed by SampleId) before
  /// each begin_epoch via set_sample_scores(); without scores the policy
  /// silently behaves uniformly for that epoch.
  void set_pick_policy(PickPolicy policy) { pick_policy_ = policy; }
  [[nodiscard]] PickPolicy pick_policy() const { return pick_policy_; }
  void set_sample_scores(std::vector<float> scores) {
    scores_ = std::move(scores);
  }

 private:
  /// Fill `out` with one worker's outgoing samples under the active
  /// policy.
  void select_outgoing(std::size_t epoch, int worker, std::size_t quota,
                       std::vector<SampleId>& out);

  double q_;
  std::uint64_t seed_;
  std::optional<Topology> topology_;  // resolved for the worker count
  std::vector<ShardStore> stores_;
  std::vector<std::vector<SampleId>> orders_;
  SharedPlan held_plan_;  // this epoch's plan in the shared cache
  std::vector<std::vector<SampleId>> outgoing_;  // [worker], reused
  std::vector<std::uint32_t> picks_;             // pick scratch, reused
  ExchangeStats stats_;
  PickPolicy pick_policy_ = PickPolicy::kUniform;
  std::vector<float> scores_;
};

/// Factory covering all three strategies. `shards` is the initial
/// partition; global ignores it beyond N and M.
std::unique_ptr<Shuffler> make_shuffler(Strategy strategy, double q,
                                        std::size_t dataset_size,
                                        std::vector<std::vector<SampleId>> shards,
                                        std::uint64_t seed);

/// The per-worker pick permutation of Algorithm 1 line 1, written into
/// `out` (resized; capacity reused): which local slots worker `worker`
/// contributes in epoch `epoch`, in round order.
void pick_permutation_into(std::uint64_t seed, std::size_t epoch, int worker,
                           std::size_t shard_size,
                           std::vector<std::uint32_t>& out);

/// Algorithm 1 line 1 as both drivers run it: the ids at the first `quota`
/// slots of worker `worker`'s pick permutation over `shard`, written into
/// `out` (round i sends out[i]). `picks` is scratch; both vectors keep
/// their capacity, so a steady-state epoch allocates nothing here.
void pick_outgoing_into(std::uint64_t seed, std::size_t epoch, int worker,
                        std::span<const SampleId> shard, std::size_t quota,
                        std::vector<std::uint32_t>& picks,
                        std::vector<SampleId>& out);

/// The end-of-epoch local shuffle applied to a worker's shard ids. Both
/// drivers (PartialLocalShuffler and callers of run_pls_exchange_epoch)
/// must apply this same stream for their stores to stay bit-compatible
/// across epochs.
void post_exchange_local_shuffle(std::uint64_t seed, std::size_t epoch,
                                 int worker, std::vector<SampleId>& ids);

}  // namespace dshuf::shuffle
