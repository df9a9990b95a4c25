// Algorithm 1 of the paper: the balanced global exchange.
//
// Each epoch, every worker exchanges k = ceil(Q * N/M) samples. The plan
// consists of k "rounds"; round i holds a random permutation dest_i of the
// ranks, derived from a seed SHARED by all workers (paper: "all workers use
// the same random seed ... to assure single source and single destination
// for each exchanged sample"). In round i, worker r sends its i-th selected
// sample to dest_i[r] and receives exactly one sample from the unique
// worker s with dest_i[s] == r. Because every round is a permutation, every
// worker sends AND receives exactly k samples — the balance property the
// paper's scheme guarantees and the naive pick-a-random-destination scheme
// does not (see bench_ablation_balance).
//
// The plan is a pure function of (seed, epoch, workers, quota): any worker
// can compute its own sends/receives locally, which is what makes the
// distributed implementation require only a local view.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "shuffle/topology.hpp"
#include "util/rng.hpp"

namespace dshuf::shuffle {

class ExchangePlan {
 public:
  /// Empty plan; fill it with rebuild(). Exists so the plan cache can
  /// recycle an entry and rebuild it in place without reallocating the
  /// round tables.
  ExchangePlan() = default;

  /// Build the plan for one epoch. `per_worker_quota` is k, the number of
  /// samples each worker contributes (already scaled by Q by the caller).
  /// `allow_self` keeps the paper's behaviour of permitting a worker to
  /// "send to itself" when the permutation fixes its rank (a no-op
  /// transfer); disabling it re-draws fixed points for an ablation.
  ExchangePlan(std::uint64_t seed, std::size_t epoch, int workers,
               std::size_t per_worker_quota, bool allow_self = true);

  /// Recompute the plan in place. Identical RNG draw sequence to the
  /// constructor (same (seed, epoch, workers, quota) => same plan, bit for
  /// bit); with unchanged workers/quota no storage is reallocated.
  void rebuild(std::uint64_t seed, std::size_t epoch, int workers,
               std::size_t per_worker_quota, bool allow_self = true);

  /// Recompute in place as the topology-constrained plan: every round is
  /// still a permutation of all groups*group_size ranks (the balance
  /// guarantee is untouched), but each is the product of a group-level
  /// permutation and per-source-group local-slot permutations, with the
  /// first round(intra_fraction * quota) rounds using the identity group
  /// permutation. Draw-for-draw identical to the independently written
  /// oracle in tests/hierarchical_plan_oracle.hpp — the property suite
  /// asserts the tables match bit for bit.
  void rebuild_grouped(std::uint64_t seed, std::size_t epoch, int groups,
                       int group_size, std::size_t per_worker_quota,
                       double intra_fraction);

  [[nodiscard]] int workers() const { return workers_; }
  [[nodiscard]] std::size_t rounds() const { return rounds_; }

  /// Destination of worker `rank`'s round-i sample.
  [[nodiscard]] int dest(std::size_t round, int rank) const;
  /// Source whose round-i sample arrives at worker `rank`.
  [[nodiscard]] int source(std::size_t round, int rank) const;

  /// All destinations for a rank across rounds (send list, round order).
  [[nodiscard]] std::vector<int> dests_for(int rank) const;
  /// All sources for a rank across rounds (receive list, round order).
  [[nodiscard]] std::vector<int> sources_for(int rank) const;

  /// Number of round-fixed-points (rank sends to itself) — diagnostics.
  [[nodiscard]] std::size_t self_sends() const;

 private:
  /// Record that in round `round` rank `from` sends to rank `to`.
  void link(std::size_t round, std::size_t from, std::size_t to) {
    dest_[from * rounds_ + round] = static_cast<int>(to);
    src_[to * rounds_ + round] = static_cast<int>(from);
  }

  int workers_ = 0;
  std::size_t rounds_ = 0;
  // Rank-major tables, [rank * rounds_ + round]: a rank's sends and its
  // receives are each one contiguous row — all the exchange reads — so
  // ranks sharing one plan read few cache lines, and mostly disjoint ones.
  std::vector<int> dest_;
  std::vector<int> src_;  // inverse permutation per round
  std::vector<std::uint32_t> perm_;   // rebuild scratch (capacity reused)
  std::vector<std::uint32_t> gperm_;  // grouped-rebuild scratch
};

/// Everything that determines one epoch's plan. groups <= 1 means the flat
/// Algorithm-1 plan; otherwise the grouped one.
struct PlanSpec {
  std::uint64_t seed = 0;
  std::size_t epoch = 0;
  int workers = 0;
  std::size_t quota = 0;
  int groups = 1;
  int group_size = 0;
  double intra_fraction = 0.5;

  friend bool operator==(const PlanSpec&, const PlanSpec&) = default;
};

/// The spec of `epoch`'s plan for `workers` ranks: the grouped plan when
/// `topology` has more than one group, the flat Algorithm-1 plan otherwise
/// (no topology, or a single group spanning every rank). Both drivers
/// derive their plans here. Checks the topology's shape against
/// `workers`.
[[nodiscard]] PlanSpec plan_spec_for(std::uint64_t seed, std::size_t epoch,
                                     int workers, std::size_t quota,
                                     const std::optional<Topology>& topology);

/// A reference to one epoch's plan in the process-wide plan cache (see
/// acquire_exchange_plan). The plan stays immutable while any SharedPlan
/// refers to it. Move-only: a move hands the reference over, and dropping
/// one (reset, move-assignment, destruction) takes the cache lock, so the
/// holder's reads of the plan happen-before any in-place rebuild of it.
class SharedPlan {
 public:
  SharedPlan() = default;
  SharedPlan(SharedPlan&& other) noexcept = default;
  SharedPlan& operator=(SharedPlan&& other) noexcept;
  SharedPlan(const SharedPlan&) = delete;
  SharedPlan& operator=(const SharedPlan&) = delete;
  ~SharedPlan() { reset(); }

  void reset();

  [[nodiscard]] const ExchangePlan* get() const { return plan_.get(); }
  [[nodiscard]] const ExchangePlan& operator*() const { return *plan_; }

 private:
  friend void acquire_exchange_plan(const PlanSpec& spec, SharedPlan& held);
  std::shared_ptr<ExchangePlan> plan_;
};

/// Point `held` at the plan for `spec`, building it on a miss: one plan per
/// epoch per PROCESS, not per rank. A thousand virtual ranks each building
/// a quota x M table would cost O(M^2 * quota) time and memory, and every
/// threaded rank would redo the same draws.
///
/// The cache keeps the last few specs (ranks at an epoch boundary may
/// straddle two). A miss recycles the least recently used entry: rebuilt
/// in place when no SharedPlan still refers to it — which keeps a warmed-up
/// epoch allocation-free (tests/test_exchange_alloc.cpp) — and otherwise
/// replaced by a fresh plan, the old one living on with its holders.
void acquire_exchange_plan(const PlanSpec& spec, SharedPlan& held);

/// Plans the cache has built since the process started. Kept out of the
/// metrics registry: it depends on what earlier runs left in the cache,
/// and a run's registry snapshot must not.
[[nodiscard]] std::uint64_t exchange_plan_builds();

/// Quota k = ceil(Q * shard_size), clamped to the shard size. Q outside
/// [0, 1] is rejected.
std::size_t exchange_quota(std::size_t shard_size, double q);

/// Naive unbalanced variant for the ablation bench: each worker draws an
/// independent random destination per sample (what DeepIO-style
/// uncontrolled exchange does). Returns receive counts per worker.
std::vector<std::size_t> naive_exchange_recv_counts(std::uint64_t seed,
                                                    std::size_t epoch,
                                                    int workers,
                                                    std::size_t quota);

}  // namespace dshuf::shuffle
