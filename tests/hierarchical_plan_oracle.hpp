// Independent oracle for ExchangePlan::rebuild_grouped: the hierarchical
// global exchange plan (Section V-F) built the direct way, one vector per
// round, from the same forked RNG stream. test_topology_plan holds the
// grouped ExchangePlan to it draw for draw.
//
// Workers are organised into G groups of S ranks (a group = a node or a
// rack). Each exchange round is still a permutation of ALL ranks — so the
// Algorithm-1 balance guarantee is preserved exactly — but the permutation
// is constrained to the product of
//   * a permutation of the groups (inter-group traffic), and
//   * per-group permutations of the local slots (intra-group traffic),
// and a configurable fraction of rounds uses the identity group
// permutation (purely intra-group rounds, which cost near-nothing on a
// real network).
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace dshuf::shuffle {

class HierarchicalExchangePlan {
 public:
  /// `workers` must equal `groups * group_size`. `intra_fraction` of the
  /// rounds are intra-group only (identity group permutation).
  HierarchicalExchangePlan(std::uint64_t seed, std::size_t epoch, int groups,
                           int group_size, std::size_t per_worker_quota,
                           double intra_fraction = 0.5);

  [[nodiscard]] int workers() const { return groups_ * group_size_; }
  [[nodiscard]] int groups() const { return groups_; }
  [[nodiscard]] int group_size() const { return group_size_; }
  [[nodiscard]] std::size_t rounds() const { return dest_.size(); }

  /// Destination of worker `rank`'s round-i sample.
  [[nodiscard]] int dest(std::size_t round, int rank) const;
  /// Source whose round-i sample arrives at `rank`.
  [[nodiscard]] int source(std::size_t round, int rank) const;

  /// True if round i crosses group boundaries for at least one rank.
  [[nodiscard]] bool round_is_inter_group(std::size_t round) const;

  /// Fraction of all (round, rank) sends that stay within the sender's
  /// group — the traffic-locality metric the scheme optimises.
  [[nodiscard]] double intra_group_traffic_fraction() const;

  /// Group of a rank (ranks are grouped contiguously: rank / group_size).
  [[nodiscard]] int group_of(int rank) const { return rank / group_size_; }

 private:
  int groups_;
  int group_size_;
  std::vector<std::vector<int>> dest_;  // [round][rank]
  std::vector<std::vector<int>> src_;   // inverse permutations
  std::vector<bool> inter_;             // per-round inter-group flag
};

inline HierarchicalExchangePlan::HierarchicalExchangePlan(
    std::uint64_t seed, std::size_t epoch, int groups, int group_size,
    std::size_t per_worker_quota, double intra_fraction)
    : groups_(groups), group_size_(group_size) {
  DSHUF_CHECK_GT(groups, 0, "need at least one group");
  DSHUF_CHECK_GT(group_size, 0, "need at least one rank per group");
  DSHUF_CHECK(intra_fraction >= 0.0 && intra_fraction <= 1.0,
              "intra fraction must be in [0, 1]");
  Rng base(seed);
  Rng stream = base.fork(0x41E2, epoch);

  const auto m = static_cast<std::size_t>(groups * group_size);
  const auto intra_rounds = static_cast<std::size_t>(
      std::round(intra_fraction * static_cast<double>(per_worker_quota)));

  dest_.reserve(per_worker_quota);
  src_.reserve(per_worker_quota);
  inter_.reserve(per_worker_quota);
  for (std::size_t i = 0; i < per_worker_quota; ++i) {
    const bool inter = i >= intra_rounds && groups > 1;
    // Group-level permutation: identity for intra rounds.
    std::vector<std::uint32_t> gperm;
    if (inter) {
      gperm = stream.permutation(static_cast<std::size_t>(groups));
    } else {
      gperm.resize(static_cast<std::size_t>(groups));
      for (std::size_t g = 0; g < gperm.size(); ++g) {
        gperm[g] = static_cast<std::uint32_t>(g);
      }
    }
    // Per-source-group local-slot permutation.
    std::vector<int> dest(m);
    std::vector<int> src(m);
    for (int g = 0; g < groups; ++g) {
      const auto lperm =
          stream.permutation(static_cast<std::size_t>(group_size));
      for (int s = 0; s < group_size; ++s) {
        const int from = g * group_size + s;
        const int to = static_cast<int>(gperm[g]) * group_size +
                       static_cast<int>(lperm[s]);
        dest[from] = to;
        src[to] = from;
      }
    }
    dest_.push_back(std::move(dest));
    src_.push_back(std::move(src));
    inter_.push_back(inter);
  }
}

inline int HierarchicalExchangePlan::dest(std::size_t round, int rank) const {
  DSHUF_CHECK_LT(round, dest_.size(), "round out of range");
  DSHUF_CHECK(rank >= 0 && rank < workers(), "rank out of range");
  return dest_[round][static_cast<std::size_t>(rank)];
}

inline int HierarchicalExchangePlan::source(std::size_t round,
                                            int rank) const {
  DSHUF_CHECK_LT(round, src_.size(), "round out of range");
  DSHUF_CHECK(rank >= 0 && rank < workers(), "rank out of range");
  return src_[round][static_cast<std::size_t>(rank)];
}

inline bool HierarchicalExchangePlan::round_is_inter_group(
    std::size_t round) const {
  DSHUF_CHECK_LT(round, inter_.size(), "round out of range");
  return inter_[round];
}

inline double HierarchicalExchangePlan::intra_group_traffic_fraction() const {
  if (dest_.empty()) return 1.0;
  std::size_t intra = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < dest_.size(); ++i) {
    for (int r = 0; r < workers(); ++r) {
      ++total;
      if (group_of(r) == group_of(dest_[i][static_cast<std::size_t>(r)])) {
        ++intra;
      }
    }
  }
  return static_cast<double>(intra) / static_cast<double>(total);
}

}  // namespace dshuf::shuffle
