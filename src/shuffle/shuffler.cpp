#include "shuffle/shuffler.hpp"

#include "shuffle/uncontrolled.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace dshuf::shuffle {

std::string to_string(PickPolicy p) {
  switch (p) {
    case PickPolicy::kUniform:
      return "uniform";
    case PickPolicy::kHighLoss:
      return "high-loss";
    case PickPolicy::kLowLoss:
      return "low-loss";
  }
  return "?";
}

namespace {

// Stream tags for Rng::fork — distinct per purpose so streams never alias.
constexpr std::uint64_t kGlobalPermTag = 0x61;
constexpr std::uint64_t kLocalPermTag = 0x62;
constexpr std::uint64_t kPickTag = 0x63;
constexpr std::uint64_t kPostShuffleTag = 0x64;

}  // namespace

// ---------------------------------------------------------------- Global --

GlobalShuffler::GlobalShuffler(std::size_t dataset_size, int workers,
                               std::uint64_t seed)
    : dataset_size_(dataset_size),
      workers_(workers),
      base_rng_(seed),
      orders_(static_cast<std::size_t>(workers)) {
  DSHUF_CHECK_GT(workers, 0, "need at least one worker");
  DSHUF_CHECK_GE(dataset_size, static_cast<std::size_t>(workers),
                 "need at least one sample per worker");
}

void GlobalShuffler::begin_epoch(std::size_t epoch) {
  Rng rng = base_rng_.fork(kGlobalPermTag, epoch);
  const auto perm = rng.permutation(dataset_size_);
  const auto m = static_cast<std::size_t>(workers_);
  for (auto& o : orders_) o.clear();
  // Strided deal over the global permutation — PyTorch DistributedSampler.
  for (std::size_t i = 0; i < perm.size(); ++i) {
    orders_[i % m].push_back(perm[i]);
  }
}

const std::vector<SampleId>& GlobalShuffler::local_order(int worker) const {
  DSHUF_CHECK(worker >= 0 && worker < workers_, "worker out of range");
  return orders_[static_cast<std::size_t>(worker)];
}

// ----------------------------------------------------------------- Local --

LocalShuffler::LocalShuffler(std::vector<std::vector<SampleId>> shards,
                             std::uint64_t seed)
    : base_rng_(seed), orders_(std::move(shards)) {
  DSHUF_CHECK(!orders_.empty(), "need at least one shard");
}

void LocalShuffler::begin_epoch(std::size_t epoch) {
  for (std::size_t w = 0; w < orders_.size(); ++w) {
    Rng rng = base_rng_.fork(kLocalPermTag, epoch, w);
    rng.shuffle(orders_[w]);
  }
}

const std::vector<SampleId>& LocalShuffler::local_order(int worker) const {
  DSHUF_CHECK(worker >= 0 && worker < static_cast<int>(orders_.size()),
              "worker out of range");
  return orders_[static_cast<std::size_t>(worker)];
}

// --------------------------------------------------------------- Partial --

PartialLocalShuffler::PartialLocalShuffler(
    std::vector<std::vector<SampleId>> shards, double q, std::uint64_t seed,
    std::optional<Topology> topology)
    : q_(q), seed_(seed), orders_(shards.size()), outgoing_(shards.size()) {
  DSHUF_CHECK(!shards.empty(), "need at least one shard");
  DSHUF_CHECK(q >= 0.0 && q <= 1.0, "Q must be in [0, 1]");
  if (topology) {
    topology_ = topology->resolved_for(static_cast<int>(shards.size()));
  }
  std::size_t min_shard = shards[0].size();
  for (const auto& s : shards) min_shard = std::min(min_shard, s.size());
  const std::size_t quota = exchange_quota(min_shard, q);
  stores_.reserve(shards.size());
  for (auto& s : shards) {
    const std::size_t cap = s.size() + quota;  // the (1+Q) * N/M bound
    stores_.emplace_back(std::move(s), cap);
  }
}

std::string PartialLocalShuffler::label() const {
  std::string label = strategy_label(Strategy::kPartial, q_);
  if (topology_) label += "-hier" + std::to_string(topology_->groups);
  return label;
}

void PartialLocalShuffler::begin_epoch(std::size_t epoch) {
  const auto m = stores_.size();
  std::size_t min_shard = stores_[0].size();
  for (const auto& s : stores_) min_shard = std::min(min_shard, s.size());
  const std::size_t quota = exchange_quota(min_shard, q_);

  stats_ = ExchangeStats{};
  stats_.epoch = epoch;
  stats_.sent_per_worker.assign(m, 0);
  stats_.received_per_worker.assign(m, 0);
  stats_.local_reads_per_worker.assign(m, 0);
  stats_.peak_occupancy_per_worker.assign(m, 0);

  if (quota > 0 && m > 1) {
    // The epoch's plan from the process-wide cache — the one the
    // message-passing ranks share — rebuilt in place once warm.
    acquire_exchange_plan(plan_spec_for(seed_, epoch, static_cast<int>(m),
                                        quota, topology_),
                          held_plan_);
    const ExchangePlan& plan = *held_plan_;
    // Algorithm 1, line 1: every worker picks its outgoing samples (random
    // permutation prefix, or importance-ordered under the extension
    // policies) — resolve them all before mutating stores.
    for (std::size_t w = 0; w < m; ++w) {
      stores_[w].reset_peak();
      select_outgoing(epoch, static_cast<int>(w), quota, outgoing_[w]);
    }
    // Deliver round by round (this is what MPI messages carry), staging
    // received samples BEFORE the transmitted ones are cleaned up — the
    // Fig. 4 overlap means both coexist on storage, which is why the
    // capacity bound is (1+Q) * N/M.
    for (std::size_t i = 0; i < quota; ++i) {
      for (std::size_t w = 0; w < m; ++w) {
        const int d = plan.dest(i, static_cast<int>(w));
        stores_[static_cast<std::size_t>(d)].add(outgoing_[w][i]);
        ++stats_.received_per_worker[static_cast<std::size_t>(d)];
        ++stats_.sent_per_worker[w];
      }
    }
    // The paper's clean_local_storage(): drop the transmitted samples.
    for (std::size_t w = 0; w < m; ++w) {
      for (SampleId id : outgoing_[w]) stores_[w].remove_id(id);
    }
  } else {
    for (auto& s : stores_) s.reset_peak();
  }

  // Final local shuffle of the (possibly updated) shard — in place, so the
  // next epoch's pick permutation draws from the shuffled order (the paper:
  // "a full shuffle of the local portion of the data is performed before
  // the designated ratio is exchanged"). Message-passing ranks apply the
  // identical stream, which keeps the two drivers bit-compatible.
  for (std::size_t w = 0; w < m; ++w) {
    post_exchange_local_shuffle(seed_, epoch, static_cast<int>(w),
                                stores_[w].mutable_ids());
    orders_[w] = stores_[w].ids();
    stats_.local_reads_per_worker[w] =
        orders_[w].size() - stats_.received_per_worker[w];
    stats_.peak_occupancy_per_worker[w] = stores_[w].peak_occupancy();
  }
}

void PartialLocalShuffler::select_outgoing(std::size_t epoch, int worker,
                                           std::size_t quota,
                                           std::vector<SampleId>& out) {
  const auto& store = stores_[static_cast<std::size_t>(worker)];
  const bool scored = pick_policy_ != PickPolicy::kUniform &&
                      !scores_.empty();
  if (!scored) {
    pick_outgoing_into(seed_, epoch, worker, store.ids(), quota, picks_, out);
    return;
  }
  // Importance policy: order the shard by score (ties by id for
  // determinism) and take the top/bottom quota.
  std::vector<SampleId> sorted = store.ids();
  auto score_of = [&](SampleId id) {
    return id < scores_.size() ? scores_[id] : 0.0F;
  };
  std::sort(sorted.begin(), sorted.end(), [&](SampleId a, SampleId b) {
    const float sa = score_of(a);
    const float sb = score_of(b);
    if (sa != sb) {
      return pick_policy_ == PickPolicy::kHighLoss ? sa > sb : sa < sb;
    }
    return a < b;
  });
  out.assign(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(
                                                  quota));
}

const std::vector<SampleId>& PartialLocalShuffler::local_order(
    int worker) const {
  DSHUF_CHECK(worker >= 0 && worker < static_cast<int>(orders_.size()),
              "worker out of range");
  return orders_[static_cast<std::size_t>(worker)];
}

// --------------------------------------------------------------- Factory --

std::unique_ptr<Shuffler> make_shuffler(
    Strategy strategy, double q, std::size_t dataset_size,
    std::vector<std::vector<SampleId>> shards, std::uint64_t seed) {
  switch (strategy) {
    case Strategy::kGlobal:
      return std::make_unique<GlobalShuffler>(
          dataset_size, static_cast<int>(shards.size()), seed);
    case Strategy::kLocal:
      return std::make_unique<LocalShuffler>(std::move(shards), seed);
    case Strategy::kPartial:
      return std::make_unique<PartialLocalShuffler>(std::move(shards), q,
                                                    seed);
    case Strategy::kUncontrolled:
      return std::make_unique<UncontrolledShuffler>(std::move(shards), q,
                                                    seed);
  }
  DSHUF_CHECK(false, "unreachable strategy");
}

void pick_permutation_into(std::uint64_t seed, std::size_t epoch, int worker,
                           std::size_t shard_size,
                           std::vector<std::uint32_t>& out) {
  Rng rng = Rng(seed).fork(kPickTag, epoch,
                           static_cast<std::uint64_t>(worker));
  rng.permutation_into(shard_size, out);
}

void pick_outgoing_into(std::uint64_t seed, std::size_t epoch, int worker,
                        std::span<const SampleId> shard, std::size_t quota,
                        std::vector<std::uint32_t>& picks,
                        std::vector<SampleId>& out) {
  DSHUF_CHECK_GE(shard.size(), quota,
                 "worker " << worker
                           << " shard smaller than the exchange quota");
  pick_permutation_into(seed, epoch, worker, shard.size(), picks);
  out.resize(quota);
  for (std::size_t i = 0; i < quota; ++i) out[i] = shard[picks[i]];
}

void post_exchange_local_shuffle(std::uint64_t seed, std::size_t epoch,
                                 int worker, std::vector<SampleId>& ids) {
  Rng rng = Rng(seed).fork(kPostShuffleTag, epoch,
                           static_cast<std::uint64_t>(worker));
  rng.shuffle(ids);
}

}  // namespace dshuf::shuffle
