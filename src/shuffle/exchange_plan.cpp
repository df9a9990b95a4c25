#include "shuffle/exchange_plan.hpp"

#include <cmath>
#include <mutex>

#include "util/error.hpp"
#include "util/ranked_mutex.hpp"

namespace dshuf::shuffle {

ExchangePlan::ExchangePlan(std::uint64_t seed, std::size_t epoch, int workers,
                           std::size_t per_worker_quota, bool allow_self) {
  rebuild(seed, epoch, workers, per_worker_quota, allow_self);
}

void ExchangePlan::rebuild(std::uint64_t seed, std::size_t epoch, int workers,
                           std::size_t per_worker_quota, bool allow_self) {
  DSHUF_CHECK_GT(workers, 0, "exchange plan needs at least one worker");
  workers_ = workers;
  Rng base(seed);
  // One independent stream per epoch: every worker derives the identical
  // stream, which is what synchronises the permutations without any
  // communication.
  Rng rng = base.fork(0xE9C4ULL, epoch);

  const auto m = static_cast<std::size_t>(workers);
  rounds_ = per_worker_quota;
  dest_.resize(m * rounds_);
  src_.resize(m * rounds_);
  for (std::size_t i = 0; i < per_worker_quota; ++i) {
    rng.permutation_into(m, perm_);
    if (!allow_self && workers > 1) {
      // Re-draw until the permutation is a derangement. Expected ~e tries.
      auto has_fixed_point = [&](const std::vector<std::uint32_t>& p) {
        for (std::size_t r = 0; r < p.size(); ++r) {
          if (p[r] == r) return true;
        }
        return false;
      };
      while (has_fixed_point(perm_)) rng.permutation_into(m, perm_);
    }
    for (std::size_t r = 0; r < m; ++r) link(i, r, perm_[r]);
  }
}

void ExchangePlan::rebuild_grouped(std::uint64_t seed, std::size_t epoch,
                                   int groups, int group_size,
                                   std::size_t per_worker_quota,
                                   double intra_fraction) {
  DSHUF_CHECK_GT(groups, 0, "need at least one group");
  DSHUF_CHECK_GT(group_size, 0, "need at least one rank per group");
  DSHUF_CHECK(intra_fraction >= 0.0 && intra_fraction <= 1.0,
              "intra fraction must be in [0, 1]");
  workers_ = groups * group_size;
  Rng base(seed);
  // Per round: one group permutation (inter rounds only — intra rounds
  // build the identity without consuming draws), then one local
  // permutation per source group.
  Rng stream = base.fork(0x41E2, epoch);

  const auto m = static_cast<std::size_t>(workers_);
  const auto intra_rounds = static_cast<std::size_t>(
      std::round(intra_fraction * static_cast<double>(per_worker_quota)));

  rounds_ = per_worker_quota;
  dest_.resize(m * rounds_);
  src_.resize(m * rounds_);
  for (std::size_t i = 0; i < per_worker_quota; ++i) {
    const bool inter = i >= intra_rounds && groups > 1;
    if (inter) {
      stream.permutation_into(static_cast<std::size_t>(groups), gperm_);
    } else {
      gperm_.resize(static_cast<std::size_t>(groups));
      for (std::size_t g = 0; g < gperm_.size(); ++g) {
        gperm_[g] = static_cast<std::uint32_t>(g);
      }
    }
    const auto gs = static_cast<std::size_t>(group_size);
    for (std::size_t g = 0; g < gperm_.size(); ++g) {
      stream.permutation_into(gs, perm_);
      for (std::size_t s = 0; s < gs; ++s) {
        link(i, g * gs + s, gperm_[g] * gs + perm_[s]);
      }
    }
  }
}

int ExchangePlan::dest(std::size_t round, int rank) const {
  DSHUF_CHECK_LT(round, rounds_, "round out of range");
  DSHUF_CHECK(rank >= 0 && rank < workers_, "rank out of range");
  return dest_[static_cast<std::size_t>(rank) * rounds_ + round];
}

int ExchangePlan::source(std::size_t round, int rank) const {
  DSHUF_CHECK_LT(round, rounds_, "round out of range");
  DSHUF_CHECK(rank >= 0 && rank < workers_, "rank out of range");
  return src_[static_cast<std::size_t>(rank) * rounds_ + round];
}

std::vector<int> ExchangePlan::dests_for(int rank) const {
  std::vector<int> out;
  out.reserve(rounds_);
  for (std::size_t i = 0; i < rounds_; ++i) out.push_back(dest(i, rank));
  return out;
}

std::vector<int> ExchangePlan::sources_for(int rank) const {
  std::vector<int> out;
  out.reserve(rounds_);
  for (std::size_t i = 0; i < rounds_; ++i) out.push_back(source(i, rank));
  return out;
}

std::size_t ExchangePlan::self_sends() const {
  std::size_t n = 0;
  for (std::size_t r = 0; r < static_cast<std::size_t>(workers_); ++r) {
    for (std::size_t i = 0; i < rounds_; ++i) {
      if (dest_[r * rounds_ + i] == static_cast<int>(r)) ++n;
    }
  }
  return n;
}

namespace {

// Tiny lookaside: ranks straddle at most a few epoch boundaries, so a
// handful of slots catches every hit. Evicted entries stay alive through
// the SharedPlans that still refer to them.
constexpr std::size_t kPlanCacheSlots = 4;

struct PlanCacheEntry {
  PlanSpec spec;
  std::shared_ptr<ExchangePlan> plan;
  std::uint64_t stamp = 0;
};

RankedMutex g_plan_cache_mu{LockRank::kPlanCache, "shuffle.plan_cache"};
std::vector<PlanCacheEntry> g_plan_cache;  // guarded by g_plan_cache_mu
std::uint64_t g_plan_stamp = 0;            // guarded by g_plan_cache_mu
std::uint64_t g_plan_builds = 0;           // guarded by g_plan_cache_mu

void build_plan(const PlanSpec& spec, ExchangePlan& plan) {
  if (spec.groups > 1) {
    plan.rebuild_grouped(spec.seed, spec.epoch, spec.groups, spec.group_size,
                         spec.quota, spec.intra_fraction);
  } else {
    plan.rebuild(spec.seed, spec.epoch, spec.workers, spec.quota);
  }
}

}  // namespace

PlanSpec plan_spec_for(std::uint64_t seed, std::size_t epoch, int workers,
                       std::size_t quota,
                       const std::optional<Topology>& topology) {
  PlanSpec spec;
  spec.seed = seed;
  spec.epoch = epoch;
  spec.workers = workers;
  spec.quota = quota;
  if (topology) {
    const Topology t = topology->resolved_for(workers);
    if (t.groups > 1) {
      spec.groups = t.groups;
      spec.group_size = t.group_size;
      spec.intra_fraction = t.intra_fraction;
    }
  }
  return spec;
}

SharedPlan& SharedPlan::operator=(SharedPlan&& other) noexcept {
  if (this != &other) {
    reset();
    plan_ = std::move(other.plan_);
  }
  return *this;
}

void SharedPlan::reset() {
  if (!plan_) return;
  std::lock_guard<RankedMutex> lk(g_plan_cache_mu);
  plan_.reset();
}

void acquire_exchange_plan(const PlanSpec& spec, SharedPlan& held) {
  // Build under the lock: every rank asking for the same epoch either
  // builds it (first arrival) or waits for that one build.
  std::lock_guard<RankedMutex> lk(g_plan_cache_mu);
  // Drop the caller's previous plan inside the lock. SharedPlan only
  // ever changes a plan's reference count under this lock (a move
  // leaves it alone), so use_count() below is exact, and the lock
  // orders every former holder's reads before an in-place rebuild.
  held.plan_.reset();
  ++g_plan_stamp;
  auto& cache = g_plan_cache;
  for (auto& e : cache) {
    if (e.spec == spec) {
      e.stamp = g_plan_stamp;
      held.plan_ = e.plan;
      return;
    }
  }
  PlanCacheEntry* slot = nullptr;
  if (cache.size() < kPlanCacheSlots) {
    slot = &cache.emplace_back();
  } else {
    slot = &cache.front();
    for (auto& e : cache) {
      if (e.stamp < slot->stamp) slot = &e;
    }
  }
  if (!slot->plan || slot->plan.use_count() > 1) {
    slot->plan = std::make_shared<ExchangePlan>();
  }
  build_plan(spec, *slot->plan);
  slot->spec = spec;
  slot->stamp = g_plan_stamp;
  held.plan_ = slot->plan;
  ++g_plan_builds;
}

std::uint64_t exchange_plan_builds() {
  std::lock_guard<RankedMutex> lk(g_plan_cache_mu);
  return g_plan_builds;
}

std::size_t exchange_quota(std::size_t shard_size, double q) {
  DSHUF_CHECK(q >= 0.0 && q <= 1.0, "exchange fraction Q must be in [0, 1]");
  const auto k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(shard_size)));
  return std::min(k, shard_size);
}

std::vector<std::size_t> naive_exchange_recv_counts(std::uint64_t seed,
                                                    std::size_t epoch,
                                                    int workers,
                                                    std::size_t quota) {
  DSHUF_CHECK_GT(workers, 0, "need at least one worker");
  Rng base(seed);
  std::vector<std::size_t> recv(static_cast<std::size_t>(workers), 0);
  for (int r = 0; r < workers; ++r) {
    // Independent stream per sender — no coordination, hence no balance.
    Rng rng = base.fork(0xBAD, epoch, static_cast<std::uint64_t>(r));
    for (std::size_t i = 0; i < quota; ++i) {
      const auto dest =
          rng.uniform_u64(static_cast<std::uint64_t>(workers));
      ++recv[dest];
    }
  }
  return recv;
}

}  // namespace dshuf::shuffle
