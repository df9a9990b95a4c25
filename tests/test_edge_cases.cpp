// Edge-case and failure-injection coverage across modules: the inputs a
// downstream user will eventually feed the library.
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "nn/norm.hpp"
#include "shuffle/shuffler.hpp"
#include "shuffle/topology.hpp"
#include "sim/trainer.hpp"

namespace dshuf {
namespace {

using shuffle::SampleId;

std::vector<std::vector<SampleId>> make_shards(std::size_t n,
                                               std::size_t workers) {
  std::vector<std::vector<SampleId>> shards(workers);
  for (std::size_t i = 0; i < n; ++i) {
    shards[i % workers].push_back(static_cast<SampleId>(i));
  }
  return shards;
}

TEST(EdgeCases, PartialShufflerWithUnevenShards) {
  // 97 samples over 8 workers: shard sizes 13 and 12. Quota derives from
  // the MIN shard so balance holds; sizes must stay constant per worker.
  const std::size_t n = 97;
  shuffle::PartialLocalShuffler pls(make_shards(n, 8), 0.3, 5);
  std::vector<std::size_t> sizes;
  for (int w = 0; w < 8; ++w) sizes.push_back(pls.local_order(w).size());
  for (std::size_t e = 0; e < 5; ++e) {
    pls.begin_epoch(e);
    std::multiset<SampleId> all;
    for (int w = 0; w < 8; ++w) {
      const auto& o = pls.local_order(w);
      all.insert(o.begin(), o.end());
      EXPECT_EQ(o.size(), (w < 1) ? 13U : 12U) << "worker " << w;
    }
    EXPECT_EQ(all.size(), n);
    EXPECT_EQ(std::set<SampleId>(all.begin(), all.end()).size(), n);
  }
}

TEST(EdgeCases, TinyShardFullExchange) {
  // Shard size 1 with Q = 1: every epoch every worker's single sample
  // moves somewhere.
  shuffle::PartialLocalShuffler pls(make_shards(4, 4), 1.0, 5);
  for (std::size_t e = 0; e < 4; ++e) {
    pls.begin_epoch(e);
    for (int w = 0; w < 4; ++w) EXPECT_EQ(pls.local_order(w).size(), 1U);
  }
}

shuffle::Topology groups_of(int groups) {
  shuffle::Topology t;
  t.groups = groups;
  return t;
}

TEST(EdgeCases, HierarchicalWithSingletonGroups) {
  // groups == workers: intra rounds are pure self-sends, inter rounds are
  // full permutations; still balanced and conserving.
  shuffle::PartialLocalShuffler hs(make_shards(32, 8), 0.5, 5, groups_of(8));
  hs.begin_epoch(0);
  std::multiset<SampleId> all;
  for (int w = 0; w < 8; ++w) {
    all.insert(hs.local_order(w).begin(), hs.local_order(w).end());
  }
  EXPECT_EQ(all.size(), 32U);
  EXPECT_EQ(std::set<SampleId>(all.begin(), all.end()).size(), 32U);
}

TEST(EdgeCases, HierarchicalSingleGroupEqualsFlatStatistics) {
  // One group spanning every worker IS the flat plan: same statistics,
  // and the same shards id for id, epoch after epoch.
  shuffle::PartialLocalShuffler hs(make_shards(48, 6), 0.5, 5, groups_of(1));
  shuffle::PartialLocalShuffler flat(make_shards(48, 6), 0.5, 5);
  for (std::size_t e = 0; e < 3; ++e) {
    hs.begin_epoch(e);
    flat.begin_epoch(e);
    const auto* stats = hs.last_stats();
    for (std::size_t w = 0; w < 6; ++w) {
      EXPECT_EQ(stats->sent_per_worker[w], shuffle::exchange_quota(8, 0.5));
      EXPECT_EQ(hs.local_order(static_cast<int>(w)),
                flat.local_order(static_cast<int>(w)))
          << "epoch " << e << " worker " << w;
    }
  }
}

TEST(EdgeCases, BatchNormHandlesZeroVarianceColumn) {
  nn::BatchNorm1d bn(2);
  Tensor x({4, 2});
  for (std::size_t i = 0; i < 4; ++i) {
    x.at(i, 0) = 3.0F;  // constant column
    x.at(i, 1) = static_cast<float>(i);
  }
  const Tensor y = bn.forward(x, true);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_TRUE(std::isfinite(y.at(i)));
  }
  // Constant column normalises to ~0 (mean removed, eps-guarded).
  EXPECT_NEAR(y.at(0, 0), 0.0F, 1e-2F);
}

TEST(EdgeCases, GroupNormWorksWithBatchSizeOne) {
  nn::GroupNorm gn(4, 2);
  Rng rng(1);
  const Tensor x = Tensor::randn({1, 4}, rng);
  const Tensor y = gn.forward(x, true);
  EXPECT_EQ(y.rows(), 1U);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_TRUE(std::isfinite(y.at(i)));
  }
}

TEST(EdgeCases, EvaluateWithOversizedCapUsesWholeSet) {
  const auto split = data::make_class_clusters_split(
      {.num_classes = 3, .samples_per_class = 8, .feature_dim = 4,
       .seed = 2});
  Rng rng(1);
  nn::MlpSpec spec{.input_dim = 4, .hidden = {8}, .num_classes = 3};
  nn::Model model = nn::make_mlp(spec, rng);
  const double a = sim::evaluate(model, split.val, 10'000, 1);
  const double b = sim::evaluate(model, split.val, 0, 1);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(EdgeCases, GlobalShufflerSingleWorkerVisitsEverything) {
  shuffle::GlobalShuffler gs(20, 1, 5);
  gs.begin_epoch(0);
  EXPECT_EQ(gs.local_order(0).size(), 20U);
  EXPECT_EQ(std::set<SampleId>(gs.local_order(0).begin(),
                               gs.local_order(0).end())
                .size(),
            20U);
}

TEST(EdgeCases, ExchangeQuotaNeverExceedsShard) {
  for (std::size_t shard : {1U, 2U, 3U, 7U}) {
    for (double q : {0.01, 0.5, 0.999, 1.0}) {
      EXPECT_LE(shuffle::exchange_quota(shard, q), shard);
      if (q > 0) {
        EXPECT_GE(shuffle::exchange_quota(shard, q), 1U);
      }
    }
  }
}

}  // namespace
}  // namespace dshuf
