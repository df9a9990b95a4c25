// Google-benchmark microbenchmarks for the core primitives: exchange-plan
// construction, full partial-local epochs, global permutation dealing,
// ShardStore exchange epochs, the two-rank gradient allreduce, GEMM and
// Conv1d under both kernel backends, and one simulated training iteration
// (MLP and CNN). The *Ref variants pin the retained naive kernels so
// blocked-vs-reference speedups can be read off one run; tools/dshuf_bench
// records the same comparison as JSON.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "data/synthetic.hpp"
#include "nn/builder.hpp"
#include "nn/conv.hpp"
#include "nn/loss.hpp"
#include "shuffle/shard_store.hpp"
#include "shuffle/shuffler.hpp"
#include "sim/overlap.hpp"

namespace {

using namespace dshuf;

std::vector<std::vector<shuffle::SampleId>> make_shards(std::size_t n,
                                                        std::size_t workers) {
  std::vector<std::vector<shuffle::SampleId>> shards(workers);
  for (std::size_t i = 0; i < n; ++i) {
    shards[i % workers].push_back(static_cast<shuffle::SampleId>(i));
  }
  return shards;
}

void BM_ExchangePlanConstruct(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const auto quota = static_cast<std::size_t>(state.range(1));
  std::size_t epoch = 0;
  for (auto _ : state) {
    shuffle::ExchangePlan plan(42, epoch++, workers, quota);
    benchmark::DoNotOptimize(plan.rounds());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          workers * static_cast<std::int64_t>(quota));
}
BENCHMARK(BM_ExchangePlanConstruct)
    ->Args({64, 16})
    ->Args({512, 16})
    ->Args({2048, 8})
    ->Args({4096, 4});

void BM_PartialEpoch(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  const std::size_t n = workers * 64;
  shuffle::PartialLocalShuffler pls(make_shards(n, workers), 0.1, 7);
  std::size_t epoch = 0;
  for (auto _ : state) {
    pls.begin_epoch(epoch++);
    benchmark::DoNotOptimize(pls.local_order(0).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PartialEpoch)->Arg(16)->Arg(128)->Arg(1024);

void BM_GlobalEpoch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  shuffle::GlobalShuffler gs(n, 64, 7);
  std::size_t epoch = 0;
  for (auto _ : state) {
    gs.begin_epoch(epoch++);
    benchmark::DoNotOptimize(gs.local_order(0).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GlobalEpoch)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

// One rank's ShardStore through steady-state exchange epochs: stage a
// quota in which every M-th id is a copy of one of the rank's own picks
// (the self-round) and the rest come from peers, remove every pick's
// first occurrence, then permute the shard as the local shuffle does.
// Args: shard size, quota, ranks — dp_pls's shape, four times its shard,
// and exchange_gs's. A removal that rescans for a self-sent copy makes the
// cost per epoch grow with shard x quota instead of quota.
void BM_ShardStoreExchangeEpoch(benchmark::State& state) {
  const auto shard = static_cast<std::size_t>(state.range(0));
  const auto quota = static_cast<std::size_t>(state.range(1));
  const auto ranks = static_cast<std::size_t>(state.range(2));
  std::vector<shuffle::SampleId> initial(shard);
  std::iota(initial.begin(), initial.end(), shuffle::SampleId{0});
  shuffle::ShardStore store(initial, shard + quota);
  // Ids held by peers, drawn from as samples arrive and refilled as picks
  // leave, so the id universe stays ranks x shard.
  std::vector<shuffle::SampleId> away((ranks - 1) * shard);
  std::iota(away.begin(), away.end(), static_cast<shuffle::SampleId>(shard));
  std::vector<shuffle::SampleId> picks(quota);
  Rng rng(11);
  for (auto _ : state) {
    std::copy_n(store.ids().begin(), quota, picks.begin());
    for (std::size_t i = 0; i < quota; ++i) {
      if (i % ranks == 0) {
        store.add(picks[i]);
      } else {
        store.add(away.back());
        away.pop_back();
      }
    }
    for (std::size_t i = 0; i < quota; ++i) {
      store.remove_id(picks[i]);
      if (i % ranks != 0) away.push_back(picks[i]);
    }
    rng.shuffle(store.mutable_ids());
    benchmark::DoNotOptimize(store.ids().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(quota));
}
BENCHMARK(BM_ShardStoreExchangeEpoch)
    ->Args({13'312, 3'994, 2})
    ->Args({53'248, 15'975, 2})
    ->Args({4'096, 4'096, 4});

// Allreduce of n doubles on two threaded ranks; rank 0 runs the timed loop
// and rank 1 makes the same number of calls. CPU is the whole process's
// (both ranks), wall is per call. n = 13,856 is the dp_pls gradient; n = 16
// is close to synchronisation alone.
void BM_AllreduceSum(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  comm::World world(2);
  world.run([&](comm::Communicator& c) {
    std::vector<double> in(n, 0.5 + c.rank());
    std::vector<double> out(n);
    if (c.rank() == 0) {
      for (auto _ : state) {
        c.allreduce_sum(in, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
      }
    } else {
      for (benchmark::IterationCount i = 0; i < state.max_iterations; ++i) {
        c.allreduce_sum(in, out);
      }
    }
  });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AllreduceSum)->Arg(13'856)->Arg(16)->MeasureProcessCPUTime();

void run_gemm(benchmark::State& state, KernelBackend backend,
              void (*op)(const Tensor&, const Tensor&, Tensor&, bool)) {
  const ScopedKernelBackend scoped(backend);
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor out({n, n});
  for (auto _ : state) {
    op(a, b, out, false);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}

void BM_Gemm(benchmark::State& state) {
  run_gemm(state, KernelBackend::kBlocked, gemm);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(128)->Arg(256);

void BM_GemmRef(benchmark::State& state) {
  run_gemm(state, KernelBackend::kReference, gemm);
}
BENCHMARK(BM_GemmRef)->Arg(32)->Arg(128)->Arg(256);

// One overlapped exchange+compute epoch (sim/overlap.hpp). Spawns a
// 4-rank World each iteration, so items = the epoch's exchanged dataset.
void BM_TrainEpochOverlap(benchmark::State& state) {
  sim::OverlapConfig cfg;
  cfg.n = 256;
  cfg.ranks = 4;
  cfg.q = 0.3;
  cfg.epochs = 1;
  cfg.seed = 11;
  cfg.compute_gemm_n = 128;
  cfg.compute_reps = 2;
  std::uint64_t seed = 11;
  for (auto _ : state) {
    cfg.seed = seed++;
    const auto res = sim::run_overlapped_epochs(cfg);
    benchmark::DoNotOptimize(res.shards.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cfg.n));
}
BENCHMARK(BM_TrainEpochOverlap);

void BM_GemmAtB(benchmark::State& state) {
  run_gemm(state, KernelBackend::kBlocked, gemm_at_b);
}
BENCHMARK(BM_GemmAtB)->Arg(128)->Arg(256);

void BM_GemmABt(benchmark::State& state) {
  run_gemm(state, KernelBackend::kBlocked, gemm_a_bt);
}
BENCHMARK(BM_GemmABt)->Arg(128)->Arg(256);

// The nine GEMMs of one training step of the imagenet1k-resnet50 proxy's
// Linear layers (32 -> 96 -> 64 -> 64), as nn::Linear calls them: per
// layer the forward pass, the weight gradient summed over 8-row worker
// segments (k_segment = 8, as the stacked sim trainer runs it) and the
// input gradient. Rows: 128 is the stacked sim_pls step (16 workers x
// b = 8), 32 a dp_pls rank's batch. Args: rows, layer * 3 + op.
void BM_GemmTrainerShapes(benchmark::State& state) {
  constexpr std::size_t kDims[] = {32, 96, 64, 64};
  constexpr const char* kOps[] = {"fw", "dW", "dX"};
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto layer = static_cast<std::size_t>(state.range(1)) / 3;
  const auto op = static_cast<std::size_t>(state.range(1)) % 3;
  const std::size_t in = kDims[layer];
  const std::size_t out = kDims[layer + 1];
  Rng rng(3);
  const Tensor x = Tensor::randn({rows, in}, rng);
  const Tensor w = Tensor::randn({in, out}, rng);
  const Tensor dy = Tensor::randn({rows, out}, rng);
  Tensor y({rows, out});
  Tensor dw({in, out});
  Tensor dx({rows, in});
  for (auto _ : state) {
    if (op == 0) {
      gemm(x, w, y);
      benchmark::DoNotOptimize(y.data());
    } else if (op == 1) {
      gemm_at_b(x, dy, dw, /*accumulate=*/true, /*k_segment=*/8);
      benchmark::DoNotOptimize(dw.data());
    } else {
      gemm_a_bt(dy, w, dx);
      benchmark::DoNotOptimize(dx.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::string(kOps[op]) + " " + std::to_string(in) + "x" +
                 std::to_string(out));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * rows * in * out));
}
BENCHMARK(BM_GemmTrainerShapes)->Apply([](benchmark::internal::Benchmark* b) {
  for (std::int64_t rows : {128, 32}) {
    for (std::int64_t shape = 0; shape < 9; ++shape) b->Args({rows, shape});
  }
});

// One Conv1d block at the CNN proxy's working size (batch 32, 8 -> 16
// channels over length 32). Items = output scalars per pass.
nn::Conv1d make_bench_conv(Rng& rng) {
  return nn::Conv1d(/*in_channels=*/8, /*out_channels=*/16, /*length=*/32,
                    /*kernel=*/3, rng);
}

void run_conv_forward(benchmark::State& state, KernelBackend backend) {
  const ScopedKernelBackend scoped(backend);
  Rng rng(7);
  nn::Conv1d conv = make_bench_conv(rng);
  const Tensor x = Tensor::randn({32, 8 * 32}, rng);
  Tensor y;
  for (auto _ : state) {
    conv.forward_into(x, y, true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(32 * 16 * 32));
}

void BM_Conv1dForward(benchmark::State& state) {
  run_conv_forward(state, KernelBackend::kBlocked);
}
BENCHMARK(BM_Conv1dForward);

void BM_Conv1dForwardRef(benchmark::State& state) {
  run_conv_forward(state, KernelBackend::kReference);
}
BENCHMARK(BM_Conv1dForwardRef);

void run_conv_backward(benchmark::State& state, KernelBackend backend) {
  const ScopedKernelBackend scoped(backend);
  Rng rng(7);
  nn::Conv1d conv = make_bench_conv(rng);
  const Tensor x = Tensor::randn({32, 8 * 32}, rng);
  const Tensor g = Tensor::randn({32, 16 * 32}, rng);
  Tensor y;
  Tensor gi;
  conv.forward_into(x, y, true);
  for (auto _ : state) {
    conv.backward_into(g, gi);
    benchmark::DoNotOptimize(gi.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(32 * 16 * 32));
}

void BM_Conv1dBackward(benchmark::State& state) {
  run_conv_backward(state, KernelBackend::kBlocked);
}
BENCHMARK(BM_Conv1dBackward);

void BM_Conv1dBackwardRef(benchmark::State& state) {
  run_conv_backward(state, KernelBackend::kReference);
}
BENCHMARK(BM_Conv1dBackwardRef);

void run_train_iteration(benchmark::State& state, nn::Model model,
                         const data::InMemoryDataset& ds) {
  nn::SoftmaxCrossEntropy ce;
  std::vector<data::SampleId> batch(32);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i] = static_cast<data::SampleId>(i * 7 % ds.size());
  }
  const Tensor x = ds.gather(batch);
  const auto y = ds.gather_labels(batch);
  for (auto _ : state) {
    model.zero_grad();
    const Tensor& logits = model.forward(x, true);
    const float loss = ce.forward(logits, y);
    benchmark::DoNotOptimize(loss);
    model.backward(ce.grad());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}

void BM_TrainIteration(benchmark::State& state) {
  data::ClassClusterSpec dspec{.num_classes = 16,
                               .samples_per_class = 64,
                               .feature_dim = 32,
                               .seed = 5};
  const auto ds = data::make_class_clusters(dspec);
  nn::MlpSpec mspec{.input_dim = 32, .hidden = {96, 64}, .num_classes = 16};
  Rng rng(5);
  run_train_iteration(state, nn::make_mlp(mspec, rng), ds);
}
BENCHMARK(BM_TrainIteration);

void BM_TrainIterationCnn(benchmark::State& state) {
  data::ClassClusterSpec dspec{.num_classes = 10,
                               .samples_per_class = 64,
                               .feature_dim = 32,
                               .seed = 5};
  const auto ds = data::make_class_clusters(dspec);
  nn::CnnSpec cspec;  // defaults match feature_dim 32
  Rng rng(5);
  run_train_iteration(state, nn::make_cnn(cspec, rng), ds);
}
BENCHMARK(BM_TrainIterationCnn);

}  // namespace

BENCHMARK_MAIN();
