// Bit-identity of the kernels across concurrent callers.
//
// GEMM keeps its packed B panels in a thread_local buffer, and the
// data-parallel trainer's rank threads run GEMM, im2col and whole
// forward/backward passes at the same time. A result computed on one of
// several threads running at once must match the same call made alone,
// to the last bit, not to a tolerance. These tests run every call on
// kThreads threads released together; they carry the `concurrent` label,
// so the TSan job runs them too.
#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "data/workloads.hpp"
#include "nn/builder.hpp"
#include "nn/conv.hpp"
#include "sim/trainer.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace dshuf {
namespace {

constexpr std::size_t kThreads = 4;

/// Exact (bit-level) comparison: float == would accept -0.0 vs 0.0 and
/// reject NaN; memcmp is the contract we actually promise.
[[nodiscard]] bool bits_equal(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

[[nodiscard]] bool bits_equal(const std::vector<float>& a,
                              const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Run fn(t) for t in [0, kThreads) on kThreads threads, released
/// together so their calls overlap.
template <typename Fn>
void run_concurrently(Fn fn) {
  std::latch start(static_cast<std::ptrdiff_t>(kThreads));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      fn(t);
    });
  }
  for (auto& th : threads) th.join();
}

// n = 160 takes more than one B panel and several register tiles per
// side, so every thread packs, reuses and repacks its B buffer.
TEST(KernelThreads, GemmBitIdenticalOnConcurrentThreads) {
  const ScopedKernelBackend backend(KernelBackend::kBlocked);
  constexpr std::size_t n = 160;
  Rng rng(3);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  const Tensor warm = Tensor::randn({n, n}, rng);
  Tensor serial({n, n});
  gemm(a, b, serial, false);
  // Accumulating into a warm output must be unchanged too.
  Tensor acc_serial = warm;
  gemm(a, b, acc_serial, true);

  std::vector<Tensor> outs(kThreads, Tensor({n, n}));
  std::vector<Tensor> accs(kThreads, warm);
  std::vector<int> mismatches(kThreads, 0);
  run_concurrently([&](std::size_t t) {
    for (int rep = 0; rep < 3; ++rep) {
      gemm(a, b, outs[t], false);
      accs[t] = warm;
      gemm(a, b, accs[t], true);
      if (!bits_equal(outs[t], serial) || !bits_equal(accs[t], acc_serial)) {
        ++mismatches[t];
      }
    }
  });
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "gemm differs on thread " << t;
  }
}

TEST(KernelThreads, GemmTransposeVariantsBitIdenticalOnConcurrentThreads) {
  const ScopedKernelBackend backend(KernelBackend::kBlocked);
  constexpr std::size_t n = 160;
  Rng rng(5);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor at_serial({n, n});
  Tensor bt_serial({n, n});
  gemm_at_b(a, b, at_serial, false);
  gemm_a_bt(a, b, bt_serial, false);

  std::vector<int> at_mismatches(kThreads, 0);
  std::vector<int> bt_mismatches(kThreads, 0);
  run_concurrently([&](std::size_t t) {
    Tensor at({n, n});
    Tensor bt({n, n});
    for (int rep = 0; rep < 3; ++rep) {
      gemm_at_b(a, b, at, false);
      gemm_a_bt(a, b, bt, false);
      if (!bits_equal(at, at_serial)) ++at_mismatches[t];
      if (!bits_equal(bt, bt_serial)) ++bt_mismatches[t];
    }
  });
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(at_mismatches[t], 0) << "gemm_at_b differs on thread " << t;
    EXPECT_EQ(bt_mismatches[t], 0) << "gemm_a_bt differs on thread " << t;
  }
}

// Each thread sizes its B buffer differently and alternates between two
// shapes, so a pack shared between threads (or one left stale by the
// previous call's shape) would show up as a wrong product.
TEST(KernelThreads, MixedShapesOnConcurrentThreadsMatchSerial) {
  const ScopedKernelBackend backend(KernelBackend::kBlocked);
  constexpr std::size_t kSizes[kThreads][2] = {
      {24, 200}, {96, 33}, {160, 65}, {7, 128}};
  Rng rng(9);
  struct Case {
    Tensor a;
    Tensor b;
    Tensor want;
  };
  std::vector<std::vector<Case>> cases(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (const std::size_t n : kSizes[t]) {
      Case c{Tensor::randn({n, 48}, rng), Tensor::randn({48, n}, rng),
             Tensor({n, n})};
      gemm(c.a, c.b, c.want, false);
      cases[t].push_back(std::move(c));
    }
  }

  std::vector<int> mismatches(kThreads, 0);
  run_concurrently([&](std::size_t t) {
    for (int rep = 0; rep < 4; ++rep) {
      for (const Case& c : cases[t]) {
        Tensor got(c.want.shape());
        gemm(c.a, c.b, got, false);
        if (!bits_equal(got, c.want)) ++mismatches[t];
      }
    }
  });
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "gemm differs on thread " << t;
  }
}

TEST(KernelThreads, Conv1dBitIdenticalOnConcurrentThreads) {
  const ScopedKernelBackend backend(KernelBackend::kBlocked);
  Rng srng(7);
  const Tensor x = Tensor::randn({32, 8 * 32}, srng);
  const Tensor g = Tensor::randn({32, 16 * 32}, srng);

  Tensor y_serial;
  Tensor gi_serial;
  {
    Rng rng(7);
    nn::Conv1d conv(8, 16, 32, 3, rng);
    conv.forward_into(x, y_serial, true);
    conv.backward_into(g, gi_serial);
  }

  std::vector<int> y_mismatches(kThreads, 0);
  std::vector<int> gi_mismatches(kThreads, 0);
  run_concurrently([&](std::size_t t) {
    Rng rng(7);
    nn::Conv1d conv(8, 16, 32, 3, rng);
    Tensor y;
    Tensor gi;
    for (int rep = 0; rep < 2; ++rep) {
      conv.forward_into(x, y, true);
      conv.backward_into(g, gi);
      if (!bits_equal(y, y_serial)) ++y_mismatches[t];
      if (!bits_equal(gi, gi_serial)) ++gi_mismatches[t];
    }
  });
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(y_mismatches[t], 0) << "Conv1d forward differs on thread " << t;
    EXPECT_EQ(gi_mismatches[t], 0)
        << "Conv1d backward differs on thread " << t;
  }
}

// --- trained-model bit-identity --------------------------------------

data::Workload tiny_workload() {
  data::Workload w = data::find_workload("imagenet1k-resnet50");
  w.data.num_classes = 8;
  w.data.samples_per_class = 24;
  w.data.feature_dim = 12;
  w.model.input_dim = 12;
  w.model.num_classes = 8;
  w.model.hidden = {24};
  w.regime.epochs = 4;
  w.regime.milestones = {3};
  w.regime.warmup_epochs = 1.0;
  w.regime.reference_batch = 32;
  return w;
}

struct TrainedRun {
  std::vector<float> params;
  std::vector<float> buffers;
  sim::SimResult result;
};

TrainedRun train_once() {
  const auto w = tiny_workload();
  sim::SimConfig cfg;
  cfg.workers = 4;
  cfg.local_batch = 8;
  cfg.strategy = shuffle::Strategy::kPartial;
  cfg.q = 0.25;
  cfg.epochs = 4;
  cfg.seed = 77;
  cfg.max_eval_samples = 0;
  auto split = data::make_class_clusters_split(w.data);
  Rng mrng = Rng(cfg.seed).fork(0x91);
  nn::Model model = nn::make_mlp(w.model, mrng);
  TrainedRun run;
  run.result =
      sim::train_model(model, split.train, split.val, w.regime, cfg, "pls");
  run.params = model.state();
  run.buffers = model.buffer_state();
  return run;
}

// Whole training runs on concurrent threads reproduce the run made alone
// exactly: same parameters, same BatchNorm buffers, same per-epoch losses
// and exchange counts.
TEST(KernelThreads, TrainedModelBitIdenticalOnConcurrentThreads) {
  const TrainedRun baseline = train_once();
  ASSERT_GT(baseline.result.epochs.front().samples_exchanged, 0U)
      << "config must actually exchange, or the test proves nothing";

  std::vector<TrainedRun> runs(kThreads);
  run_concurrently([&](std::size_t t) { runs[t] = train_once(); });
  for (std::size_t t = 0; t < kThreads; ++t) {
    const TrainedRun& run = runs[t];
    EXPECT_TRUE(bits_equal(baseline.params, run.params))
        << "params differ on thread " << t;
    EXPECT_TRUE(bits_equal(baseline.buffers, run.buffers))
        << "buffers differ on thread " << t;
    ASSERT_EQ(baseline.result.epochs.size(), run.result.epochs.size());
    for (std::size_t e = 0; e < run.result.epochs.size(); ++e) {
      EXPECT_DOUBLE_EQ(baseline.result.epochs[e].train_loss,
                       run.result.epochs[e].train_loss)
          << "loss differs on thread " << t << " at epoch " << e;
      EXPECT_EQ(baseline.result.epochs[e].samples_exchanged,
                run.result.epochs[e].samples_exchanged)
          << "exchange count differs on thread " << t << " at epoch " << e;
    }
  }
}

}  // namespace
}  // namespace dshuf
