// Bit-identity of the multicore kernels and the overlapped trainer.
//
// The work-stealing runtime parallelises GEMM/im2col over M-blocks with
// the reduction order inside every micro-tile unchanged, and the trainer's
// overlapped exchange prefetch replays the exact begin_epoch sequence the
// sequential schedule runs — so EVERY result here must match the serial
// path to the last bit, not to a tolerance. These tests pin that contract
// at 1/2/4/8 workers.
//
// Also here: the regression test for the thread-aware kernel-backend
// switch (ScopedKernelBackend), an atomic with release/acquire semantics
// read once per call; flipping it from another thread under load must
// never tear (TSan runs this via the `concurrent` label) and every
// individual call must land wholly on one backend.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "nn/builder.hpp"
#include "nn/conv.hpp"
#include "sim/trainer.hpp"
#include "task/scheduler.hpp"
#include "util/error.hpp"

namespace dshuf {
namespace {

/// Exact (bit-level) tensor comparison: float == would accept -0.0 vs 0.0
/// and reject NaN; memcmp is the contract we actually promise.
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

constexpr std::size_t kWorkerCounts[] = {1, 2, 4, 8};

// n=160 crosses the parallel gate (m*n*k >= 1<<20), so the scheduler
// actually partitions the M-blocks at workers > 1.
TEST(TaskDeterminism, GemmBitIdenticalAcrossWorkers) {
  const ScopedKernelBackend backend(KernelBackend::kBlocked);
  constexpr std::size_t n = 160;
  Rng rng(3);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor serial({n, n});
  gemm(a, b, serial, false);

  for (const std::size_t w : kWorkerCounts) {
    const task::ScopedTaskWorkers scoped(w);
    Tensor out({n, n});
    gemm(a, b, out, false);
    EXPECT_TRUE(bits_equal(serial, out)) << "gemm differs at " << w
                                         << " workers";
    // Accumulating into a warm output must also be unchanged.
    Tensor acc = Tensor::randn({n, n}, rng);
    Tensor acc_serial = acc;
    gemm(a, b, acc, true);
    {
      // Reference accumulate without the scheduler.
      const task::ScopedTaskWorkers serial_scope(1);
      gemm(a, b, acc_serial, true);
    }
    EXPECT_TRUE(bits_equal(acc_serial, acc))
        << "accumulating gemm differs at " << w << " workers";
  }
}

TEST(TaskDeterminism, GemmTransposeVariantsBitIdenticalAcrossWorkers) {
  const ScopedKernelBackend backend(KernelBackend::kBlocked);
  constexpr std::size_t n = 160;
  Rng rng(5);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor at_serial({n, n});
  Tensor bt_serial({n, n});
  gemm_at_b(a, b, at_serial, false);
  gemm_a_bt(a, b, bt_serial, false);

  for (const std::size_t w : kWorkerCounts) {
    const task::ScopedTaskWorkers scoped(w);
    Tensor at({n, n});
    Tensor bt({n, n});
    gemm_at_b(a, b, at, false);
    gemm_a_bt(a, b, bt, false);
    EXPECT_TRUE(bits_equal(at_serial, at)) << "gemm_at_b differs at " << w;
    EXPECT_TRUE(bits_equal(bt_serial, bt)) << "gemm_a_bt differs at " << w;
  }
}

TEST(TaskDeterminism, Conv1dBitIdenticalAcrossWorkers) {
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

  for (const std::size_t w : kWorkerCounts) {
    const task::ScopedTaskWorkers scoped(w);
    Rng rng(7);
    nn::Conv1d conv(8, 16, 32, 3, rng);
    Tensor y;
    Tensor gi;
    conv.forward_into(x, y, true);
    conv.backward_into(g, gi);
    EXPECT_TRUE(bits_equal(y_serial, y))
        << "Conv1d forward differs at " << w << " workers";
    EXPECT_TRUE(bits_equal(gi_serial, gi))
        << "Conv1d backward differs at " << w << " workers";
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

sim::SimConfig tiny_config() {
  sim::SimConfig c;
  c.workers = 4;
  c.local_batch = 8;
  c.strategy = shuffle::Strategy::kPartial;
  c.q = 0.25;
  c.epochs = 4;
  c.seed = 77;
  c.max_eval_samples = 0;
  return c;
}

struct TrainedRun {
  std::vector<float> params;
  std::vector<float> buffers;
  sim::SimResult result;
};

TrainedRun train_once(bool overlap, std::size_t workers) {
  const task::ScopedTaskWorkers scoped(workers);
  const auto w = tiny_workload();
  auto cfg = tiny_config();
  cfg.overlap_exchange = overlap;
  auto split = data::make_class_clusters_split(w.data);
  Rng mrng = Rng(cfg.seed).fork(0x91);
  nn::Model model = nn::make_mlp(w.model, mrng);
  TrainedRun run;
  run.result = sim::train_model(model, split.train, split.val, w.regime, cfg,
                                overlap ? "overlap" : "sequential");
  run.params = model.state();
  run.buffers = model.buffer_state();
  return run;
}

void expect_same_run(const TrainedRun& a, const TrainedRun& b,
                     const char* what) {
  EXPECT_TRUE(bits_equal(a.params, b.params)) << what << ": params differ";
  EXPECT_TRUE(bits_equal(a.buffers, b.buffers)) << what << ": buffers differ";
  ASSERT_EQ(a.result.epochs.size(), b.result.epochs.size()) << what;
  for (std::size_t e = 0; e < a.result.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(a.result.epochs[e].train_loss,
                     b.result.epochs[e].train_loss)
        << what << ": loss differs at epoch " << e;
    EXPECT_EQ(a.result.epochs[e].samples_exchanged,
              b.result.epochs[e].samples_exchanged)
        << what << ": exchange count differs at epoch " << e;
  }
  EXPECT_DOUBLE_EQ(a.result.peak_storage_ratio, b.result.peak_storage_ratio)
      << what;
}

// The acceptance bit: multicore + overlapped training reproduces the
// serial sequential schedule's model EXACTLY — same parameters, same
// BatchNorm buffers, same per-epoch losses and exchange counts.
TEST(TaskDeterminism, TrainedModelBitIdenticalAcrossWorkersAndOverlap) {
  const TrainedRun baseline = train_once(/*overlap=*/false, /*workers=*/1);
  ASSERT_GT(baseline.result.epochs.front().samples_exchanged, 0U)
      << "config must actually exchange, or the test proves nothing";

  expect_same_run(baseline, train_once(true, 1), "overlap@1");
  for (const std::size_t w : {2UL, 4UL, 8UL}) {
    expect_same_run(baseline, train_once(false, w), "sequential@multi");
    expect_same_run(baseline, train_once(true, w), "overlap@multi");
  }
}

// --- mode switches flipped under load --------------------------------

// Another thread flips the kernel backend as fast as it can while we run
// GEMMs. Each call must land wholly on ONE backend: the result is byte-
// equal to the pure-blocked or the pure-reference product, never a blend.
TEST(TaskDeterminism, KernelBackendFlipUnderLoadIsPerCallConsistent) {
  constexpr std::size_t n = 64;
  Rng rng(11);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor blocked({n, n});
  Tensor reference({n, n});
  {
    const ScopedKernelBackend s(KernelBackend::kBlocked);
    gemm(a, b, blocked, false);
  }
  {
    const ScopedKernelBackend s(KernelBackend::kReference);
    gemm(a, b, reference, false);
  }

  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    bool which = false;
    while (!stop.load(std::memory_order_acquire)) {
      set_kernel_backend(which ? KernelBackend::kBlocked
                               : KernelBackend::kReference);
      which = !which;
    }
  });

  Tensor out({n, n});
  for (int i = 0; i < 400; ++i) {
    gemm(a, b, out, false);
    const bool is_blocked = bits_equal(out, blocked);
    const bool is_reference = bits_equal(out, reference);
    ASSERT_TRUE(is_blocked || is_reference)
        << "gemm result matches neither backend at iteration " << i;
  }
  stop.store(true, std::memory_order_release);
  flipper.join();
  set_kernel_backend(KernelBackend::kBlocked);
}

}  // namespace
}  // namespace dshuf
