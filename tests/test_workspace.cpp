// Workspace arena semantics plus the allocation-free steady-state
// guarantee for the training hot path.
//
// This TU replaces the global operator new/delete with counting wrappers
// so the steady-state tests can assert an exact zero: after a few warmup
// iterations (which size every workspace slot, pack buffer, and loss
// member to its high-water mark), a full train iteration — gather,
// zero_grad, forward, loss, backward, optimizer step — performs no heap
// allocation at all, for both the MLP (with BatchNorm) and CNN proxies,
// on a plain batch and on the simulator's stack of worker segments.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "data/synthetic.hpp"
#include "nn/builder.hpp"
#include "nn/conv.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "tensor/workspace.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace dshuf;

template <typename Fn>
std::uint64_t count_allocs(Fn&& fn) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(Workspace, SameKeyReturnsSameTensor) {
  Workspace ws;
  int owner_a = 0;
  int owner_b = 0;
  Tensor& s0 = ws.slot(&owner_a, 0);
  Tensor& s0_again = ws.slot(&owner_a, 0);
  EXPECT_EQ(&s0, &s0_again);
  Tensor& s1 = ws.slot(&owner_a, 1);
  EXPECT_NE(&s0, &s1);
  Tensor& other = ws.slot(&owner_b, 0);
  EXPECT_NE(&s0, &other);
  EXPECT_EQ(ws.slot_count(), 3U);
}

TEST(Workspace, SlotCapacityPersistsAcrossShrink) {
  Workspace ws;
  int owner = 0;
  Tensor& t = ws.slot2(&owner, 0, 64, 64);
  ASSERT_EQ(t.rows(), 64U);
  const float* big = t.data();
  Tensor& small = ws.slot2(&owner, 0, 8, 8);
  EXPECT_EQ(&t, &small);
  EXPECT_EQ(small.rows(), 8U);
  // Shrinking and re-growing within capacity neither moves the buffer
  // nor allocates.
  const std::uint64_t n = count_allocs([&] {
    Tensor& regrown = ws.slot2(&owner, 0, 64, 64);
    EXPECT_EQ(regrown.data(), big);
  });
  EXPECT_EQ(n, 0U);
}

TEST(Workspace, BytesReservedTracksCapacity) {
  Workspace ws;
  int owner = 0;
  EXPECT_EQ(ws.bytes_reserved(), 0U);
  ws.slot1(&owner, 0, 100);
  EXPECT_GE(ws.bytes_reserved(), 100 * sizeof(float));
  const std::size_t before = ws.bytes_reserved();
  ws.slot1(&owner, 0, 10);  // shrink: capacity retained
  EXPECT_EQ(ws.bytes_reserved(), before);
  ws.clear();
  EXPECT_EQ(ws.slot_count(), 0U);
  EXPECT_EQ(ws.bytes_reserved(), 0U);
}

// One full training iteration against `model`; everything it touches is
// preallocated by the caller or capacity-reusing. segment_rows > 0 runs
// the simulator's stacked step: the batch is a stack of per-worker
// segments, and the summed gradient is averaged over them.
void train_iteration(nn::Model& model, nn::Sgd& opt,
                     nn::SoftmaxCrossEntropy& ce,
                     const data::InMemoryDataset& ds,
                     const std::vector<data::SampleId>& batch, Tensor& xbuf,
                     std::vector<std::uint32_t>& ybuf,
                     std::size_t segment_rows = 0) {
  ds.gather_into(batch, xbuf);
  ds.gather_labels_into(batch, ybuf);
  model.zero_grad();
  const Tensor& logits = model.forward(xbuf, true, segment_rows);
  ce.forward(logits, ybuf, segment_rows);
  model.backward(ce.grad());
  if (segment_rows > 0) {
    model.scale_grad(static_cast<float>(segment_rows) /
                     static_cast<float>(batch.size()));
  }
  opt.step();
}

void expect_steady_state_alloc_free(nn::Model model,
                                    const data::InMemoryDataset& ds,
                                    std::size_t batch_rows = 32,
                                    std::size_t segment_rows = 0) {
  nn::Sgd opt(model, {.lr = 0.05F, .momentum = 0.9F});
  nn::SoftmaxCrossEntropy ce;
  std::vector<data::SampleId> batch(batch_rows);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i] = static_cast<data::SampleId>((i * 13) % ds.size());
  }
  Tensor xbuf;
  std::vector<std::uint32_t> ybuf;
  for (int warmup = 0; warmup < 3; ++warmup) {
    train_iteration(model, opt, ce, ds, batch, xbuf, ybuf, segment_rows);
  }
  const std::uint64_t n = count_allocs([&] {
    for (int it = 0; it < 10; ++it) {
      train_iteration(model, opt, ce, ds, batch, xbuf, ybuf, segment_rows);
    }
  });
  EXPECT_EQ(n, 0U) << n << " heap allocations in 10 steady-state iterations";
}

data::InMemoryDataset make_ds(std::size_t classes) {
  data::ClassClusterSpec spec{.num_classes = classes,
                              .samples_per_class = 16,
                              .feature_dim = 32,
                              .seed = 9};
  return data::make_class_clusters(spec);
}

TEST(SteadyState, MlpWithBatchNormIsAllocationFree) {
  nn::MlpSpec spec{.input_dim = 32,
                   .hidden = {64, 48},
                   .num_classes = 16,
                   .norm = nn::NormKind::kBatchNorm};
  Rng rng(9);
  expect_steady_state_alloc_free(nn::make_mlp(spec, rng), make_ds(16));
}

// The simulator's step: 16 workers' 8-row minibatches stacked into one
// 128-row pass with per-worker segments.
TEST(SteadyState, StackedSixteenWorkerStepIsAllocationFree) {
  nn::MlpSpec spec{.input_dim = 32,
                   .hidden = {96, 64, 64},
                   .num_classes = 16,
                   .norm = nn::NormKind::kBatchNorm};
  Rng rng(9);
  expect_steady_state_alloc_free(nn::make_mlp(spec, rng), make_ds(16),
                                 /*batch_rows=*/128, /*segment_rows=*/8);
  nn::CnnSpec cnn;
  Rng cnn_rng(9);
  expect_steady_state_alloc_free(nn::make_cnn(cnn, cnn_rng), make_ds(10),
                                 /*batch_rows=*/128, /*segment_rows=*/8);
}

TEST(SteadyState, CnnIsAllocationFree) {
  nn::CnnSpec spec;  // Conv1d + BatchNorm + MaxPool blocks, length 32
  Rng rng(9);
  expect_steady_state_alloc_free(nn::make_cnn(spec, rng), make_ds(10));
}

TEST(SteadyState, VaryingBatchWithinHighWaterMarkIsAllocationFree) {
  // Partial-local schedules can deliver a short final batch; shrinking
  // below the high-water mark must not allocate either.
  nn::MlpSpec spec{.input_dim = 32, .hidden = {64}, .num_classes = 16};
  Rng rng(9);
  nn::Model model = nn::make_mlp(spec, rng);
  const auto ds = make_ds(16);
  nn::Sgd opt(model, {.lr = 0.05F});
  nn::SoftmaxCrossEntropy ce;
  std::vector<data::SampleId> big(32);
  std::vector<data::SampleId> small(11);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<data::SampleId>(i);
  }
  for (std::size_t i = 0; i < small.size(); ++i) {
    small[i] = static_cast<data::SampleId>(i);
  }
  Tensor xbuf;
  std::vector<std::uint32_t> ybuf;
  for (int warmup = 0; warmup < 2; ++warmup) {
    train_iteration(model, opt, ce, ds, big, xbuf, ybuf);
    train_iteration(model, opt, ce, ds, small, xbuf, ybuf);
  }
  const std::uint64_t n = count_allocs([&] {
    train_iteration(model, opt, ce, ds, small, xbuf, ybuf);
    train_iteration(model, opt, ce, ds, big, xbuf, ybuf);
  });
  EXPECT_EQ(n, 0U);
}

}  // namespace
