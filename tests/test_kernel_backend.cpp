// The kernel-backend switch (ScopedKernelBackend) is an atomic with
// release/acquire semantics read once per call; flipping it from another
// thread under load must never tear (TSan runs this via the `concurrent`
// label) and every individual call must land wholly on one backend.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace dshuf {
namespace {

/// Exact (bit-level) tensor comparison: float == would accept -0.0 vs 0.0
/// and reject NaN; memcmp is the contract we actually promise.
[[nodiscard]] bool bits_equal(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Another thread flips the kernel backend as fast as it can while we run
// GEMMs. Each call must land wholly on ONE backend: the result is byte-
// equal to the pure-blocked or the pure-reference product, never a blend.
TEST(KernelBackend, FlipUnderLoadIsPerCallConsistent) {
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
