#include "tensor/tensor.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>

#include "obs/metrics.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/kernel_ref.hpp"

namespace dshuf {

std::size_t shape_numel(const std::vector<std::size_t>& shape) {
  if (shape.empty()) return 0;
  std::size_t n = 1;
  for (auto d : shape) n *= d;
  return n;
}

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0F) {}

Tensor::Tensor(std::vector<std::size_t> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  DSHUF_CHECK_EQ(data_.size(), shape_numel(shape_),
                 "data size does not match shape " << shape_str());
}

Tensor Tensor::full(std::vector<std::size_t> shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(std::vector<std::size_t> shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) {
    v = static_cast<float>(rng.normal()) * stddev;
  }
  return t;
}

void Tensor::reshape(std::vector<std::size_t> shape) {
  DSHUF_CHECK_EQ(shape_numel(shape), data_.size(),
                 "reshape must preserve element count");
  shape_ = std::move(shape);
}

void Tensor::resize1(std::size_t n) {
  shape_.assign({n});
  data_.resize(n);
}

void Tensor::resize2(std::size_t rows, std::size_t cols) {
  shape_.assign({rows, cols});
  data_.resize(rows * cols);
}

void Tensor::resize_like(const Tensor& other) {
  shape_.assign(other.shape_.begin(), other.shape_.end());
  data_.resize(other.data_.size());
}

void copy_into(const Tensor& src, Tensor& dst) {
  if (&src == &dst) return;
  dst.resize_like(src);
  const auto& sv = src.vec();
  std::copy(sv.begin(), sv.end(), dst.vec().begin());
}

void Tensor::fill(float v) {
  for (auto& x : data_) x = v;
}

void Tensor::axpy(float alpha, const Tensor& other) {
  DSHUF_CHECK_EQ(data_.size(), other.data_.size(),
                 "axpy requires matching sizes");
  const float* o = other.data_.data();
  float* d = data_.data();
  for (std::size_t i = 0; i < data_.size(); ++i) d[i] += alpha * o[i];
}

void Tensor::scale(float alpha) {
  for (auto& x : data_) x *= alpha;
}

float Tensor::sum() const {
  double s = 0.0;
  for (float x : data_) s += x;
  return static_cast<float>(s);
}

float Tensor::l2_norm() const {
  double s = 0.0;
  for (float x : data_) s += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(s));
}

float Tensor::max_abs() const {
  float m = 0.0F;
  for (float x : data_) m = std::max(m, std::fabs(x));
  return m;
}

std::string Tensor::shape_str() const {
  std::ostringstream oss;
  oss << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) oss << ", ";
    oss << shape_[i];
  }
  oss << ']';
  return oss.str();
}

namespace {

void check_matrix(const Tensor& t, const char* name) {
  DSHUF_CHECK_EQ(t.rank(), 2U, name << " must be a matrix");
}

// Acquire/release atomic (see the thread-model note in tensor.hpp): a
// reader that observes a flip also observes everything the flipping
// thread wrote before it. gemm_dispatch reads it exactly once per call,
// so one GEMM never straddles a concurrent flip.
std::atomic<KernelBackend> g_kernel_backend{KernelBackend::kBlocked};

void count_gemm(std::size_t m, std::size_t n, std::size_t k) {
  DSHUF_COUNTER("tensor.gemm.calls").add(1);
  DSHUF_COUNTER("tensor.gemm.flops").add(2ULL * m * n * k);
}

/// Shared tail of the three gemm entry points: routes to the blocked
/// production kernel or the retained reference, counting either.
void gemm_dispatch(const float* a, const float* b, float* out, std::size_t m,
                   std::size_t n, std::size_t k, bool a_transposed,
                   bool b_transposed, bool accumulate,
                   std::size_t k_segment = 0) {
  if (kernel_backend() == KernelBackend::kBlocked) {
    gemm_raw(a, b, out, m, n, k, a_transposed, b_transposed, accumulate,
             k_segment);
  } else {
    count_gemm(m, n, k);
    kernel_ref::gemm_ref(a, b, out, m, n, k, a_transposed, b_transposed,
                         accumulate, k_segment);
  }
}

}  // namespace

void gemm_raw(const float* a, const float* b, float* c, std::size_t m,
              std::size_t n, std::size_t k, bool a_transposed,
              bool b_transposed, bool accumulate, std::size_t k_segment) {
  count_gemm(m, n, k);
  kernel::gemm_blocked(a, b, c, m, n, k, a_transposed, b_transposed,
                       accumulate, {}, k_segment);
}

KernelBackend kernel_backend() {
  return g_kernel_backend.load(std::memory_order_acquire);
}

void set_kernel_backend(KernelBackend backend) {
  g_kernel_backend.store(backend, std::memory_order_release);
}

void gemm(const Tensor& a, const Tensor& b, Tensor& out, bool accumulate) {
  check_matrix(a, "a");
  check_matrix(b, "b");
  check_matrix(out, "out");
  const std::size_t M = a.rows();
  const std::size_t K = a.cols();
  const std::size_t N = b.cols();
  DSHUF_CHECK_EQ(b.rows(), K, "gemm inner dimensions must match");
  DSHUF_CHECK_EQ(out.rows(), M, "gemm output rows mismatch");
  DSHUF_CHECK_EQ(out.cols(), N, "gemm output cols mismatch");
  gemm_dispatch(a.data(), b.data(), out.data(), M, N, K,
                /*a_transposed=*/false, /*b_transposed=*/false, accumulate);
}

void gemm_at_b(const Tensor& a, const Tensor& b, Tensor& out,
               bool accumulate) {
  gemm_at_b(a, b, out, accumulate, /*k_segment=*/0);
}

void gemm_at_b(const Tensor& a, const Tensor& b, Tensor& out, bool accumulate,
               std::size_t k_segment) {
  check_matrix(a, "a");
  check_matrix(b, "b");
  check_matrix(out, "out");
  const std::size_t K = a.rows();  // shared (batch) dimension
  const std::size_t M = a.cols();
  const std::size_t N = b.cols();
  DSHUF_CHECK_EQ(b.rows(), K, "gemm_at_b batch dimensions must match");
  DSHUF_CHECK_EQ(out.rows(), M, "gemm_at_b output rows mismatch");
  DSHUF_CHECK_EQ(out.cols(), N, "gemm_at_b output cols mismatch");
  gemm_dispatch(a.data(), b.data(), out.data(), M, N, K,
                /*a_transposed=*/true, /*b_transposed=*/false, accumulate,
                k_segment);
}

void gemm_a_bt(const Tensor& a, const Tensor& b, Tensor& out,
               bool accumulate) {
  check_matrix(a, "a");
  check_matrix(b, "b");
  check_matrix(out, "out");
  const std::size_t M = a.rows();
  const std::size_t K = a.cols();
  const std::size_t N = b.rows();  // b is NxK
  DSHUF_CHECK_EQ(b.cols(), K, "gemm_a_bt inner dimensions must match");
  DSHUF_CHECK_EQ(out.rows(), M, "gemm_a_bt output rows mismatch");
  DSHUF_CHECK_EQ(out.cols(), N, "gemm_a_bt output cols mismatch");
  gemm_dispatch(a.data(), b.data(), out.data(), M, N, K,
                /*a_transposed=*/false, /*b_transposed=*/true, accumulate);
}

std::vector<std::uint32_t> argmax_rows(const Tensor& m) {
  check_matrix(m, "m");
  std::vector<std::uint32_t> out(m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const float* row = m.data() + i * m.cols();
    std::size_t best = 0;
    for (std::size_t j = 1; j < m.cols(); ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[i] = static_cast<std::uint32_t>(best);
  }
  return out;
}

}  // namespace dshuf
