// Dense float32 tensor.
//
// The dshuf training substrate only needs row-major dense 1-D/2-D tensors
// (minibatches are [batch, features]); the class nevertheless supports
// arbitrary rank for dataset payloads. Data is owned by the tensor
// (value semantics; moves are cheap). All shape errors are hard failures —
// an experiment with silently mis-shaped math is worse than a crash.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace dshuf {

class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialised tensor of the given shape.
  explicit Tensor(std::vector<std::size_t> shape);
  Tensor(std::initializer_list<std::size_t> shape)
      : Tensor(std::vector<std::size_t>(shape)) {}

  /// Tensor adopting existing data; data.size() must equal product(shape).
  Tensor(std::vector<std::size_t> shape, std::vector<float> data);

  static Tensor zeros(std::initializer_list<std::size_t> shape) {
    return Tensor(shape);
  }
  static Tensor full(std::vector<std::size_t> shape, float value);
  /// Gaussian init with the given stddev (He/Xavier handled by callers).
  static Tensor randn(std::vector<std::size_t> shape, Rng& rng,
                      float stddev = 1.0F);

  [[nodiscard]] const std::vector<std::size_t>& shape() const {
    return shape_;
  }
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  /// Dimension i of the shape; checked.
  [[nodiscard]] std::size_t dim(std::size_t i) const {
    DSHUF_CHECK_LT(i, shape_.size(), "dim index out of range");
    return shape_[i];
  }

  /// Rows/cols of a rank-2 tensor; checked.
  [[nodiscard]] std::size_t rows() const {
    DSHUF_CHECK_EQ(rank(), 2U, "rows() requires a matrix");
    return shape_[0];
  }
  [[nodiscard]] std::size_t cols() const {
    DSHUF_CHECK_EQ(rank(), 2U, "cols() requires a matrix");
    return shape_[1];
  }

  float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  [[nodiscard]] const std::vector<float>& vec() const { return data_; }

  /// Flat element access (checked).
  float& at(std::size_t i) {
    DSHUF_CHECK_LT(i, data_.size(), "flat index out of range");
    return data_[i];
  }
  [[nodiscard]] float at(std::size_t i) const {
    DSHUF_CHECK_LT(i, data_.size(), "flat index out of range");
    return data_[i];
  }

  /// 2-D element access (checked).
  float& at(std::size_t r, std::size_t c) {
    DSHUF_CHECK_EQ(rank(), 2U, "2-D access requires a matrix");
    DSHUF_CHECK_LT(r, shape_[0], "row out of range");
    DSHUF_CHECK_LT(c, shape_[1], "col out of range");
    return data_[r * shape_[1] + c];
  }
  [[nodiscard]] float at(std::size_t r, std::size_t c) const {
    return const_cast<Tensor*>(this)->at(r, c);
  }

  /// Reinterpret the shape without touching the data; sizes must match.
  void reshape(std::vector<std::size_t> shape);

  /// Reshape to [n] / [rows, cols] / `shape`, resizing the storage.
  /// Existing element values are NOT preserved meaningfully; capacity is
  /// reused, so shrinking and re-growing within a previous high-water mark
  /// never reallocates. These are the workhorses of the allocation-free
  /// training steady state (see tensor/workspace.hpp).
  void resize1(std::size_t n);
  void resize2(std::size_t rows, std::size_t cols);
  void resize_like(const Tensor& other);

  void fill(float v);
  void zero() { fill(0.0F); }

  /// this += alpha * other (shapes must match).
  void axpy(float alpha, const Tensor& other);
  /// this *= alpha.
  void scale(float alpha);

  [[nodiscard]] float sum() const;
  [[nodiscard]] float l2_norm() const;
  [[nodiscard]] float max_abs() const;

  /// Human-readable "[a, b, c]" shape string for diagnostics.
  [[nodiscard]] std::string shape_str() const;

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

/// Number of elements implied by a shape (empty shape => 0 for an empty
/// tensor, but {1} style scalars have size 1).
std::size_t shape_numel(const std::vector<std::size_t>& shape);

/// dst becomes a copy of src, reusing dst's capacity — allocation-free
/// once dst has held a tensor at least this large.
void copy_into(const Tensor& src, Tensor& dst);

// --- BLAS-like free functions (row-major) ---------------------------------

/// Which dense-compute implementation the gemm/conv entry points use.
/// kBlocked is the blocked, register-tiled production kernel; kReference is
/// the retained naive kernel, kept for equivalence testing and for
/// before/after measurement (tools/dshuf_bench). Process-wide; intended
/// for tests and benches only — experiments always run kBlocked.
///
/// Thread model: the switch is an atomic with release/acquire semantics —
/// set_kernel_backend publishes with release, kernel_backend reads with
/// acquire, so a thread that observes the new value also observes
/// everything the flipping thread wrote before the flip. Each gemm/conv
/// call reads the switch exactly ONCE at dispatch, so a single call never
/// tears across a concurrent flip: it runs entirely on the backend it
/// observed (both backends compute the same values, only the rounding
/// schedule differs). Flipping while other threads run compute is
/// therefore safe; for DETERMINISTIC results flip from the driving thread
/// before starting the threads that compute.
enum class KernelBackend { kBlocked, kReference };

[[nodiscard]] KernelBackend kernel_backend();
void set_kernel_backend(KernelBackend backend);

/// RAII helper: switch the backend for a scope (tests/benches). Same
/// thread model as set_kernel_backend — construct/destroy it on the
/// driving thread.
class ScopedKernelBackend {
 public:
  explicit ScopedKernelBackend(KernelBackend backend)
      : prev_(kernel_backend()) {
    set_kernel_backend(backend);
  }
  ScopedKernelBackend(const ScopedKernelBackend&) = delete;
  ScopedKernelBackend& operator=(const ScopedKernelBackend&) = delete;
  ~ScopedKernelBackend() { set_kernel_backend(prev_); }

 private:
  KernelBackend prev_;
};

/// out = a(MxK) * b(KxN). out must be pre-shaped MxN; accumulate=false
/// overwrites, true adds into out.
void gemm(const Tensor& a, const Tensor& b, Tensor& out,
          bool accumulate = false);

/// out = a^T(KxM -> MxK view) * b(KxN): i.e. out(MxN) = a'(MxK) b with a
/// stored as KxM. Used for weight gradients dW = X^T dY.
void gemm_at_b(const Tensor& a, const Tensor& b, Tensor& out,
               bool accumulate = false);
/// gemm_at_b summing the batch dimension in consecutive segments of
/// k_segment rows (0 = one segment), added into out in segment order
/// (kernel::gemm_blocked): the bits of one call per segment, without
/// copying the segments out.
void gemm_at_b(const Tensor& a, const Tensor& b, Tensor& out, bool accumulate,
               std::size_t k_segment);

/// out = a(MxK) * b^T with b stored as NxK: out is MxN. Used for input
/// gradients dX = dY W^T.
void gemm_a_bt(const Tensor& a, const Tensor& b, Tensor& out,
               bool accumulate = false);

/// The blocked kernel on raw row-major buffers (kernel::gemm_blocked's
/// operand layouts and k_segment), for callers that lower to a GEMM on
/// their own scratch, as Conv1d does through im2col. Counted in
/// tensor.gemm.calls / tensor.gemm.flops like the Tensor entry points. It
/// does not read the kernel backend: a caller that has one reference path
/// picks it before lowering.
void gemm_raw(const float* a, const float* b, float* c, std::size_t m,
              std::size_t n, std::size_t k, bool a_transposed,
              bool b_transposed, bool accumulate, std::size_t k_segment = 0);

/// Row-wise argmax of a matrix (per-sample prediction).
std::vector<std::uint32_t> argmax_rows(const Tensor& m);

}  // namespace dshuf
