// Retained naive reference kernels.
//
// These are the pre-overhaul scalar implementations, kept for three jobs:
// (1) the kernel-equivalence test suite checks the blocked GEMM and the
// im2col Conv1d against them across awkward shapes; (2) the
// KernelBackend::kReference switch routes the whole training stack
// through them so tools/dshuf_bench can measure genuine before/after
// numbers with one binary; (3) they document the semantics the optimised
// kernels must preserve. They are intentionally unoptimised — no one
// should "fix" their performance.
#pragma once

#include <cstddef>

namespace dshuf::kernel_ref {

/// c(MxN) = a * b (+ c when accumulate); same operand conventions as
/// kernel::gemm_blocked (a_transposed: a stored KxM; b_transposed: b
/// stored NxK). Each output element is one ascending-k float accumulator
/// chain per K segment (k_segment as in gemm_blocked; 0 = all of K),
/// matching the blocked kernel's rounding order.
void gemm_ref(const float* a, const float* b, float* c, std::size_t m,
              std::size_t n, std::size_t k, bool a_transposed,
              bool b_transposed, bool accumulate, std::size_t k_segment = 0);

/// Scalar same-padding Conv1d forward: x is [n_batch, in_c*length]
/// channel-major, w is [out_c, in_c, kernel] flattened, y must hold
/// [n_batch, out_c*length]. Double accumulation per output, as the
/// original layer did.
void conv1d_forward_ref(const float* x, const float* w, const float* bias,
                        float* y, std::size_t n_batch, std::size_t in_c,
                        std::size_t out_c, std::size_t length,
                        std::size_t kernel);

/// Scalar Conv1d backward. grad_x must be zeroed by the caller; dw and
/// dbias are accumulated into (the layer's grad-accumulation contract).
void conv1d_backward_ref(const float* x, const float* w,
                         const float* grad_y, float* grad_x, float* dw,
                         float* dbias, std::size_t n_batch, std::size_t in_c,
                         std::size_t out_c, std::size_t length,
                         std::size_t kernel);

}  // namespace dshuf::kernel_ref
