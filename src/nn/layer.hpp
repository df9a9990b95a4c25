// Layer abstraction for the training substrate.
//
// Layers own their parameters (value + gradient). backward_into() must be
// called immediately after the forward_into() whose activations it
// differentiates (caches are single-buffered, and layers may cache the
// input by reference — the input tensor must stay alive and unmodified
// until backward completes; Model guarantees this by staging activations
// in its workspace). Gradients ACCUMULATE across backward calls until
// zero_grad().
//
// Segments: a batch may be a stack of equal-length row segments (the
// simulator stacks its M virtual workers' minibatches, one segment each).
// Row-local math ignores them. Every reduction ACROSS rows — BatchNorm
// statistics and running-stat updates, every parameter-gradient sum, the
// loss mean — runs once per segment and accumulates in segment order, so
// one pass over the stack is bit-identical to one pass per segment in
// turn. set_segment_rows() records the length for the next forward and
// the backward that follows it; Model::forward sets it on every layer.
// Dropout is the exception: its mask draws follow row order across the
// whole stack, so a stacked pass with p > 0 draws a different mask than
// per-segment passes would (nothing trains with p > 0 that way).
//
// The _into entry points write results into caller-provided tensors whose
// capacity is reused across iterations, so a steady-state training loop
// does no heap allocation (see tensor/workspace.hpp). The by-value
// forward()/backward() wrappers remain for tests and one-off use.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "tensor/workspace.hpp"

namespace dshuf::nn {

/// A trainable parameter: value and accumulated gradient, plus a flag for
/// weight-decay exclusion (biases and norm scales are conventionally
/// excluded, as in the paper's reference training regimes).
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;
  bool apply_weight_decay = true;

  Param(std::string n, Tensor v, bool decay = true)
      : name(std::move(n)),
        value(std::move(v)),
        grad(value.shape()),
        apply_weight_decay(decay) {}
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass into y (resized in place, capacity reused; y must not
  /// alias x). `training` toggles batch-stat collection / dropout.
  virtual void forward_into(const Tensor& x, Tensor& y, bool training) = 0;

  /// Backward pass given dLoss/dOutput: writes dLoss/dInput into grad_in
  /// (resized in place; must not alias grad_out) and accumulates
  /// parameter gradients.
  virtual void backward_into(const Tensor& grad_out, Tensor& grad_in) = 0;

  /// Convenience by-value wrappers over the _into core (these allocate).
  Tensor forward(const Tensor& x, bool training) {
    Tensor y;
    forward_into(x, y, training);
    return y;
  }
  Tensor backward(const Tensor& grad_out) {
    Tensor grad_in;
    backward_into(grad_out, grad_in);
    return grad_in;
  }

  /// Rows per segment for the next forward and its backward; 0 = the
  /// whole batch is one segment (see the header comment).
  void set_segment_rows(std::size_t rows) { segment_rows_ = rows; }

  /// Parameters of this layer (possibly empty).
  virtual std::vector<Param*> params() { return {}; }

  /// Non-trainable state updated during training (e.g. BatchNorm running
  /// statistics). Included in checkpoints; excluded from the optimiser.
  virtual std::vector<Tensor*> buffers() { return {}; }

  /// Layer type name for diagnostics.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Attach a shared scratch arena (Model does this on add()); nullptr
  /// reverts to the layer's private arena.
  void set_workspace(Workspace* ws) { ws_ = ws; }

 protected:
  /// This layer's scratch slot `id` in the attached (or private)
  /// workspace. Same id => same tensor every call; capacity persists.
  Tensor& scratch(int id) {
    return (ws_ != nullptr ? *ws_ : local_ws_).slot(this, id);
  }

  /// Segment length for a batch of `rows` rows; checks that it divides.
  [[nodiscard]] std::size_t segment_len(std::size_t rows) const {
    if (segment_rows_ == 0) return rows;
    DSHUF_CHECK_EQ(rows % segment_rows_, 0U,
                   name() << ": " << rows << " rows do not split into "
                          << segment_rows_ << "-row segments");
    return segment_rows_;
  }

 private:
  std::size_t segment_rows_ = 0;
  Workspace* ws_ = nullptr;
  Workspace local_ws_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace dshuf::nn
