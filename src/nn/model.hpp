// Sequential model container.
//
// Owns a stack of layers, exposes the flattened parameter list (for the
// optimiser and for gradient allreduce emulation), weight state
// save/restore (warm starts, the ImageNet-21K -> 1K transfer experiment),
// and gradient utilities used by the distributed-SGD simulator.
//
// The model also owns the Workspace all its layers share: activations are
// staged in model-owned slots (forward returns a reference into the
// workspace, valid until the next forward) and backward ping-pongs
// gradients between two slots. After warm-up every tensor in the loop has
// reached its high-water capacity and training iterations allocate
// nothing (asserted by tests/test_workspace.cpp).
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"
#include "tensor/workspace.hpp"

namespace dshuf::nn {

class Model {
 public:
  Model() = default;
  // Layers cache a pointer to the model's workspace; moves re-attach.
  Model(Model&& other) noexcept;
  Model& operator=(Model&& other) noexcept;
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  /// Append a layer (attaching it to the model's workspace); returns
  /// *this for chaining.
  Model& add(LayerPtr layer);

  /// Forward through all layers. The returned reference points into the
  /// model's workspace and stays valid until the next forward() call.
  /// segment_rows splits the batch into equal row segments whose
  /// cross-row reductions stay separate (layer.hpp); 0 = one segment.
  const Tensor& forward(const Tensor& x, bool training,
                        std::size_t segment_rows = 0);

  /// Backward through all layers from dLoss/dOutput, over the segments of
  /// the last forward; accumulates gradients.
  void backward(const Tensor& grad_out);

  /// All trainable parameters in layer order (fresh copy of the cached
  /// list; hot-path callers should use param_refs()).
  [[nodiscard]] std::vector<Param*> params() { return param_refs(); }

  /// Cached parameter list, rebuilt only when the layer stack changes.
  /// The reference is invalidated by add() / pop_layers().
  [[nodiscard]] const std::vector<Param*>& param_refs();

  /// Clear all parameter gradients.
  void zero_grad();

  /// Multiply all gradients by `factor` (e.g. 1/M after summing M workers'
  /// segments — the "gradient averaging" of synchronous SGD).
  void scale_grad(float factor);

  /// Total number of scalar parameters.
  [[nodiscard]] std::size_t num_params();

  /// Flatten parameter values into one vector (order-stable).
  [[nodiscard]] std::vector<float> state();
  /// Restore parameter values from state(); size must match.
  void load_state(const std::vector<float>& s);

  /// All non-trainable buffers in layer order (BatchNorm running stats).
  [[nodiscard]] std::vector<Tensor*> buffers();
  /// Flatten / restore buffer contents (for checkpoints).
  [[nodiscard]] std::vector<float> buffer_state();
  void load_buffer_state(const std::vector<float>& s);

  /// Flatten gradients (for emulated allreduce / tests).
  [[nodiscard]] std::vector<float> gradients();

  /// Access to layers, e.g. to find BatchNorm instances or replace the
  /// classification head in transfer learning.
  [[nodiscard]] std::vector<Layer*> layers();
  /// Drop the last `n` layers (transfer-learning head replacement).
  void pop_layers(std::size_t n);

  /// The scratch arena shared by this model's layers (activations, conv
  /// im2col buffers, norm caches). Exposed for telemetry.
  [[nodiscard]] Workspace& workspace() { return ws_; }

 private:
  // Model-owned workspace slots are keyed by a nullptr owner: id i >= 0 is
  // the input of layer i (id layers_.size() is the final output); ids
  // kGradSlotA/B are the backward ping-pong pair. Keys don't involve the
  // model's address, so moved-from slot maps stay valid.
  static constexpr int kGradSlotA = -1;
  static constexpr int kGradSlotB = -2;

  void attach_layers();

  std::vector<LayerPtr> layers_;
  Workspace ws_;
  std::vector<Param*> param_cache_;
  bool param_cache_valid_ = false;
};

}  // namespace dshuf::nn
