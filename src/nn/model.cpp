#include "nn/model.hpp"

#include "util/error.hpp"

namespace dshuf::nn {

Model::Model(Model&& other) noexcept
    : layers_(std::move(other.layers_)),
      ws_(std::move(other.ws_)),
      param_cache_(std::move(other.param_cache_)),
      param_cache_valid_(other.param_cache_valid_) {
  attach_layers();
}

Model& Model::operator=(Model&& other) noexcept {
  if (this != &other) {
    layers_ = std::move(other.layers_);
    ws_ = std::move(other.ws_);
    param_cache_ = std::move(other.param_cache_);
    param_cache_valid_ = other.param_cache_valid_;
    attach_layers();
  }
  return *this;
}

void Model::attach_layers() {
  for (auto& l : layers_) l->set_workspace(&ws_);
}

Model& Model::add(LayerPtr layer) {
  DSHUF_CHECK(layer != nullptr, "cannot add a null layer");
  layer->set_workspace(&ws_);
  layers_.push_back(std::move(layer));
  param_cache_valid_ = false;
  return *this;
}

const Tensor& Model::forward(const Tensor& x, bool training,
                             std::size_t segment_rows) {
  // Stage the input in slot 0 so every layer's cached input pointer
  // refers to model-owned storage that outlives the backward pass.
  copy_into(x, ws_.slot(nullptr, 0));
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Tensor& in = ws_.slot(nullptr, static_cast<int>(i));
    Tensor& out = ws_.slot(nullptr, static_cast<int>(i) + 1);
    layers_[i]->set_segment_rows(segment_rows);
    layers_[i]->forward_into(in, out, training);
  }
  return ws_.slot(nullptr, static_cast<int>(layers_.size()));
}

void Model::backward(const Tensor& grad_out) {
  const Tensor* g = &grad_out;
  int next_slot = kGradSlotA;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    Tensor& out = ws_.slot(nullptr, next_slot);
    (*it)->backward_into(*g, out);
    g = &out;
    next_slot = next_slot == kGradSlotA ? kGradSlotB : kGradSlotA;
  }
}

const std::vector<Param*>& Model::param_refs() {
  if (!param_cache_valid_) {
    param_cache_.clear();
    for (auto& l : layers_) {
      for (Param* p : l->params()) param_cache_.push_back(p);
    }
    param_cache_valid_ = true;
  }
  return param_cache_;
}

void Model::zero_grad() {
  for (Param* p : param_refs()) p->grad.zero();
}

void Model::scale_grad(float factor) {
  for (Param* p : param_refs()) p->grad.scale(factor);
}

std::size_t Model::num_params() {
  std::size_t n = 0;
  for (Param* p : param_refs()) n += p->value.size();
  return n;
}

std::vector<float> Model::state() {
  std::vector<float> s;
  for (Param* p : param_refs()) {
    s.insert(s.end(), p->value.vec().begin(), p->value.vec().end());
  }
  return s;
}

void Model::load_state(const std::vector<float>& s) {
  std::size_t off = 0;
  for (Param* p : param_refs()) {
    DSHUF_CHECK_LE(off + p->value.size(), s.size(),
                   "state vector too small for model");
    std::copy(s.begin() + static_cast<std::ptrdiff_t>(off),
              s.begin() + static_cast<std::ptrdiff_t>(off + p->value.size()),
              p->value.vec().begin());
    off += p->value.size();
  }
  DSHUF_CHECK_EQ(off, s.size(), "state vector size mismatch");
}

std::vector<Tensor*> Model::buffers() {
  std::vector<Tensor*> out;
  for (auto& l : layers_) {
    for (Tensor* b : l->buffers()) out.push_back(b);
  }
  return out;
}

std::vector<float> Model::buffer_state() {
  std::vector<float> s;
  for (Tensor* b : buffers()) {
    s.insert(s.end(), b->vec().begin(), b->vec().end());
  }
  return s;
}

void Model::load_buffer_state(const std::vector<float>& s) {
  std::size_t off = 0;
  for (Tensor* b : buffers()) {
    DSHUF_CHECK_LE(off + b->size(), s.size(),
                   "buffer state vector too small for model");
    std::copy(s.begin() + static_cast<std::ptrdiff_t>(off),
              s.begin() + static_cast<std::ptrdiff_t>(off + b->size()),
              b->vec().begin());
    off += b->size();
  }
  DSHUF_CHECK_EQ(off, s.size(), "buffer state vector size mismatch");
}

std::vector<float> Model::gradients() {
  std::vector<float> g;
  for (Param* p : param_refs()) {
    g.insert(g.end(), p->grad.vec().begin(), p->grad.vec().end());
  }
  return g;
}

std::vector<Layer*> Model::layers() {
  std::vector<Layer*> out;
  out.reserve(layers_.size());
  for (auto& l : layers_) out.push_back(l.get());
  return out;
}

void Model::pop_layers(std::size_t n) {
  DSHUF_CHECK_LE(n, layers_.size(), "cannot pop more layers than exist");
  layers_.resize(layers_.size() - n);
  param_cache_valid_ = false;
}

}  // namespace dshuf::nn
