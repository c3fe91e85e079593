#include "nn/inception.hpp"

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "tensor/arena.hpp"
#include "tensor/ops.hpp"

namespace darnet::nn {

ParallelConcat& ParallelConcat::add_branch(LayerPtr branch) {
  if (!branch) {
    throw std::invalid_argument("ParallelConcat::add_branch: null branch");
  }
  branches_.push_back(std::move(branch));
  return *this;
}

ShapeContract ParallelConcat::shape_contract(
    const std::vector<int>& input_shape) const {
  if (branches_.empty()) {
    return ShapeContract::bad("ParallelConcat has no branches");
  }
  if (input_shape.size() != 4) {
    return ShapeContract::bad(
        "ParallelConcat expects rank-4 NCHW input, got rank " +
        std::to_string(input_shape.size()));
  }
  int total_ch = 0;
  int oh = -1;
  int ow = -1;
  for (std::size_t b = 0; b < branches_.size(); ++b) {
    const ShapeContract c = branches_[b]->shape_contract(input_shape);
    if (c.kind == ShapeContract::Kind::kBad) {
      return ShapeContract::bad("branch #" + std::to_string(b) + " (" +
                                branches_[b]->name() + "): " + c.error);
    }
    if (c.kind == ShapeContract::Kind::kUnchecked) {
      return ShapeContract::unchecked();
    }
    const std::vector<int>& out = c.output_shape;
    if (out.size() != 4 || out[0] != input_shape[0]) {
      return ShapeContract::bad("branch #" + std::to_string(b) +
                                " does not declare NCHW output");
    }
    if (oh < 0) {
      oh = out[2];
      ow = out[3];
    } else if (out[2] != oh || out[3] != ow) {
      return ShapeContract::bad(
          "branches declare disagreeing spatial sizes");
    }
    total_ch += out[1];
  }
  return ShapeContract::ok({input_shape[0], total_ch, oh, ow});
}

Tensor ParallelConcat::forward(const Tensor& input, bool training) {
  if (branches_.empty()) {
    throw std::logic_error("ParallelConcat: no branches");
  }
  if (input.rank() != 4) {
    throw std::invalid_argument("ParallelConcat: NCHW input required");
  }
  // Branch outputs live for the length of this call only; route the
  // vector's backing block through the scratch arena so the steady-state
  // inference path stays heap-free.
  std::vector<Tensor, tensor::ArenaAlloc<Tensor>> outs;
  outs.reserve(branches_.size());
  int total_ch = 0;
  const int n = input.dim(0);
  int oh = -1, ow = -1;
  for (auto& branch : branches_) {
    Tensor y = branch->forward(input, training);
    if (y.rank() != 4 || y.dim(0) != n) {
      throw std::logic_error("ParallelConcat: branch output not NCHW");
    }
    if (oh < 0) {
      oh = y.dim(2);
      ow = y.dim(3);
    } else if (y.dim(2) != oh || y.dim(3) != ow) {
      throw std::logic_error(
          "ParallelConcat: branches disagree on spatial size");
    }
    total_ch += y.dim(1);
    outs.push_back(std::move(y));
  }
  if (training) {
    // Backward's slicing plan; inference reads each branch's channel
    // count off its output and writes nothing here.
    input_shape_ = input.shape();
    output_shape_ = {n, total_ch, oh, ow};
    branch_channels_.clear();
    for (const Tensor& y : outs) branch_channels_.push_back(y.dim(1));
  }

  Tensor out = Tensor::uninit({n, total_ch, oh, ow});  // fully overwritten
  const std::size_t plane = static_cast<std::size_t>(oh) * ow;
  for (int img = 0; img < n; ++img) {
    std::size_t ch_offset = 0;
    for (std::size_t b = 0; b < outs.size(); ++b) {
      const int bc = outs[b].dim(1);
      const float* src = outs[b].data() +
                         static_cast<std::size_t>(img) * bc * plane;
      float* dst = out.data() +
                   (static_cast<std::size_t>(img) * total_ch + ch_offset) *
                       plane;
      std::copy(src, src + static_cast<std::size_t>(bc) * plane, dst);
      ch_offset += bc;
    }
  }
  return out;
}

Tensor ParallelConcat::backward(const Tensor& grad_output) {
  if (input_shape_.empty()) {
    throw std::logic_error(
        "ParallelConcat::backward before forward(training=true)");
  }
  // Each branch's slice is read at the channel offsets of the training
  // forward's output.
  require_grad_shape(grad_output, output_shape_, "ParallelConcat");
  const int n = grad_output.dim(0);
  const int oh = grad_output.dim(2), ow = grad_output.dim(3);
  const int total_ch = grad_output.dim(1);
  const std::size_t plane = static_cast<std::size_t>(oh) * ow;

  Tensor grad_in(input_shape_);
  std::size_t ch_offset = 0;
  for (std::size_t b = 0; b < branches_.size(); ++b) {
    const int bc = branch_channels_[b];
    Tensor gslice = Tensor::uninit({n, bc, oh, ow});  // fully overwritten
    for (int img = 0; img < n; ++img) {
      const float* src =
          grad_output.data() +
          (static_cast<std::size_t>(img) * total_ch + ch_offset) * plane;
      float* dst =
          gslice.data() + static_cast<std::size_t>(img) * bc * plane;
      std::copy(src, src + static_cast<std::size_t>(bc) * plane, dst);
    }
    Tensor gx = branches_[b]->backward(gslice);
    tensor::add_inplace(grad_in, gx);
    ch_offset += bc;
  }
  return grad_in;
}

std::vector<Param*> ParallelConcat::params() {
  std::vector<Param*> all;
  for (auto& branch : branches_) {
    for (Param* p : branch->params()) all.push_back(p);
  }
  return all;
}

LayerPtr make_micro_inception(int in_channels, int ch_1x1, int ch_3x3,
                              int ch_5x5, int ch_pool, util::Rng& rng) {
  auto block = std::make_unique<ParallelConcat>();

  auto branch_a = std::make_unique<Sequential>();
  branch_a->emplace<Conv2D>(in_channels, ch_1x1, 1, 0, rng);
  branch_a->emplace<ReLU>();
  block->add_branch(std::move(branch_a));

  auto branch_b = std::make_unique<Sequential>();
  branch_b->emplace<Conv2D>(in_channels, ch_3x3 / 2 + 1, 1, 0, rng);
  branch_b->emplace<ReLU>();
  branch_b->emplace<Conv2D>(ch_3x3 / 2 + 1, ch_3x3, 3, 1, rng);
  branch_b->emplace<ReLU>();
  block->add_branch(std::move(branch_b));

  auto branch_c = std::make_unique<Sequential>();
  branch_c->emplace<Conv2D>(in_channels, ch_5x5 / 2 + 1, 1, 0, rng);
  branch_c->emplace<ReLU>();
  branch_c->emplace<Conv2D>(ch_5x5 / 2 + 1, ch_5x5, 3, 1, rng);
  branch_c->emplace<ReLU>();
  branch_c->emplace<Conv2D>(ch_5x5, ch_5x5, 3, 1, rng);
  branch_c->emplace<ReLU>();
  block->add_branch(std::move(branch_c));

  auto branch_d = std::make_unique<Sequential>();
  branch_d->emplace<Conv2D>(in_channels, ch_pool, 3, 1, rng);
  branch_d->emplace<ReLU>();
  block->add_branch(std::move(branch_d));

  return block;
}

}  // namespace darnet::nn
