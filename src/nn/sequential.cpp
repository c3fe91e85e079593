#include "nn/sequential.hpp"

#include <sstream>

#include "check/check.hpp"
#include "obs/obs.hpp"

namespace darnet::nn {

namespace {

[[maybe_unused]] std::string shape_string(const std::vector<int>& shape) {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) out << ", ";
    out << shape[i];
  }
  out << ']';
  return out.str();
}

}  // namespace

Sequential& Sequential::add(LayerPtr layer) {
  if (!layer) throw std::invalid_argument("Sequential::add: null layer");
  layer_names_.push_back(layer->name());
  layers_.push_back(std::move(layer));
  return *this;
}

ShapeContract Sequential::shape_contract(
    const std::vector<int>& input_shape) const {
  std::vector<int> shape = input_shape;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const ShapeContract c = layers_[i]->shape_contract(shape);
    if (c.kind == ShapeContract::Kind::kBad) {
      return ShapeContract::bad("layer #" + std::to_string(i) + " (" +
                                layers_[i]->name() + "): " + c.error);
    }
    if (c.kind == ShapeContract::Kind::kUnchecked) {
      return ShapeContract::unchecked();
    }
    shape = c.output_shape;
  }
  return ShapeContract::ok(std::move(shape));
}

#ifdef DARNET_CHECKED
void Sequential::verify_boundary(std::size_t i,
                                 const std::vector<int>& in_shape,
                                 const Tensor& output) const {
  const Layer& layer = *layers_[i];
  const std::string where =
      "layer #" + std::to_string(i) + " (" + layer.name() + ")";
  const ShapeContract c = layer.shape_contract(in_shape);
  if (c.kind == ShapeContract::Kind::kBad) {
    check::fail("layer shape contract", __FILE__, __LINE__,
                "Sequential::" + where + ": input " + shape_string(in_shape) +
                    " violates contract: " + c.error);
  }
  if (c.kind == ShapeContract::Kind::kOk &&
      c.output_shape != output.shape()) {
    check::fail("layer shape contract", __FILE__, __LINE__,
                "Sequential::" + where + ": declared output " +
                    shape_string(c.output_shape) + " but produced " +
                    shape_string(output.shape()));
  }
  DARNET_CHECK_FINITE(output.flat(), "forward output of " + where);
}
#endif

Tensor Sequential::forward(const Tensor& input, bool training) {
  if (layers_.empty()) return input;
  DARNET_TIMER("nn/forward_ns");
#ifdef DARNET_CHECKED
  std::vector<std::vector<int>> in_shapes(layers_.size());
  in_shapes[0] = input.shape();
#endif
  // First layer reads the caller's tensor; every later layer receives the
  // previous activation as an rvalue so caching layers (Conv2D, Dense,
  // BiLstm) can steal the buffer instead of deep-copying it.
  Tensor x;
  {
    DARNET_SPAN_DETAIL("nn/layer_forward", layer_names_.front());
    x = layers_.front()->forward(input, training);
  }
#ifdef DARNET_CHECKED
  verify_boundary(0, in_shapes[0], x);
#endif
  for (std::size_t i = 1; i < layers_.size(); ++i) {
#ifdef DARNET_CHECKED
    in_shapes[i] = x.shape();
#endif
    {
      DARNET_SPAN_DETAIL("nn/layer_forward", layer_names_[i]);
      x = layers_[i]->forward_moved(std::move(x), training);
    }
#ifdef DARNET_CHECKED
    verify_boundary(i, in_shapes[i], x);
#endif
  }
#ifdef DARNET_CHECKED
  if (training) checked_in_shapes_ = std::move(in_shapes);
#endif
  return x;
}

Tensor Sequential::forward_moved(Tensor&& input, bool training) {
  DARNET_TIMER("nn/forward_ns");
  Tensor x = std::move(input);
#ifdef DARNET_CHECKED
  std::vector<std::vector<int>> in_shapes(layers_.size());
#endif
  for (std::size_t i = 0; i < layers_.size(); ++i) {
#ifdef DARNET_CHECKED
    in_shapes[i] = x.shape();
#endif
    {
      DARNET_SPAN_DETAIL("nn/layer_forward", layer_names_[i]);
      x = layers_[i]->forward_moved(std::move(x), training);
    }
#ifdef DARNET_CHECKED
    verify_boundary(i, in_shapes[i], x);
#endif
  }
#ifdef DARNET_CHECKED
  if (training) checked_in_shapes_ = std::move(in_shapes);
#endif
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  DARNET_TIMER("nn/backward_ns");
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    {
      DARNET_SPAN_DETAIL("nn/layer_backward", (*it)->name());
      g = (*it)->backward(g);
    }
#ifdef DARNET_CHECKED
    const auto i =
        static_cast<std::size_t>(std::distance(it, layers_.rend())) - 1;
    const std::string where =
        "layer #" + std::to_string(i) + " (" + (*it)->name() + ")";
    if (i < checked_in_shapes_.size() && !checked_in_shapes_[i].empty()) {
      DARNET_CHECK_MSG(g.shape() == checked_in_shapes_[i],
                       "Sequential::" + where + ": input-gradient shape " +
                           shape_string(g.shape()) +
                           " != forward input shape " +
                           shape_string(checked_in_shapes_[i]));
    }
    DARNET_CHECK_FINITE(g.flat(), "backward gradient of " + where);
#endif
  }
  return g;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> all;
  for (auto& layer : layers_) {
    for (Param* p : layer->params()) all.push_back(p);
  }
  return all;
}

std::size_t Sequential::parameter_count() {
  std::size_t n = 0;
  for (Param* p : params()) n += p->value.numel();
  return n;
}

void Sequential::save_params(util::BinaryWriter& writer) {
  const auto all = params();
  writer.write_u32(static_cast<std::uint32_t>(all.size()));
  for (Param* p : all) p->value.serialize(writer);
}

void Sequential::load_params(util::BinaryReader& reader) {
  const auto all = params();
  const auto n = reader.read_u32();
  if (n != all.size()) {
    throw std::invalid_argument(
        "Sequential::load_params: checkpoint/architecture mismatch");
  }
  for (Param* p : all) {
    Tensor loaded = Tensor::deserialize(reader);
    if (!loaded.same_shape(p->value)) {
      throw std::invalid_argument(
          "Sequential::load_params: parameter shape mismatch");
    }
    p->value = std::move(loaded);
    p->grad = Tensor(p->value.shape());
  }
}

void zero_grads(Layer& model) {
  for (Param* p : model.params()) p->zero_grad();
}

}  // namespace darnet::nn
