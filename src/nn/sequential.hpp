// Sequential layer container + checkpoint serialisation.
#pragma once

#include "nn/layer.hpp"

namespace darnet::nn {

class Sequential final : public Layer {
 public:
  Sequential() = default;

  /// Append a layer; returns *this for chaining.
  Sequential& add(LayerPtr layer);

  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  Tensor forward(const Tensor& input, bool training) override;
  Tensor forward_moved(Tensor&& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override;
  [[nodiscard]] std::string name() const override { return "Sequential"; }

  /// Folds the per-layer contracts front to back: kOk with the final
  /// output shape when every layer declares one, kBad (with layer
  /// attribution) on the first violated contract, kUnchecked as soon as a
  /// layer declines to declare.
  [[nodiscard]] ShapeContract shape_contract(
      const std::vector<int>& input_shape) const override;

  [[nodiscard]] std::size_t size() const noexcept { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_.at(i); }

  /// Total learnable scalar count.
  [[nodiscard]] std::size_t parameter_count();

  /// Checkpointing: parameters only, in layer order. The architecture must
  /// be reconstructed by the caller before load.
  void save_params(util::BinaryWriter& writer);
  void load_params(util::BinaryReader& reader);

 private:
#ifdef DARNET_CHECKED
  /// Checked builds only: verify layer i's declared contract against the
  /// observed input/output shapes and finite-guard the produced activation.
  void verify_boundary(std::size_t i, const std::vector<int>& in_shape,
                       const Tensor& output) const;
#endif

  std::vector<LayerPtr> layers_;
  /// Each layer's name(), taken once in add(): the per-call span detail
  /// reads it instead of building a std::string (which allocates past the
  /// small-string buffer, e.g. "TemporalMeanPool") on every forward.
  std::vector<std::string> layer_names_;
#ifdef DARNET_CHECKED
  /// Input shape seen by each layer in the last forward pass; backward
  /// asserts each layer's input-gradient matches it.
  std::vector<std::vector<int>> checked_in_shapes_;
#endif
};

/// Zero all parameter gradients of any layer tree.
void zero_grads(Layer& model);

}  // namespace darnet::nn
