// Layer abstraction for the DarNet neural-network library.
//
// Layers are stateful (they own parameters and cache forward activations
// needed by backward), trained with explicit reverse-mode passes: no tape,
// no graph -- each layer knows its own derivative. This keeps the library
// small, auditable, and fast on a single core.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace darnet::nn {

using tensor::Tensor;

/// A learnable parameter: value plus its accumulated gradient.
struct Param {
  Tensor value;
  Tensor grad;

  explicit Param(Tensor initial)
      : value(std::move(initial)), grad(value.shape()) {}

  void zero_grad() noexcept { grad.zero(); }
};

/// The shape contract a layer declares for checked builds: given an input
/// shape, a layer either states the exact output shape it will produce
/// (kOk), reports why the input violates its contract (kBad), or declines
/// to declare one (kUnchecked). Sequential verifies declared contracts at
/// every layer boundary per step when compiled with DARNET_CHECKED.
struct ShapeContract {
  enum class Kind { kUnchecked, kOk, kBad };

  Kind kind{Kind::kUnchecked};
  std::vector<int> output_shape;  // valid when kind == kOk
  std::string error;              // valid when kind == kBad

  static ShapeContract unchecked() { return {}; }
  static ShapeContract ok(std::vector<int> out) {
    ShapeContract c;
    c.kind = Kind::kOk;
    c.output_shape = std::move(out);
    return c;
  }
  static ShapeContract bad(std::string why) {
    ShapeContract c;
    c.kind = Kind::kBad;
    c.error = std::move(why);
    return c;
  }
};

/// Base class for all layers. forward() must be called before backward();
/// backward() consumes the gradient w.r.t. the layer output and returns the
/// gradient w.r.t. the layer input, accumulating parameter gradients.
class Layer {
 public:
  virtual ~Layer() = default;

  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;
  Layer(Layer&&) = default;
  Layer& operator=(Layer&&) = default;

  /// With `training` false, forward writes nothing into the layer: no
  /// activation cache, no shape record, no weight copy. Concurrent
  /// inference passes on one model are therefore safe, which is what lets
  /// every serving shard run passes on one shared replica. With `training`
  /// true it caches what backward() needs, so no other call on the layer
  /// may run at the same time.
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  /// Rvalue-input forward: layers that cache their input for backward may
  /// override this to steal the buffer instead of deep-copying it (the
  /// default forwards to the const-ref overload). Sequential uses it to
  /// hand each intermediate activation to the next layer without copies.
  virtual Tensor forward_moved(Tensor&& input, bool training) {
    return forward(input, training);
  }

  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Learnable parameters (empty for stateless layers). Pointers remain
  /// valid for the lifetime of the layer.
  virtual std::vector<Param*> params() { return {}; }

  /// Declared in/out shape contract for `input_shape`, verified by
  /// Sequential at every layer boundary in checked builds. The default
  /// declines to declare one; concrete layers override.
  [[nodiscard]] virtual ShapeContract shape_contract(
      const std::vector<int>& input_shape) const {
    (void)input_shape;
    return ShapeContract::unchecked();
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

/// Refuses a gradient whose shape is not `want`, the output shape the
/// layer's cached input implies: each backward reads its gradient at that
/// shape, so any other one would be read out of bounds or at the wrong
/// offsets. Throws std::invalid_argument naming `layer`.
inline void require_grad_shape(const Tensor& grad, const tensor::Shape& want,
                               const char* layer) {
  if (grad.shape() == want) return;
  std::string expected;
  for (std::size_t i = 0; i < want.size(); ++i) {
    expected += (i == 0 ? "" : ", ") + std::to_string(want[i]);
  }
  throw std::invalid_argument(std::string(layer) +
                              "::backward: expected gradient [" + expected +
                              "], got " + grad.shape_string());
}

}  // namespace darnet::nn
