// Inception-style multi-branch block ("MicroInception").
//
// The paper fine-tunes Inception-V3; training a 24M-parameter network is a
// compute gate on this substrate (see DESIGN.md), so the frame model uses a
// scaled-down block that keeps the architectural idea the paper cites: four
// parallel branches at different receptive fields (1x1, 3x3, 5x5 factored
// as two 3x3s, and pooled 1x1), concatenated along channels.
#pragma once

#include "nn/layer.hpp"
#include "nn/sequential.hpp"

namespace darnet::nn {

/// Runs each branch on the same input and concatenates outputs along the
/// channel axis. All branches must preserve spatial dimensions and batch.
class ParallelConcat final : public Layer {
 public:
  ParallelConcat() = default;

  ParallelConcat& add_branch(LayerPtr branch);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override;
  [[nodiscard]] std::string name() const override { return "ParallelConcat"; }

  [[nodiscard]] std::size_t branch_count() const noexcept {
    return branches_.size();
  }

  /// Folds the branch contracts: kOk when every branch declares an output
  /// with matching batch/spatial dims (output channels are summed);
  /// kUnchecked as soon as any branch declines to declare.
  [[nodiscard]] ShapeContract shape_contract(
      const std::vector<int>& input_shape) const override;

 private:
  std::vector<LayerPtr> branches_;
  // From the last training forward; backward slices its gradient by them.
  std::vector<int> branch_channels_;
  tensor::Shape input_shape_;
  tensor::Shape output_shape_;
};

/// Builds a MicroInception block for `in_channels` input feature maps:
///   branch A: 1x1 conv -> ReLU                        (ch_1x1 outputs)
///   branch B: 1x1 reduce -> ReLU -> 3x3 conv -> ReLU  (ch_3x3 outputs)
///   branch C: 1x1 reduce -> ReLU -> 3x3 -> ReLU -> 3x3 -> ReLU
///             (factored 5x5; ch_5x5 outputs)
///   branch D: 3x3 "pool-proxy" conv -> ReLU           (ch_pool outputs)
/// Output channels = ch_1x1 + ch_3x3 + ch_5x5 + ch_pool.
LayerPtr make_micro_inception(int in_channels, int ch_1x1, int ch_3x3,
                              int ch_5x5, int ch_pool, util::Rng& rng);

}  // namespace darnet::nn
