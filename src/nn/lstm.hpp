// Bidirectional LSTM layers for IMU time-series classification.
//
// The paper's IMU model is "a deep bidirectional LSTM network ... 2
// bidirectional LSTM cells", evaluated on sliding windows of 20 samples
// (4 Hz x 5 s). Layers here operate on [N, T, D] tensors and produce
// [N, T, 2H] (forward and backward hidden states concatenated per step),
// so two of them stack exactly as in the paper, followed by temporal
// pooling and a softmax classification layer.
#pragma once

#include "nn/layer.hpp"

namespace darnet::nn {

/// One direction of an LSTM (shared math for forward/backward-in-time).
/// Gate order in the fused weight matrices is [i, f, g, o].
struct LstmDirection {
  LstmDirection(int input_dim, int hidden_dim, util::Rng& rng);

  Param wx;  // [D, 4H]
  Param wh;  // [H, 4H]
  Param b;   // [4H]
  int input_dim;
  int hidden_dim;
};

/// Bidirectional LSTM over [N, T, D] -> [N, T, 2H].
class BiLstm final : public Layer {
 public:
  BiLstm(int input_dim, int hidden_dim, util::Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor forward_moved(Tensor&& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override;
  [[nodiscard]] std::string name() const override { return "BiLstm"; }

  [[nodiscard]] int hidden_dim() const noexcept { return hidden_; }

  [[nodiscard]] ShapeContract shape_contract(
      const std::vector<int>& input_shape) const override;

 private:
  /// One direction's activations, time-major: rows [t*N, (t+1)*N) of
  /// each slab belong to time step t. Inference fills a local trace;
  /// training keeps it for BPTT.
  struct DirectionTrace {
    Tensor gates;   // [T*N, 4H] activated [i | f | g | o]
    Tensor c;       // [T*N, H]
    Tensor tanh_c;  // [T*N, H]
    Tensor h;       // [T*N, H]
  };

  /// Run one direction over the time-major input `x_tm` ([T*N, D]),
  /// writing h into output[:, t, out_offset : out_offset + H].
  /// `reversed` walks t from T-1 down to 0.
  void run_direction(const Tensor& x_tm, const LstmDirection& dir,
                     bool reversed, DirectionTrace& trace, Tensor& output,
                     int out_offset) const;

  /// Both directions; keeps the traces when `training`.
  Tensor run(const Tensor& input, bool training);

  /// BPTT for one direction; accumulates parameter grads and input grads.
  void backprop_direction(const Tensor& grad_output, int out_offset,
                          LstmDirection& dir, bool reversed,
                          const DirectionTrace& trace, Tensor& grad_input);

  int input_dim_;
  int hidden_;
  LstmDirection fwd_;
  LstmDirection bwd_;
  Tensor cached_input_;
  DirectionTrace fwd_trace_;
  DirectionTrace bwd_trace_;
};

/// Mean over the time axis: [N, T, F] -> [N, F].
class TemporalMeanPool final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override {
    return "TemporalMeanPool";
  }
  [[nodiscard]] ShapeContract shape_contract(
      const std::vector<int>& input_shape) const override;

 private:
  std::vector<int> input_shape_;
};

}  // namespace darnet::nn
