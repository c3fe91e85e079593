#include "nn/lstm.hpp"

#include <algorithm>

#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"

namespace darnet::nn {

namespace {

void require_input(const Tensor& input, int input_dim) {
  if (input.rank() != 3 || input.dim(2) != input_dim) {
    throw std::invalid_argument("BiLstm::forward: expected [N, T, " +
                                std::to_string(input_dim) + "], got " +
                                input.shape_string());
  }
}

/// Extract timestep t of [N, T, D] into a [N, D] matrix.
Tensor slice_step(const Tensor& input, int t) {
  const int n = input.dim(0), steps = input.dim(1), d = input.dim(2);
  Tensor out({n, d});
  for (int i = 0; i < n; ++i) {
    const float* src = input.data() +
                       (static_cast<std::size_t>(i) * steps + t) * d;
    float* dst = out.data() + static_cast<std::size_t>(i) * d;
    std::copy(src, src + d, dst);
  }
  return out;
}

/// Copy rows [first, first + count) of a row-major [R, C] slab.
Tensor slab_rows(const Tensor& slab, int first, int count) {
  const int cols = slab.dim(1);
  Tensor out({count, cols});
  const float* src = slab.data() + static_cast<std::size_t>(first) * cols;
  std::copy(src, src + static_cast<std::size_t>(count) * cols, out.data());
  return out;
}

/// Accumulate a [N, D] matrix into timestep t of [N, T, D].
void add_step(Tensor& dst, int t, const Tensor& src) {
  const int n = dst.dim(0), steps = dst.dim(1), d = dst.dim(2);
  for (int i = 0; i < n; ++i) {
    float* out = dst.data() + (static_cast<std::size_t>(i) * steps + t) * d;
    const float* in = src.data() + static_cast<std::size_t>(i) * d;
    for (int j = 0; j < d; ++j) out[j] += in[j];
  }
}

}  // namespace

LstmDirection::LstmDirection(int input_dim_, int hidden_dim_, util::Rng& rng)
    : wx(Tensor::he_normal({input_dim_, 4 * hidden_dim_}, input_dim_, rng)),
      wh(Tensor::he_normal({hidden_dim_, 4 * hidden_dim_}, hidden_dim_, rng)),
      b(Tensor({4 * hidden_dim_})),
      input_dim(input_dim_),
      hidden_dim(hidden_dim_) {
  // Initialise the forget-gate bias to 1 so gradients flow at the start of
  // training (standard LSTM practice).
  for (int j = hidden_dim_; j < 2 * hidden_dim_; ++j) b.value.at(j) = 1.0f;
}

BiLstm::BiLstm(int input_dim, int hidden_dim, util::Rng& rng)
    : input_dim_(input_dim),
      hidden_(hidden_dim),
      fwd_(input_dim, hidden_dim, rng),
      bwd_(input_dim, hidden_dim, rng) {
  if (input_dim <= 0 || hidden_dim <= 0) {
    throw std::invalid_argument("BiLstm: dims must be positive");
  }
}

void BiLstm::run_direction(const Tensor& x_tm, const LstmDirection& dir,
                           bool reversed, DirectionTrace& trace,
                           Tensor& output, int out_offset) const {
  const int n = output.dim(0), steps = output.dim(1), out_f = output.dim(2);
  const int h = dir.hidden_dim;
  const std::size_t z_step = static_cast<std::size_t>(n) * 4 * h;
  const std::size_t h_step = static_cast<std::size_t>(n) * h;

  // Gate pre-activations Z_t = X_t Wx + H_{t-1} Wh (+ b in the cell): the
  // X_t Wx half of every step comes out of one GEMM.
  trace.gates = Tensor({steps * n, 4 * h});
  tensor::matmul_accumulate(x_tm, dir.wx.value, trace.gates);
  trace.c = Tensor::uninit({steps * n, h});
  trace.tanh_c = Tensor::uninit({steps * n, h});
  trace.h = Tensor::uninit({steps * n, h});
  const Tensor c_initial({n, h});

  const tensor::kernels::Kernels& kv = tensor::kernels::active_kernels();
  const float* h_prev = nullptr;  // h_{-1} = 0 adds nothing to Z_0
  const float* c_prev = c_initial.data();
  for (int step = 0; step < steps; ++step) {
    const int t = reversed ? steps - 1 - step : step;
    const std::size_t zt = static_cast<std::size_t>(t) * z_step;
    const std::size_t ht = static_cast<std::size_t>(t) * h_step;
    float* z = trace.gates.data() + zt;
    float* c = trace.c.data() + ht;
    float* hh = trace.h.data() + ht;
    if (h_prev != nullptr) {
      kv.gemm_rows(h_prev, dir.wh.value.data(), z, 0, n, h, 4 * h);
    }
    kv.lstm_cell(z, dir.b.value.data(), c_prev, c, trace.tanh_c.data() + ht,
                 hh, n, h);

    // Write h into the output slab at [*, t, out_offset : out_offset+h].
    for (int i = 0; i < n; ++i) {
      float* dst = output.data() +
                   (static_cast<std::size_t>(i) * steps + t) * out_f +
                   out_offset;
      const float* src = hh + static_cast<std::size_t>(i) * h;
      std::copy(src, src + h, dst);
    }
    h_prev = hh;
    c_prev = c;
  }
}

ShapeContract BiLstm::shape_contract(
    const std::vector<int>& input_shape) const {
  if (input_shape.size() != 3 || input_shape[2] != input_dim_) {
    return ShapeContract::bad("BiLstm expects [N, T, " +
                              std::to_string(input_dim_) + "] input");
  }
  return ShapeContract::ok({input_shape[0], input_shape[1], 2 * hidden_});
}

Tensor BiLstm::run(const Tensor& input, bool training) {
  const int n = input.dim(0), steps = input.dim(1), d = input.dim(2);
  // Time-major copy: row t*N + i holds x[i][t], so the rows of one step
  // are contiguous for the projection GEMM and the recurrence.
  Tensor x_tm = Tensor::uninit({steps * n, d});
  for (int t = 0; t < steps; ++t) {
    for (int i = 0; i < n; ++i) {
      const float* src =
          input.data() + (static_cast<std::size_t>(i) * steps + t) * d;
      std::copy(src, src + d,
                x_tm.data() + (static_cast<std::size_t>(t) * n + i) * d);
    }
  }
  Tensor output = Tensor::uninit({n, steps, 2 * hidden_});
  DirectionTrace fwd;
  DirectionTrace bwd;
  run_direction(x_tm, fwd_, /*reversed=*/false, fwd, output, 0);
  run_direction(x_tm, bwd_, /*reversed=*/true, bwd, output, hidden_);
  if (training) {
    fwd_trace_ = std::move(fwd);
    bwd_trace_ = std::move(bwd);
  }
  return output;
}

Tensor BiLstm::forward(const Tensor& input, bool training) {
  require_input(input, input_dim_);
  if (training) cached_input_ = input;
  return run(input, training);
}

Tensor BiLstm::forward_moved(Tensor&& input, bool training) {
  if (!training) return forward(input, false);
  require_input(input, input_dim_);
  // Steal the buffer for the BPTT cache instead of deep-copying it.
  cached_input_ = std::move(input);
  return run(cached_input_, true);
}

void BiLstm::backprop_direction(const Tensor& grad_output, int out_offset,
                                LstmDirection& dir, bool reversed,
                                const DirectionTrace& trace,
                                Tensor& grad_input) {
  const int n = cached_input_.dim(0), steps = cached_input_.dim(1);
  const int h = dir.hidden_dim;
  const int out_f = grad_output.dim(2);
  const std::size_t z_step = static_cast<std::size_t>(n) * 4 * h;
  const std::size_t h_step = static_cast<std::size_t>(n) * h;

  Tensor dh_next({n, h});
  Tensor dc_next({n, h});

  // Walk timesteps in reverse of the forward iteration order. `t` is the
  // time index of this step, `t_prev` that of the step before it in
  // iteration order, whose c and h fed this one.
  for (int step = steps - 1; step >= 0; --step) {
    const int t = reversed ? steps - 1 - step : step;
    const int t_prev = reversed ? t + 1 : t - 1;

    // dh for this step = slice of grad_output + carry from the next step.
    Tensor dh = dh_next;
    for (int i = 0; i < n; ++i) {
      const float* src = grad_output.data() +
                         (static_cast<std::size_t>(i) * steps + t) * out_f +
                         out_offset;
      float* dst = dh.data() + static_cast<std::size_t>(i) * h;
      for (int j = 0; j < h; ++j) dst[j] += src[j];
    }

    const float* gates =
        trace.gates.data() + static_cast<std::size_t>(t) * z_step;
    const float* tc =
        trace.tanh_c.data() + static_cast<std::size_t>(t) * h_step;
    // c_{t-1} in iteration order (zeros at the first step).
    const float* c_prev =
        (step > 0)
            ? trace.c.data() + static_cast<std::size_t>(t_prev) * h_step
            : nullptr;

    Tensor dz({n, 4 * h});
    Tensor dc({n, h});
    for (int i = 0; i < n; ++i) {
      const std::size_t off = static_cast<std::size_t>(i) * h;
      const float* pdh = dh.data() + off;
      const float* pi = gates + static_cast<std::size_t>(i) * 4 * h;
      const float* pf = pi + h;
      const float* pg = pf + h;
      const float* po = pg + h;
      const float* ptc = tc + off;
      const float* pcn = dc_next.data() + off;
      float* pdc = dc.data() + off;
      float* pdz = dz.data() + static_cast<std::size_t>(i) * 4 * h;
      for (int j = 0; j < h; ++j) {
        const float d_o = pdh[j] * ptc[j];
        const float dct = pcn[j] + pdh[j] * po[j] * (1.0f - ptc[j] * ptc[j]);
        const float d_i = dct * pg[j];
        const float cprev =
            c_prev ? c_prev[off + static_cast<std::size_t>(j)] : 0.0f;
        const float d_f = dct * cprev;
        const float d_g = dct * pi[j];
        pdc[j] = dct * pf[j];  // carries to c_{t-1}
        pdz[j] = d_i * pi[j] * (1.0f - pi[j]);
        pdz[h + j] = d_f * pf[j] * (1.0f - pf[j]);
        pdz[2 * h + j] = d_g * (1.0f - pg[j] * pg[j]);
        pdz[3 * h + j] = d_o * po[j] * (1.0f - po[j]);
      }
    }
    dc_next = std::move(dc);

    // Parameter gradients.
    Tensor xt = slice_step(cached_input_, t);
    Tensor dwx = tensor::matmul_at(xt, dz);
    tensor::add_inplace(dir.wx.grad, dwx);

    const Tensor h_prev_mat =
        (step > 0) ? slab_rows(trace.h, t_prev * n, n) : Tensor({n, h});
    Tensor dwh = tensor::matmul_at(h_prev_mat, dz);
    tensor::add_inplace(dir.wh.grad, dwh);

    float* db = dir.b.grad.data();
    for (int i = 0; i < n; ++i) {
      const float* row = dz.data() + static_cast<std::size_t>(i) * 4 * h;
      for (int j = 0; j < 4 * h; ++j) db[j] += row[j];
    }

    // Input gradient and hidden carry.
    Tensor dx = tensor::matmul_bt(dz, dir.wx.value);
    add_step(grad_input, t, dx);
    dh_next = tensor::matmul_bt(dz, dir.wh.value);
  }
}

Tensor BiLstm::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) {
    throw std::logic_error("BiLstm::backward before forward(training=true)");
  }
  const int n = cached_input_.dim(0), steps = cached_input_.dim(1);
  require_grad_shape(grad_output, {n, steps, 2 * hidden_}, "BiLstm");
  Tensor grad_input(cached_input_.shape());
  backprop_direction(grad_output, 0, fwd_, /*reversed=*/false, fwd_trace_,
                     grad_input);
  backprop_direction(grad_output, hidden_, bwd_, /*reversed=*/true,
                     bwd_trace_, grad_input);
  return grad_input;
}

std::vector<Param*> BiLstm::params() {
  return {&fwd_.wx, &fwd_.wh, &fwd_.b, &bwd_.wx, &bwd_.wh, &bwd_.b};
}

ShapeContract TemporalMeanPool::shape_contract(
    const std::vector<int>& input_shape) const {
  if (input_shape.size() != 3) {
    return ShapeContract::bad(
        "TemporalMeanPool expects [N, T, F] input, got rank " +
        std::to_string(input_shape.size()));
  }
  return ShapeContract::ok({input_shape[0], input_shape[2]});
}

Tensor TemporalMeanPool::forward(const Tensor& input, bool training) {
  if (input.rank() != 3) {
    throw std::invalid_argument("TemporalMeanPool: [N, T, F] required");
  }
  if (training) input_shape_ = input.shape();
  const int n = input.dim(0), steps = input.dim(1), f = input.dim(2);
  const float inv = 1.0f / static_cast<float>(steps);
  Tensor out({n, f});
  for (int i = 0; i < n; ++i) {
    float* dst = out.data() + static_cast<std::size_t>(i) * f;
    for (int t = 0; t < steps; ++t) {
      const float* src =
          input.data() + (static_cast<std::size_t>(i) * steps + t) * f;
      for (int j = 0; j < f; ++j) dst[j] += src[j];
    }
    for (int j = 0; j < f; ++j) dst[j] *= inv;
  }
  return out;
}

Tensor TemporalMeanPool::backward(const Tensor& grad_output) {
  if (input_shape_.empty()) {
    throw std::logic_error("TemporalMeanPool::backward before forward");
  }
  const int n = input_shape_[0], steps = input_shape_[1], f = input_shape_[2];
  require_grad_shape(grad_output, {n, f}, "TemporalMeanPool");
  const float inv = 1.0f / static_cast<float>(steps);
  Tensor grad_in(input_shape_);
  for (int i = 0; i < n; ++i) {
    const float* src = grad_output.data() + static_cast<std::size_t>(i) * f;
    for (int t = 0; t < steps; ++t) {
      float* dst =
          grad_in.data() + (static_cast<std::size_t>(i) * steps + t) * f;
      for (int j = 0; j < f; ++j) dst[j] = src[j] * inv;
    }
  }
  return grad_in;
}

}  // namespace darnet::nn
