#include "nn/pool.hpp"

namespace darnet::nn {

namespace {
void check_nchw(const Tensor& input, const char* who) {
  if (input.rank() != 4) {
    throw std::invalid_argument(std::string(who) + ": NCHW input required");
  }
}

/// Shared contract for the non-overlapping (kernel == stride) poolers.
ShapeContract pool_contract(const std::vector<int>& in, int k,
                            const char* who) {
  if (in.size() != 4) {
    return ShapeContract::bad(std::string(who) +
                              " expects rank-4 NCHW input, got rank " +
                              std::to_string(in.size()));
  }
  if (in[2] % k != 0 || in[3] % k != 0) {
    return ShapeContract::bad(std::string(who) + " expects H and W (" +
                              std::to_string(in[2]) + "x" +
                              std::to_string(in[3]) +
                              ") divisible by kernel " + std::to_string(k));
  }
  return ShapeContract::ok({in[0], in[1], in[2] / k, in[3] / k});
}
}  // namespace

MaxPool2D::MaxPool2D(int kernel) : k_(kernel) {
  if (kernel <= 1) throw std::invalid_argument("MaxPool2D: kernel must be >1");
}

Tensor MaxPool2D::forward(const Tensor& input, bool training) {
  check_nchw(input, "MaxPool2D");
  const int n = input.dim(0), c = input.dim(1), h = input.dim(2),
            w = input.dim(3);
  if (h % k_ != 0 || w % k_ != 0) {
    throw std::invalid_argument("MaxPool2D: H and W must be divisible by k");
  }
  const int oh = h / k_, ow = w / k_;
  // Fully overwritten below -- skip the zero memset.
  Tensor out = Tensor::uninit({n, c, oh, ow});
  const float* x = input.data();
  float* y = out.data();
  if (!training) {
    // Inference fast path: same first-max scan order (bit-identical
    // values), but no argmax bookkeeping and no per-element index math.
    const std::int64_t planes = static_cast<std::int64_t>(n) * c;
    std::size_t oi = 0;
    if (k_ == 2) {
      // Branchless 2x2 window: vertical max per column, then the
      // horizontal pair. Tie resolution keeps the earlier element in the
      // scan order (ternaries prefer their second operand), so even mixed
      // +-0.0 windows reproduce the generic scan bit-for-bit.
      for (std::int64_t pl = 0; pl < planes; ++pl) {
        const float* plane = x + static_cast<std::size_t>(pl) * h * w;
        for (int r = 0; r < oh; ++r) {
          const float* a = plane + static_cast<std::size_t>(2 * r) * w;
          const float* b = a + w;
          for (int j = 0; j < ow; ++j, ++oi) {
            const float a0 = a[2 * j], a1 = a[2 * j + 1];
            const float b0 = b[2 * j], b1 = b[2 * j + 1];
            const float m0 = b0 > a0 ? b0 : a0;
            const float m1 = b1 > a1 ? b1 : a1;
            y[oi] = m1 > m0 ? m1 : m0;
          }
        }
      }
      return out;
    }
    for (std::int64_t pl = 0; pl < planes; ++pl) {
      const float* plane = x + static_cast<std::size_t>(pl) * h * w;
      for (int r = 0; r < oh; ++r) {
        const float* rbase = plane + static_cast<std::size_t>(r) * k_ * w;
        for (int col = 0; col < ow; ++col, ++oi) {
          const float* cell = rbase + static_cast<std::size_t>(col) * k_;
          float best = cell[0];
          for (int dr = 0; dr < k_; ++dr) {
            const float* prow = cell + static_cast<std::size_t>(dr) * w;
            for (int dc = 0; dc < k_; ++dc) {
              if (prow[dc] > best) best = prow[dc];
            }
          }
          y[oi] = best;
        }
      }
    }
    return out;
  }
  input_shape_ = input.shape();
  argmax_.assign(out.numel(), 0);
  std::size_t oi = 0;
  for (int img = 0; img < n; ++img) {
    for (int ch = 0; ch < c; ++ch) {
      const float* plane =
          x + (static_cast<std::size_t>(img) * c + ch) * h * w;
      const std::size_t plane_base =
          (static_cast<std::size_t>(img) * c + ch) * h * w;
      for (int r = 0; r < oh; ++r) {
        for (int col = 0; col < ow; ++col, ++oi) {
          float best = plane[static_cast<std::size_t>(r * k_) * w + col * k_];
          int best_idx = r * k_ * w + col * k_;
          for (int dr = 0; dr < k_; ++dr) {
            for (int dc = 0; dc < k_; ++dc) {
              const int idx = (r * k_ + dr) * w + (col * k_ + dc);
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          y[oi] = best;
          argmax_[oi] = static_cast<int>(plane_base) + best_idx;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2D::backward(const Tensor& grad_output) {
  if (input_shape_.empty()) {
    throw std::logic_error("MaxPool2D::backward before forward");
  }
  require_grad_shape(grad_output,
                     {input_shape_[0], input_shape_[1], input_shape_[2] / k_,
                      input_shape_[3] / k_},
                     "MaxPool2D");
  Tensor grad_in(input_shape_);
  float* gi = grad_in.data();
  const float* g = grad_output.data();
  for (std::size_t i = 0; i < argmax_.size(); ++i) {
    gi[argmax_[i]] += g[i];
  }
  return grad_in;
}

AvgPool2D::AvgPool2D(int kernel) : k_(kernel) {
  if (kernel <= 1) throw std::invalid_argument("AvgPool2D: kernel must be >1");
}

Tensor AvgPool2D::forward(const Tensor& input, bool training) {
  check_nchw(input, "AvgPool2D");
  const int n = input.dim(0), c = input.dim(1), h = input.dim(2),
            w = input.dim(3);
  if (h % k_ != 0 || w % k_ != 0) {
    throw std::invalid_argument("AvgPool2D: H and W must be divisible by k");
  }
  if (training) input_shape_ = input.shape();
  const int oh = h / k_, ow = w / k_;
  const float inv = 1.0f / static_cast<float>(k_ * k_);
  Tensor out = Tensor::uninit({n, c, oh, ow});
  const float* x = input.data();
  float* y = out.data();
  std::size_t oi = 0;
  for (int img = 0; img < n; ++img) {
    for (int ch = 0; ch < c; ++ch) {
      const float* plane =
          x + (static_cast<std::size_t>(img) * c + ch) * h * w;
      for (int r = 0; r < oh; ++r) {
        for (int col = 0; col < ow; ++col, ++oi) {
          float acc = 0.0f;
          for (int dr = 0; dr < k_; ++dr) {
            for (int dc = 0; dc < k_; ++dc) {
              acc += plane[(r * k_ + dr) * w + (col * k_ + dc)];
            }
          }
          y[oi] = acc * inv;
        }
      }
    }
  }
  return out;
}

Tensor AvgPool2D::backward(const Tensor& grad_output) {
  if (input_shape_.empty()) {
    throw std::logic_error("AvgPool2D::backward before forward");
  }
  const int n = input_shape_[0], c = input_shape_[1], h = input_shape_[2],
            w = input_shape_[3];
  const int oh = h / k_, ow = w / k_;
  require_grad_shape(grad_output, {n, c, oh, ow}, "AvgPool2D");
  const float inv = 1.0f / static_cast<float>(k_ * k_);
  Tensor grad_in(input_shape_);
  float* gi = grad_in.data();
  const float* g = grad_output.data();
  std::size_t oi = 0;
  for (int img = 0; img < n; ++img) {
    for (int ch = 0; ch < c; ++ch) {
      float* plane = gi + (static_cast<std::size_t>(img) * c + ch) * h * w;
      for (int r = 0; r < oh; ++r) {
        for (int col = 0; col < ow; ++col, ++oi) {
          const float v = g[oi] * inv;
          for (int dr = 0; dr < k_; ++dr) {
            for (int dc = 0; dc < k_; ++dc) {
              plane[(r * k_ + dr) * w + (col * k_ + dc)] += v;
            }
          }
        }
      }
    }
  }
  return grad_in;
}

Tensor GlobalAvgPool::forward(const Tensor& input, bool training) {
  check_nchw(input, "GlobalAvgPool");
  const int n = input.dim(0), c = input.dim(1), h = input.dim(2),
            w = input.dim(3);
  if (training) input_shape_ = input.shape();
  const float inv = 1.0f / static_cast<float>(h * w);
  Tensor out = Tensor::uninit({n, c});
  const float* x = input.data();
  float* y = out.data();
  for (int img = 0; img < n; ++img) {
    for (int ch = 0; ch < c; ++ch) {
      const float* plane =
          x + (static_cast<std::size_t>(img) * c + ch) * h * w;
      double acc = 0.0;
      for (int i = 0; i < h * w; ++i) acc += plane[i];
      y[static_cast<std::size_t>(img) * c + ch] =
          static_cast<float>(acc) * inv;
    }
  }
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  if (input_shape_.empty()) {
    throw std::logic_error("GlobalAvgPool::backward before forward");
  }
  const int n = input_shape_[0], c = input_shape_[1], h = input_shape_[2],
            w = input_shape_[3];
  require_grad_shape(grad_output, {n, c}, "GlobalAvgPool");
  const float inv = 1.0f / static_cast<float>(h * w);
  Tensor grad_in(input_shape_);
  float* gi = grad_in.data();
  const float* g = grad_output.data();
  for (int img = 0; img < n; ++img) {
    for (int ch = 0; ch < c; ++ch) {
      const float v = g[static_cast<std::size_t>(img) * c + ch] * inv;
      float* plane = gi + (static_cast<std::size_t>(img) * c + ch) * h * w;
      for (int i = 0; i < h * w; ++i) plane[i] = v;
    }
  }
  return grad_in;
}

ShapeContract MaxPool2D::shape_contract(
    const std::vector<int>& input_shape) const {
  return pool_contract(input_shape, k_, "MaxPool2D");
}

ShapeContract AvgPool2D::shape_contract(
    const std::vector<int>& input_shape) const {
  return pool_contract(input_shape, k_, "AvgPool2D");
}

ShapeContract GlobalAvgPool::shape_contract(
    const std::vector<int>& input_shape) const {
  if (input_shape.size() != 4) {
    return ShapeContract::bad(
        "GlobalAvgPool expects rank-4 NCHW input, got rank " +
        std::to_string(input_shape.size()));
  }
  return ShapeContract::ok({input_shape[0], input_shape[1]});
}

}  // namespace darnet::nn
