#include "nn/conv2d.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "check/check.hpp"
#include "parallel/pool.hpp"
#include "tensor/arena.hpp"
#include "tensor/kernels.hpp"

namespace darnet::nn {

namespace kernels = tensor::kernels;

namespace {

// Copy `ch` planes of h x w into zero-bordered (h+2p) x (w+2p) planes,
// each at row and column offset p, followed by `slack` zeros. The direct
// kernels read these: one copy of each plane, where an unfold would make
// k*k. A negative p crops instead (the input gradient's
// offset k-1-pad when pad > k-1). With a border, one fill of the whole
// buffer, then one copy per row: filling each border segment apart cost
// as much again as the copy. T widens to double for the weight-gradient
// kernel.
template <typename T>
void pad_planes(const float* x, int ch, int h, int w, int pad, T* xp,
                std::size_t slack) {
  const int ph = h + 2 * pad, pw = w + 2 * pad;
  const std::size_t planes = static_cast<std::size_t>(ch) * ph * pw;
  std::fill(xp + (pad > 0 ? 0 : planes), xp + planes + slack, T{0});
  const int r0 = std::max(0, -pad), r1 = std::min(h, ph - pad);
  const int c0 = std::max(0, -pad), c1 = std::min(w, pw - pad);
  for (int ic = 0; ic < ch; ++ic, x += static_cast<std::size_t>(h) * w) {
    T* row = xp + (static_cast<std::size_t>(ic) * ph + r0 + pad) * pw;
    for (int r = r0; r < r1; ++r, row += pw) {
      const float* src = x + static_cast<std::size_t>(r) * w;
      for (int c = c0; c < c1; ++c) row[c + pad] = src[c];
    }
  }
}

// A scratch block viewed as doubles. Storage blocks come from malloc, so
// they are aligned for double, and the kernels only ever access them as
// doubles.
double* as_doubles(tensor::Storage& s) {
  return reinterpret_cast<double*>(s.data());
}

}  // namespace

Conv2D::Conv2D(int in_channels, int out_channels, int kernel, int padding,
               util::Rng& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      k_(kernel),
      pad_(padding),
      weight_(Tensor::he_normal({out_channels, in_channels, kernel, kernel},
                                in_channels * kernel * kernel, rng)),
      bias_(Tensor({out_channels})) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || padding < 0) {
    throw std::invalid_argument("Conv2D: invalid hyper-parameters");
  }
}

void Conv2D::validate_input(const Tensor& input) const {
  if (input.rank() != 4 || input.dim(1) != in_ch_) {
    throw std::invalid_argument("Conv2D::forward: expected NCHW with C=" +
                                std::to_string(in_ch_) + ", got " +
                                input.shape_string());
  }
  const int h = input.dim(2), w = input.dim(3);
  if (h + 2 * pad_ - k_ + 1 <= 0 || w + 2 * pad_ - k_ + 1 <= 0) {
    throw std::invalid_argument("Conv2D::forward: kernel larger than input");
  }
}

ShapeContract Conv2D::shape_contract(
    const std::vector<int>& input_shape) const {
  if (input_shape.size() != 4) {
    return ShapeContract::bad("Conv2D expects rank-4 NCHW input, got rank " +
                              std::to_string(input_shape.size()));
  }
  if (input_shape[1] != in_ch_) {
    return ShapeContract::bad("Conv2D expects C=" + std::to_string(in_ch_) +
                              " input channels, got " +
                              std::to_string(input_shape[1]));
  }
  const int oh = input_shape[2] + 2 * pad_ - k_ + 1;
  const int ow = input_shape[3] + 2 * pad_ - k_ + 1;
  if (oh <= 0 || ow <= 0) {
    return ShapeContract::bad("Conv2D kernel " + std::to_string(k_) +
                              " larger than padded input plane");
  }
  return ShapeContract::ok({input_shape[0], out_ch_, oh, ow});
}

Tensor Conv2D::forward(const Tensor& input, bool training) {
  validate_input(input);
  if (training) cached_input_ = input;
  return run_forward(input);
}

Tensor Conv2D::forward_moved(Tensor&& input, bool training) {
  validate_input(input);
  if (training) {
    // Steal the caller's buffer instead of deep-copying it; the forward
    // pass then reads the activation out of the cache.
    cached_input_ = std::move(input);
    return run_forward(cached_input_);
  }
  return run_forward(input);
}

Tensor Conv2D::run_forward(const Tensor& input) const {
  const int n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const int oh = h + 2 * pad_ - k_ + 1;
  const int ow = w + 2 * pad_ - k_ + 1;

  // Every element is written below (the 1x1's bias fill, or
  // conv2d_direct's overwrite), so skip the zero memset.
  Tensor out = Tensor::uninit({n, out_ch_, oh, ow});
  const float* wts = weight_.value.data();
  const float* bias = bias_.value.data();
  const float* in = input.data();
  float* o = out.data();

  const std::size_t pixels = static_cast<std::size_t>(oh) * ow;
  const std::size_t in_img = static_cast<std::size_t>(in_ch_) * h * w;
  const std::size_t out_img = static_cast<std::size_t>(out_ch_) * pixels;
  // Flops of one output channel of one image.
  const std::int64_t oc_flops =
      2LL * in_ch_ * k_ * k_ * static_cast<std::int64_t>(pixels);
  const kernels::Kernels& kv = kernels::active_kernels();
  // The shape picks the algorithm, the ISA only the kernel. An unpadded
  // 1x1 conv is one GEMM, W [out_ch, in_ch] times the image's plane
  // matrix [in_ch, h*w], on the row kernel matmul uses. Every other conv
  // runs conv2d_direct, which reads a zero-bordered copy of the image
  // (pad 0 included: it may read kConvSlack floats past the last plane).
  const bool unit = k_ == 1 && pad_ == 0;
  const int ph = h + 2 * pad_, pw = w + 2 * pad_;
  const std::size_t xpad_size =
      static_cast<std::size_t>(in_ch_) * ph * pw + kernels::kConvSlack;

  // Output channels [oc0, oc1) of one image; x is the image, or its
  // zero-bordered copy unless `unit`.
  const auto image = [&](const float* x, float* y, int oc0, int oc1) {
    if (unit) {
      for (int oc = oc0; oc < oc1; ++oc) {
        std::fill(y + oc * pixels, y + (oc + 1) * pixels, bias[oc]);
      }
      kv.gemm_rows(wts, x, y, oc0, oc1, in_ch_, static_cast<int>(pixels));
    } else {
      kv.conv2d_direct(x, wts, bias, y, oc0, oc1, in_ch_, k_, ph, pw, oh,
                       ow);
    }
  };

  if (n == 1) {
    // Single image (the streaming-inference hot path): shard the output
    // channels, which every path computes independently.
    tensor::Storage xpad;
    const float* x = in;
    if (!unit) {
      xpad.resize_uninit(xpad_size);
      pad_planes(in, in_ch_, h, w, pad_, xpad.data(), kernels::kConvSlack);
      x = xpad.data();
    }
    parallel::parallel_for(0, out_ch_, parallel::grain_for(oc_flops),
                           [&](std::int64_t i0, std::int64_t i1) {
                             image(x, o, static_cast<int>(i0),
                                   static_cast<int>(i1));
                           });
    return out;
  }

#ifdef DARNET_CHECKED
  // Checked builds: batch shards must write disjoint images covering the
  // batch exactly.
  check::ShardWriteTracker tracker("Conv2D::forward batch images");
#endif
  parallel::parallel_for(
      0, n, parallel::grain_for(out_ch_ * oc_flops),
      [&](std::int64_t i0, std::int64_t i1) {
#ifdef DARNET_CHECKED
        tracker.record(i0, i1);
#endif
        tensor::Storage xpad;
        if (!unit) xpad.resize_uninit(xpad_size);
        for (std::int64_t img = i0; img < i1; ++img) {
          const float* x = in + static_cast<std::size_t>(img) * in_img;
          if (!unit) {
            pad_planes(x, in_ch_, h, w, pad_, xpad.data(),
                       kernels::kConvSlack);
            x = xpad.data();
          }
          image(x, o + static_cast<std::size_t>(img) * out_img, 0, out_ch_);
        }
      });
#ifdef DARNET_CHECKED
  tracker.expect_exact_cover(0, n);
#endif
  return out;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) {
    throw std::logic_error("Conv2D::backward before forward(training=true)");
  }
  const Tensor& input = cached_input_;
  const int n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const int oh = h + 2 * pad_ - k_ + 1;
  const int ow = w + 2 * pad_ - k_ + 1;
  // The kernels size their scratch from the cached input.
  require_grad_shape(grad_output, {n, out_ch_, oh, ow}, "Conv2D");

  // The input-gradient kernel overwrites every element.
  const kernels::Kernels& kv = kernels::active_kernels();
  Tensor grad_in = Tensor::uninit(input.shape());
  const float* in = input.data();
  const float* g = grad_output.data();
  const float* wts = weight_.value.data();
  float* gi = grad_in.data();

  const int patch = in_ch_ * k_ * k_;
  const std::size_t pixels = static_cast<std::size_t>(oh) * ow;
  const std::size_t in_img = static_cast<std::size_t>(in_ch_) * h * w;
  const std::size_t out_img = static_cast<std::size_t>(out_ch_) * pixels;
  const std::size_t wsize = static_cast<std::size_t>(out_ch_) * patch;
  // The kernels' scratch: the image widened to double in zero-bordered
  // planes, the output gradient transposed to pixel rows (the vector
  // weight gradient's), and the output gradient in zero-bordered planes
  // for the transposed conv.
  const int ph = h + 2 * pad_, pw = w + 2 * pad_;
  const int gh = h + k_ - 1, gw = w + k_ - 1;
  const std::size_t xd_size = static_cast<std::size_t>(in_ch_) * ph * pw;
  constexpr int kLanes = kernels::kConvGradLanes;
  const std::size_t gt_size =
      pixels * static_cast<std::size_t>((out_ch_ + kLanes - 1) / kLanes *
                                        kLanes);
  const std::size_t gp_size =
      static_cast<std::size_t>(out_ch_) * gh * gw + kernels::kConvSlack;

  // Per-image partial gradients, reduced below in ascending image order so
  // the accumulated dW/db match the serial seed bit-for-bit regardless of
  // how the batch was sharded.
  tensor::Storage dw_part(static_cast<std::size_t>(n) * wsize);
  tensor::Storage db_part(static_cast<std::size_t>(n) * out_ch_);

  const std::int64_t flops =
      4LL * out_ch_ * patch * static_cast<std::int64_t>(pixels);
  parallel::parallel_for(
      0, n, parallel::grain_for(flops),
      [&](std::int64_t i0, std::int64_t i1) {
        tensor::Storage xd(2 * xd_size, tensor::Storage::Init::kUninit);
        tensor::Storage gt(gt_size, tensor::Storage::Init::kUninit);
        tensor::Storage gp(gp_size, tensor::Storage::Init::kUninit);
        for (std::int64_t img = i0; img < i1; ++img) {
          const float* x = in + static_cast<std::size_t>(img) * in_img;
          const float* gy = g + static_cast<std::size_t>(img) * out_img;
          float* gx = gi + static_cast<std::size_t>(img) * in_img;
          float* dw_out =
              dw_part.data() + static_cast<std::size_t>(img) * wsize;
          float* db_out =
              db_part.data() + static_cast<std::size_t>(img) * out_ch_;
          pad_planes(x, in_ch_, h, w, pad_, as_doubles(xd), 0);
          kv.conv2d_grad_weights(as_doubles(xd), gy, gt.data(), dw_out,
                                 db_out, in_ch_, out_ch_, k_, ph, pw, oh, ow);
          pad_planes(gy, out_ch_, oh, ow, k_ - 1 - pad_, gp.data(),
                     kernels::kConvSlack);
          kv.conv2d_grad_input(gp.data(), wts, gx, in_ch_, out_ch_, k_, gh,
                               gw, h, w);
        }
      });

  float* dw = weight_.grad.data();
  float* db = bias_.grad.data();
  for (int img = 0; img < n; ++img) {
    const float* wp = dw_part.data() + static_cast<std::size_t>(img) * wsize;
    for (std::size_t i = 0; i < wsize; ++i) dw[i] += wp[i];
    const float* bp = db_part.data() + static_cast<std::size_t>(img) * out_ch_;
    for (int oc = 0; oc < out_ch_; ++oc) db[oc] += bp[oc];
  }
  return grad_in;
}

}  // namespace darnet::nn
