#include "layers.hpp"

#include <numeric>

#include "tensor/ops.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// The first kInputs requests of the workload, each replayed kReps times:
// 256 calls at batch 1 and 32 at batch 8 per boundary.
constexpr std::size_t kInputs = 64;
constexpr int kReps = 4;

/// Times calls and records each as a span.
class Timer {
 public:
  Timer(std::vector<Span>& spans, int tid) : spans_(spans), tid_(tid) {}

  template <typename F>
  double us(const std::string& name, std::uint64_t id, F&& call) {
    const auto start = Clock::now();
    call();
    const auto end = Clock::now();
    spans_.push_back({name, start, end, tid_, id});
    return std::chrono::duration<double, std::micro>(end - start).count();
  }

 private:
  std::vector<Span>& spans_;
  int tid_;
};

struct Inputs {
  std::vector<Tensor> frames, imu;    // one batch each
  std::vector<Tensor> p_img, p_imu;  // the models' outputs on them
};

Inputs batches(const HeldOut& held, const std::vector<int>& frames,
               std::size_t rows) {
  Inputs in;
  for (std::size_t i = 0; i + rows <= frames.size(); i += rows) {
    std::vector<Tensor> f, m;
    for (std::size_t r = 0; r < rows; ++r) {
      f.push_back(held.frames[static_cast<std::size_t>(frames[i + r])]);
      m.push_back(held.imu[static_cast<std::size_t>(frames[i + r])]);
    }
    in.frames.push_back(darnet::tensor::stack_rows(f));
    in.imu.push_back(darnet::tensor::stack_rows(m));
  }
  return in;
}

ModelTimes time_model(darnet::nn::Sequential& model,
                      const std::vector<Tensor>& inputs,
                      const std::string& prefix, const std::string& suffix,
                      Timer& timer, std::vector<Tensor>* probabilities) {
  ModelTimes out;
  for (std::size_t i = 0; i < model.size(); ++i) {
    out.layer_names.push_back(std::to_string(i) + "_" + model.layer(i).name());
  }
  out.layer_us.assign(model.size(), 0.0);
  std::uint64_t calls = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const Tensor& input : inputs) {
      Tensor whole;
      out.forward_us += timer.us(prefix + ".forward" + suffix, calls, [&] {
        whole = model.forward(input, false);
      });
      Tensor x = input;
      for (std::size_t i = 0; i < model.size(); ++i) {
        Tensor y;
        out.layer_us[i] += timer.us(
            prefix + "." + out.layer_names[i] + suffix, calls,
            [&] { y = model.layer(i).forward(x, false); });
        x = std::move(y);
      }
      if (rep == 0 && probabilities != nullptr) {
        probabilities->push_back(darnet::tensor::softmax_rows(whole));
      }
      ++calls;
    }
  }
  out.forward_us /= static_cast<double>(calls);
  for (double& us : out.layer_us) us /= static_cast<double>(calls);
  return out;
}

BatchTimes time_batch(Fixture& fixture, const std::vector<int>& frames,
                      std::size_t rows, Timer& timer) {
  const std::string suffix = ".b" + std::to_string(rows);
  Inputs in = batches(fixture.held_out(), frames, rows);
  darnet::engine::EnsembleClassifier& ensemble = fixture.reference_ensemble();
  BatchTimes out;

  std::uint64_t calls = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < in.frames.size(); ++i) {
      out.classify_us += timer.us("engine.classify_batch" + suffix, calls++, [&] {
        (void)ensemble.classify_batch(in.frames[i], in.imu[i]);
      });
    }
  }
  out.classify_us /= static_cast<double>(calls);

  darnet::core::DarNet& model = fixture.reference();
  out.frame_cnn = time_model(model.frame_cnn(), in.frames, "nn.frame_cnn",
                             suffix, timer, &in.p_img);
  out.imu_rnn = time_model(model.imu_rnn(), in.imu, "nn.imu_rnn", suffix,
                           timer, &in.p_imu);

  const darnet::bayes::BayesianCombiner& combiner = ensemble.combiner();
  calls = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < in.p_img.size(); ++i) {
      out.combine_us += timer.us("bayes.combine" + suffix, calls++, [&] {
        (void)combiner.combine(in.p_img[i], in.p_imu[i]);
      });
    }
  }
  out.combine_us /= static_cast<double>(calls);
  return out;
}

}  // namespace

double ModelTimes::layers_sum_us() const {
  return std::accumulate(layer_us.begin(), layer_us.end(), 0.0);
}

LayerReplay replay_layers(Fixture& fixture, const std::vector<int>& frames,
                          std::vector<Span>& spans, int tid) {
  const std::vector<int> inputs(
      frames.begin(),
      frames.begin() + static_cast<std::ptrdiff_t>(
                           std::min(kInputs, frames.size())));
  Timer timer(spans, tid);
  LayerReplay out;
  out.b1 = time_batch(fixture, inputs, 1, timer);
  out.b8 = time_batch(fixture, inputs, 8, timer);
  return out;
}

}  // namespace perfbench
