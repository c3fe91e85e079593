// Behavioural unit tests for layers, optimizers, metrics and the trainer.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/inception.hpp"
#include "nn/lstm.hpp"
#include "nn/metrics.hpp"
#include "nn/optimizer.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "tensor/ops.hpp"
#include "util/serialize.hpp"

namespace {

using darnet::tensor::Tensor;
using darnet::util::Rng;
namespace nn = darnet::nn;

TEST(Layers, DenseShapesAndBias) {
  Rng rng(1);
  nn::Dense layer(3, 2, rng);
  Tensor x({1, 3});  // zeros
  Tensor y = layer.forward(x, false);
  ASSERT_EQ(y.shape(), (std::vector<int>{1, 2}));
  // Zero input -> output equals bias (initialised to zero).
  EXPECT_EQ(y.at(0, 0), 0.0f);
  EXPECT_THROW(layer.forward(Tensor({1, 4}), false), std::invalid_argument);
}

TEST(Layers, ReLUClampsNegatives) {
  nn::ReLU relu;
  Tensor x({1, 4});
  x[0] = -1.0f;
  x[1] = 2.0f;
  x[2] = 0.0f;
  x[3] = -0.5f;
  Tensor y = relu.forward(x, false);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 2.0f);
  EXPECT_EQ(y[2], 0.0f);
  EXPECT_EQ(y[3], 0.0f);
}

TEST(Layers, Conv2DIdentityKernelReproducesInput) {
  Rng rng(2);
  nn::Conv2D conv(1, 1, 3, 1, rng);
  // Set the kernel to the identity (centre 1) and bias to 0.
  auto params = conv.params();
  params[0]->value.zero();
  params[0]->value.at(0, 0, 1, 1) = 1.0f;
  params[1]->value.zero();

  Tensor x = Tensor::uniform({1, 1, 5, 5}, 1.0f, rng);
  Tensor y = conv.forward(x, false);
  ASSERT_TRUE(y.same_shape(x));
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Layers, Conv2DValidConvolutionShrinksOutput) {
  Rng rng(3);
  nn::Conv2D conv(1, 4, 3, 0, rng);
  Tensor y = conv.forward(Tensor({2, 1, 8, 8}), false);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 4, 6, 6}));
}

TEST(Layers, MaxPoolSelectsMaxima) {
  nn::MaxPool2D pool(2);
  Tensor x({1, 1, 2, 2});
  x[0] = 1.0f;
  x[1] = 5.0f;
  x[2] = 3.0f;
  x[3] = 2.0f;
  Tensor y = pool.forward(x, false);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_EQ(y[0], 5.0f);
}

TEST(Layers, MaxPoolRejectsIndivisibleInput) {
  nn::MaxPool2D pool(2);
  EXPECT_THROW(pool.forward(Tensor({1, 1, 5, 4}), false),
               std::invalid_argument);
}

TEST(Layers, GlobalAvgPoolAverages) {
  nn::GlobalAvgPool pool;
  Tensor x({1, 2, 2, 2});
  for (int i = 0; i < 4; ++i) x[i] = 2.0f;       // channel 0
  for (int i = 4; i < 8; ++i) x[i] = static_cast<float>(i);  // channel 1
  Tensor y = pool.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 5.5f);
}

TEST(Layers, DropoutIdentityInEval) {
  nn::Dropout dropout(0.5, 7);
  Tensor x = Tensor::full({4, 8}, 3.0f);
  Tensor y = dropout.forward(x, /*training=*/false);
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], 3.0f);
}

TEST(Layers, DropoutZeroesAndRescalesInTraining) {
  nn::Dropout dropout(0.5, 7);
  Tensor x = Tensor::full({8, 64}, 1.0f);
  Tensor y = dropout.forward(x, /*training=*/true);
  int zeros = 0, scaled = 0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y[i], 2.0f);  // 1 / (1 - 0.5)
      ++scaled;
    }
  }
  EXPECT_GT(zeros, 100);
  EXPECT_GT(scaled, 100);
}

TEST(Layers, ParallelConcatConcatenatesChannels) {
  Rng rng(4);
  auto block = nn::make_micro_inception(3, 2, 3, 4, 1, rng);
  Tensor y = block->forward(Tensor({2, 3, 8, 8}), false);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 10, 8, 8}));  // 2+3+4+1
}

TEST(Layers, BiLstmOutputShape) {
  Rng rng(5);
  nn::BiLstm lstm(7, 4, rng);
  Tensor y = lstm.forward(Tensor({3, 10, 7}), false);
  EXPECT_EQ(y.shape(), (std::vector<int>{3, 10, 8}));
}

TEST(Layers, BiLstmBackwardDirectionSeesFuture) {
  // With a pulse at the last timestep, the backward direction must carry
  // information to timestep 0 while the forward direction cannot.
  Rng rng(6);
  nn::BiLstm lstm(1, 2, rng);
  Tensor base({1, 6, 1});
  Tensor pulsed = base;
  pulsed.at(0, 5, 0) = 4.0f;

  Tensor y0 = lstm.forward(base, false);
  Tensor y1 = lstm.forward(pulsed, false);
  // Forward-direction hidden at t=0 (features 0..1) must be identical.
  EXPECT_FLOAT_EQ(y0.at(0, 0, 0), y1.at(0, 0, 0));
  EXPECT_FLOAT_EQ(y0.at(0, 0, 1), y1.at(0, 0, 1));
  // Backward-direction hidden at t=0 (features 2..3) must differ.
  const float diff = std::abs(y0.at(0, 0, 2) - y1.at(0, 0, 2)) +
                     std::abs(y0.at(0, 0, 3) - y1.at(0, 0, 3));
  EXPECT_GT(diff, 1e-4f);
}

TEST(Layers, BackwardRejectsAMisshapenGradient) {
  // Each backward reads the gradient at the shape its cached input
  // implies: a smaller one would be read past its end, a longer sequence
  // at the wrong offsets. Every other shape is refused.
  Rng rng(7);
  nn::BiLstm lstm(3, 4, rng);
  (void)lstm.forward(Tensor::uniform({4, 5, 3}, 1.0f, rng), true);
  EXPECT_THROW((void)lstm.backward(Tensor({1, 5, 8})), std::invalid_argument);
  (void)lstm.forward(Tensor::uniform({2, 5, 3}, 1.0f, rng), true);
  EXPECT_THROW((void)lstm.backward(Tensor({2, 9, 8})), std::invalid_argument);
  EXPECT_NO_THROW((void)lstm.backward(Tensor({2, 5, 8})));

  nn::TemporalMeanPool pool;
  (void)pool.forward(Tensor::uniform({4, 5, 6}, 1.0f, rng), true);
  EXPECT_THROW((void)pool.backward(Tensor({1, 6})), std::invalid_argument);
  EXPECT_THROW((void)pool.backward(Tensor({4, 5, 6})), std::invalid_argument);
  EXPECT_NO_THROW((void)pool.backward(Tensor({4, 6})));

  nn::Dense dense(3, 2, rng);
  (void)dense.forward(Tensor::uniform({4, 3}, 1.0f, rng), true);
  EXPECT_THROW((void)dense.backward(Tensor({1, 2})), std::invalid_argument);
  EXPECT_THROW((void)dense.backward(Tensor({4, 3})), std::invalid_argument);
  EXPECT_THROW((void)dense.backward(Tensor({4, 2, 1})), std::invalid_argument);
  EXPECT_NO_THROW((void)dense.backward(Tensor({4, 2})));

  // The pools read the gradient at the pooled shape of the cached input;
  // MaxPool2D refuses one of the right size but the wrong shape too.
  nn::MaxPool2D max_pool(2);
  (void)max_pool.forward(Tensor::uniform({4, 2, 4, 4}, 1.0f, rng), true);
  EXPECT_THROW((void)max_pool.backward(Tensor({2, 4, 2, 2})),
               std::invalid_argument);
  EXPECT_NO_THROW((void)max_pool.backward(Tensor({4, 2, 2, 2})));

  nn::AvgPool2D avg_pool(2);
  (void)avg_pool.forward(Tensor::uniform({4, 2, 4, 4}, 1.0f, rng), true);
  EXPECT_THROW((void)avg_pool.backward(Tensor({1, 2, 2, 2})),
               std::invalid_argument);
  EXPECT_NO_THROW((void)avg_pool.backward(Tensor({4, 2, 2, 2})));

  nn::GlobalAvgPool global_pool;
  (void)global_pool.forward(Tensor::uniform({4, 3, 5, 5}, 1.0f, rng), true);
  EXPECT_THROW((void)global_pool.backward(Tensor({1, 3})),
               std::invalid_argument);
  EXPECT_NO_THROW((void)global_pool.backward(Tensor({4, 3})));

  // A block's gradient must carry every branch's channels: a wider one
  // was accepted, a narrower one read across images.
  nn::LayerPtr block = nn::make_micro_inception(3, 4, 2, 2, 2, rng);
  (void)block->forward(Tensor::uniform({2, 3, 6, 6}, 1.0f, rng), true);
  EXPECT_THROW((void)block->backward(Tensor({2, 12, 6, 6})),
               std::invalid_argument);
  EXPECT_THROW((void)block->backward(Tensor({2, 8, 6, 6})),
               std::invalid_argument);
  EXPECT_NO_THROW((void)block->backward(Tensor({2, 10, 6, 6})));
}

TEST(Optimizer, SgdDescendsQuadratic) {
  // Minimise f(w) = 0.5 * ||w - target||^2 by feeding grad = w - target.
  nn::Param w(Tensor::full({4}, 5.0f));
  const float target = 1.0f;
  nn::Sgd sgd(0.1, 0.0);
  std::vector<nn::Param*> params{&w};
  for (int iter = 0; iter < 200; ++iter) {
    for (int i = 0; i < 4; ++i) w.grad[i] = w.value[i] - target;
    sgd.step(params);
  }
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(w.value[i], target, 1e-3f);
}

TEST(Optimizer, AdamDescendsQuadratic) {
  nn::Param w(Tensor::full({4}, -3.0f));
  nn::Adam adam(0.05);
  std::vector<nn::Param*> params{&w};
  for (int iter = 0; iter < 400; ++iter) {
    for (int i = 0; i < 4; ++i) w.grad[i] = w.value[i] - 2.0f;
    adam.step(params);
  }
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(w.value[i], 2.0f, 1e-2f);
}

TEST(Optimizer, StepZeroesGradients) {
  nn::Param w(Tensor::full({2}, 1.0f));
  w.grad.fill(3.0f);
  nn::Sgd sgd(0.1);
  std::vector<nn::Param*> params{&w};
  sgd.step(params);
  EXPECT_EQ(w.grad[0], 0.0f);
  EXPECT_EQ(w.grad[1], 0.0f);
}

TEST(Optimizer, ClipGradNormScalesDown) {
  nn::Param w(Tensor({2}));
  w.grad[0] = 3.0f;
  w.grad[1] = 4.0f;  // norm 5
  std::vector<nn::Param*> params{&w};
  const double before = nn::clip_grad_norm(params, 1.0);
  EXPECT_NEAR(before, 5.0, 1e-6);
  EXPECT_NEAR(std::hypot(w.grad[0], w.grad[1]), 1.0, 1e-5);
  // Below the cap: untouched.
  const double again = nn::clip_grad_norm(params, 10.0);
  EXPECT_NEAR(again, 1.0, 1e-5);
  EXPECT_NEAR(std::hypot(w.grad[0], w.grad[1]), 1.0, 1e-5);
}

TEST(Metrics, ConfusionMatrixAccuracyAndRecall) {
  nn::ConfusionMatrix cm(3);
  cm.add(0, 0);
  cm.add(0, 0);
  cm.add(0, 1);
  cm.add(1, 1);
  cm.add(2, 0);
  EXPECT_NEAR(cm.accuracy(), 3.0 / 5.0, 1e-9);
  EXPECT_NEAR(cm.class_recall(0), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(cm.confusion_rate(0, 1), 1.0 / 3.0, 1e-9);
  EXPECT_EQ(cm.count(2, 0), 1);
  EXPECT_THROW(cm.add(3, 0), std::out_of_range);
}

TEST(Metrics, RenderContainsClassNames) {
  nn::ConfusionMatrix cm(2, {"cat", "dog"});
  cm.add(0, 0);
  cm.add(1, 0);
  const std::string s = cm.render();
  EXPECT_NE(s.find("cat"), std::string::npos);
  EXPECT_NE(s.find("dog"), std::string::npos);
}

TEST(Trainer, GatherRowsSelectsAndReorders) {
  Tensor x({3, 2});
  for (int i = 0; i < 6; ++i) x[i] = static_cast<float>(i);
  const std::vector<std::size_t> idx{2, 0};
  Tensor g = nn::gather_rows(x, idx);
  EXPECT_EQ(g.shape(), (std::vector<int>{2, 2}));
  EXPECT_EQ(g.at(0, 0), 4.0f);
  EXPECT_EQ(g.at(1, 1), 1.0f);
}

TEST(Trainer, LearnsLinearlySeparableToyProblem) {
  // Two gaussian blobs in 2-D; a single dense layer must reach ~100%.
  Rng rng(8);
  const int n = 120;
  Tensor x({n, 2});
  std::vector<int> y(n);
  for (int i = 0; i < n; ++i) {
    const int cls = i % 2;
    y[i] = cls;
    x.at(i, 0) = static_cast<float>(rng.gaussian(cls ? 2.0 : -2.0, 0.5));
    x.at(i, 1) = static_cast<float>(rng.gaussian(cls ? -1.0 : 1.0, 0.5));
  }
  nn::Sequential model;
  model.emplace<nn::Dense>(2, 2, rng);
  nn::Sgd opt(0.1);
  nn::TrainConfig cfg;
  cfg.epochs = 30;
  cfg.batch_size = 16;
  nn::train_classifier(model, opt, x, y, cfg);
  const auto cm = nn::evaluate(model, x, y, 2);
  EXPECT_GT(cm.accuracy(), 0.97);
}

TEST(Trainer, CheckpointRoundTripPreservesOutputs) {
  Rng rng(9);
  nn::Sequential model;
  model.emplace<nn::Dense>(4, 8, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Dense>(8, 3, rng);

  Tensor x = Tensor::uniform({5, 4}, 1.0f, rng);
  Tensor before = model.forward(x, false);

  darnet::util::BinaryWriter w;
  model.save_params(w);

  // A freshly-built model with different weights...
  Rng rng2(1234);
  nn::Sequential model2;
  model2.emplace<nn::Dense>(4, 8, rng2);
  model2.emplace<nn::ReLU>();
  model2.emplace<nn::Dense>(8, 3, rng2);
  // ...restored from the checkpoint must reproduce the outputs.
  darnet::util::BinaryReader r(w.bytes());
  model2.load_params(r);
  Tensor after = model2.forward(x, false);
  for (std::size_t i = 0; i < before.numel(); ++i) {
    EXPECT_FLOAT_EQ(before[i], after[i]);
  }
}

TEST(Trainer, LoadRejectsMismatchedArchitecture) {
  Rng rng(10);
  nn::Sequential model;
  model.emplace<nn::Dense>(4, 4, rng);
  darnet::util::BinaryWriter w;
  model.save_params(w);

  nn::Sequential other;
  other.emplace<nn::Dense>(4, 5, rng);
  darnet::util::BinaryReader r(w.bytes());
  EXPECT_THROW(other.load_params(r), std::invalid_argument);
}

TEST(Trainer, ParameterCountMatchesArchitecture) {
  Rng rng(11);
  nn::Sequential model;
  model.emplace<nn::Dense>(10, 7, rng);  // 70 + 7
  model.emplace<nn::Dense>(7, 2, rng);   // 14 + 2
  EXPECT_EQ(model.parameter_count(), 93u);
}

}  // namespace
