// Parameterized property tests (TEST_P sweeps) over the library's core
// invariants: numeric kernels, serialisation, distortion geometry, clock
// synchronisation, and store alignment.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "collection/agent.hpp"
#include "collection/controller.hpp"
#include "collection/store.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/sequential.hpp"
#include "privacy/privacy.hpp"
#include "tensor/ops.hpp"
#include "util/serialize.hpp"
#include "vision/renderer.hpp"

namespace {

using namespace darnet;
using tensor::Tensor;

// ---------------------------------------------------------------------------
// Softmax rows are probability distributions for any shape.

class SoftmaxProperty : public ::testing::TestWithParam<std::pair<int, int>> {
};

TEST_P(SoftmaxProperty, RowsAreDistributions) {
  const auto [n, c] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n * 131 + c));
  const Tensor logits = Tensor::uniform({n, c}, 8.0f, rng);
  const Tensor p = tensor::softmax_rows(logits);
  for (int i = 0; i < n; ++i) {
    double sum = 0.0;
    for (int j = 0; j < c; ++j) {
      EXPECT_GE(p.at(i, j), 0.0f);
      EXPECT_LE(p.at(i, j), 1.0f);
      sum += p.at(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-4);
    // Order preservation: argmax of logits == argmax of probabilities.
    const auto row_l = std::span<const float>(
        logits.data() + static_cast<std::size_t>(i) * c,
        static_cast<std::size_t>(c));
    const auto row_p = std::span<const float>(
        p.data() + static_cast<std::size_t>(i) * c,
        static_cast<std::size_t>(c));
    EXPECT_EQ(tensor::argmax(row_l), tensor::argmax(row_p));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SoftmaxProperty,
                         ::testing::Values(std::pair{1, 2}, std::pair{3, 6},
                                           std::pair{17, 3}, std::pair{8, 18},
                                           std::pair{64, 5}));

// ---------------------------------------------------------------------------
// Matmul agrees with a naive reference implementation across shapes.

class MatmulProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulProperty, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(m * 7 + k * 3 + n));
  const Tensor a = Tensor::uniform({m, k}, 1.0f, rng);
  const Tensor b = Tensor::uniform({k, n}, 1.0f, rng);
  const Tensor c = tensor::matmul(a, b);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a.at(i, kk)) * b.at(kk, j);
      }
      ASSERT_NEAR(c.at(i, j), acc, 1e-3) << "at (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulProperty,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 3, 4},
                      std::tuple{5, 1, 7}, std::tuple{16, 16, 16},
                      std::tuple{3, 31, 2}));

// ---------------------------------------------------------------------------
// Conv2D output geometry follows the padding arithmetic for any (k, pad).

class ConvShapeProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ConvShapeProperty, OutputGeometry) {
  const auto [kernel, pad, size] = GetParam();
  util::Rng rng(9);
  nn::Conv2D conv(2, 3, kernel, pad, rng);
  const Tensor y = conv.forward(Tensor({1, 2, size, size}), false);
  const int expected = size + 2 * pad - kernel + 1;
  EXPECT_EQ(y.shape(), (std::vector<int>{1, 3, expected, expected}));
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, ConvShapeProperty,
    ::testing::Values(std::tuple{1, 0, 8}, std::tuple{3, 1, 8},
                      std::tuple{3, 0, 8}, std::tuple{5, 2, 12},
                      std::tuple{5, 0, 12}, std::tuple{7, 3, 16}));

// ---------------------------------------------------------------------------
// Tensor serialisation round-trips for any rank/shape.

class TensorRoundTrip : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(TensorRoundTrip, Identity) {
  util::Rng rng(42);
  const Tensor t = Tensor::uniform(GetParam(), 3.0f, rng);
  util::BinaryWriter w;
  t.serialize(w);
  util::BinaryReader r(w.bytes());
  const Tensor u = Tensor::deserialize(r);
  ASSERT_TRUE(u.same_shape(t));
  for (std::size_t i = 0; i < t.numel(); ++i) ASSERT_EQ(t[i], u[i]);
  EXPECT_TRUE(r.exhausted());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TensorRoundTrip,
    ::testing::Values(std::vector<int>{1}, std::vector<int>{7},
                      std::vector<int>{3, 4}, std::vector<int>{2, 3, 4},
                      std::vector<int>{2, 1, 5, 3}));

// ---------------------------------------------------------------------------
// Distortion geometry: factor arithmetic and reconstruction size hold for
// every level across frame sizes.

class DistortionProperty
    : public ::testing::TestWithParam<
          std::tuple<privacy::DistortionLevel, int>> {};

TEST_P(DistortionProperty, GeometryAndReconstruction) {
  const auto [level, size] = GetParam();
  util::Rng rng(3);
  vision::RenderConfig render;
  render.size = size;
  const vision::Image frame =
      vision::render_driver_scene(vision::DriverClass::kNormal, render, rng);
  privacy::DistortionModule module(level);
  const privacy::TaggedFrame tagged = module.process(frame);
  EXPECT_EQ(tagged.image.width(),
            size / privacy::distortion_factor(level));
  EXPECT_EQ(privacy::wire_bytes(tagged),
            static_cast<std::size_t>(tagged.image.width()) *
                    tagged.image.height() + 1);
  const vision::Image rebuilt = privacy::reconstruct(tagged, size);
  EXPECT_EQ(rebuilt.width(), size);
  EXPECT_EQ(rebuilt.height(), size);
}

INSTANTIATE_TEST_SUITE_P(
    LevelsAndSizes, DistortionProperty,
    ::testing::Combine(::testing::Values(privacy::DistortionLevel::kNone,
                                         privacy::DistortionLevel::kLow,
                                         privacy::DistortionLevel::kMedium,
                                         privacy::DistortionLevel::kHigh),
                       ::testing::Values(48, 96)));

// ---------------------------------------------------------------------------
// Clock sync convergence: for any drift within commodity range and any
// sync period, the steady-state error is bounded by
// drift * period + slop; without sync it exceeds that bound.

class ClockSyncProperty
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ClockSyncProperty, SteadyStateErrorBounded) {
  const auto [drift_ppm, period_s] = GetParam();
  sim::Simulation sim;
  sim::LinkConfig link_cfg;
  sim::VirtualLink up(sim, link_cfg, 1);
  sim::VirtualLink down(sim, link_cfg, 2);
  collection::ControllerConfig ctrl_cfg;
  ctrl_cfg.clock_sync_period_s = period_s;
  collection::Controller controller(sim, ctrl_cfg);
  collection::AgentConfig agent_cfg;
  agent_cfg.agent_id = 1;
  agent_cfg.clock_drift_ppm = drift_ppm;
  agent_cfg.clock_initial_offset_s = 0.2;
  agent_cfg.latency_compensation_s = link_cfg.base_latency_s;
  collection::CollectionAgent agent(sim, agent_cfg, up);
  up.set_receiver(
      [&](std::vector<std::uint8_t> b) { controller.on_message(b); });
  down.set_receiver(
      [&](std::vector<std::uint8_t> b) { agent.on_message(b); });
  controller.attach_agent(1, down);
  agent.add_sensor(std::make_unique<collection::CallbackSensor>(
      "s", 0.1, [](sim::SimTime) {
        return std::vector<float>{0.0f};
      }));
  controller.start();
  agent.start();
  sim.run_until(60.0);

  const double bound = drift_ppm * 1e-6 * period_s + 0.012;
  EXPECT_LT(std::abs(agent.clock_error_now()), bound)
      << "drift " << drift_ppm << "ppm period " << period_s;
}

INSTANTIATE_TEST_SUITE_P(
    DriftAndPeriod, ClockSyncProperty,
    ::testing::Combine(::testing::Values(50.0, 500.0, 2000.0),
                       ::testing::Values(1.0, 5.0, 10.0)));

// ---------------------------------------------------------------------------
// Store alignment: interpolation is exact on linear signals for any
// source rate / grid step combination.

class AlignmentProperty
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(AlignmentProperty, LinearSignalsAlignExactly) {
  const auto [source_hz, grid_dt] = GetParam();
  collection::TimeSeriesStore store;
  const double slope = 2.5, intercept = -1.0;
  for (int i = 0; static_cast<double>(i) / source_hz <= 10.0; ++i) {
    const double t = static_cast<double>(i) / source_hz;
    store.append("lin",
                 {t, {static_cast<float>(slope * t + intercept)}, 0});
  }
  std::vector<double> grid;
  const auto rows = store.aligned({"lin"}, 0.5, 9.5, grid_dt, 0.0, &grid);
  ASSERT_FALSE(rows.empty());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_NEAR(rows[i][0], slope * grid[i] + intercept, 2e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RatesAndSteps, AlignmentProperty,
    ::testing::Combine(::testing::Values(7.0, 40.0, 100.0),
                       ::testing::Values(0.25, 0.1, 0.33)));

// ---------------------------------------------------------------------------
// Model checkpointing round-trips through bytes for varying architectures.

class CheckpointProperty : public ::testing::TestWithParam<int> {};

TEST_P(CheckpointProperty, ForwardIdenticalAfterReload) {
  const int hidden = GetParam();
  auto build = [&](std::uint64_t seed) {
    util::Rng rng(seed);
    nn::Sequential m;
    m.emplace<nn::Conv2D>(1, hidden, 3, 1, rng);
    m.emplace<nn::ReLU>();
    m.emplace<nn::Flatten>();
    m.emplace<nn::Dense>(hidden * 8 * 8, 4, rng);
    return m;
  };
  nn::Sequential original = build(1);
  nn::Sequential reloaded = build(999);
  util::BinaryWriter w;
  original.save_params(w);
  util::BinaryReader r(w.bytes());
  reloaded.load_params(r);

  util::Rng rng(5);
  const Tensor x = Tensor::uniform({2, 1, 8, 8}, 1.0f, rng);
  const Tensor ya = original.forward(x, false);
  const Tensor yb = reloaded.forward(x, false);
  for (std::size_t i = 0; i < ya.numel(); ++i) ASSERT_EQ(ya[i], yb[i]);
}

INSTANTIATE_TEST_SUITE_P(Widths, CheckpointProperty,
                         ::testing::Values(2, 4, 8));

}  // namespace
