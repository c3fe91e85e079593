// Layer peeling below the router: replays a workload's inputs on the
// reference replica at each lower boundary -- EnsembleClassifier::
// classify_batch, the two nn::Sequential models whole and layer by layer,
// and BayesianCombiner::combine -- at batch 1 and batch 8.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "fixture.hpp"

namespace perfbench {

/// One timed call, kept in memory and written out as a chrome-trace "X"
/// event. Spans of one request share `id`.
struct Span {
  std::string name;
  std::chrono::steady_clock::time_point start, end;
  int tid{0};
  std::uint64_t id{0};
};

/// Mean microseconds per call at one batch size.
struct ModelTimes {
  double forward_us{0.0};               // Sequential::forward, whole model
  std::vector<std::string> layer_names;  // "<index>_<Layer::name()>"
  std::vector<double> layer_us;          // Sequential::layer(i).forward
  [[nodiscard]] double layers_sum_us() const;
};

struct BatchTimes {
  double classify_us{0.0};  // EnsembleClassifier::classify_batch
  double combine_us{0.0};   // BayesianCombiner::combine
  ModelTimes frame_cnn;
  ModelTimes imu_rnn;
};

struct LayerReplay {
  BatchTimes b1;
  BatchTimes b8;
};

/// Replays `frames` (held-out indices in the workload's send order) on the
/// fixture's reference replica. Appends one span per timed call to
/// `spans` on thread id `tid`.
[[nodiscard]] LayerReplay replay_layers(Fixture& fixture,
                                        const std::vector<int>& frames,
                                        std::vector<Span>& spans, int tid);

}  // namespace perfbench
