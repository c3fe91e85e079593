// Tests for the serving tier: micro-batching determinism (bit-identical to
// the single-threaded StreamingClassifier reference), batch formation,
// backpressure and the shed policy, per-request deadlines, graceful drain,
// and the degraded-mode watermark hysteresis. Runs under the tsan leg.
//
// Note: std::thread is banned outside src/parallel (darnet_analyze's
// thread-outside-parallel rule), so concurrency here is exercised through the
// Server's own workers, gated by condition variables inside stub models.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <vector>

#include "engine/engine.hpp"
#include "engine/streaming.hpp"
#include "nn/dense.hpp"
#include "nn/sequential.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"

namespace {

using namespace darnet;
using tensor::Tensor;
using Clock = std::chrono::steady_clock;

constexpr int kFeatures = 4;
constexpr int kClasses = 6;

/// A deterministic input-dependent frame model: Dense(kFeatures ->
/// kClasses) with a fixed seed, so batched and single-row forwards are
/// bit-identical (ops.hpp determinism contract).
std::shared_ptr<engine::EnsembleClassifier> make_dense_ensemble() {
  util::Rng rng(2024);
  auto model = std::make_shared<nn::Sequential>();
  model->emplace<nn::Dense>(kFeatures, kClasses, rng);
  auto frames =
      std::make_shared<engine::NeuralClassifier>(model, kClasses, "dense");
  return std::make_shared<engine::EnsembleClassifier>(
      frames, nullptr, bayes::ClassMap::darnet_default());
}

engine::ClassifyRequest make_request(std::uint64_t session,
                                     const Tensor& frame) {
  engine::ClassifyRequest request;
  request.session_id = session;
  request.frame = frame;
  return request;
}

/// Blocks inside probabilities() until release() -- lets tests hold a
/// batch inside the ensemble while they fill the admission queue.
struct GatedClassifier final : engine::ProbabilisticClassifier {
  sync::Mutex mu{"test/gate"};
  sync::CondVar cv;
  int entered DARNET_GUARDED_BY(mu){0};
  int calls DARNET_GUARDED_BY(mu){0};
  std::vector<int> rows DARNET_GUARDED_BY(mu);  // batch size of each call
  bool open DARNET_GUARDED_BY(mu){true};

  Tensor probabilities(const Tensor& inputs) override {
    sync::UniqueLock lock(mu);
    ++entered;
    ++calls;
    rows.push_back(inputs.dim(0));
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
    Tensor p({inputs.dim(0), kClasses});
    p.fill(1.0f / static_cast<float>(kClasses));
    return p;
  }
  int num_classes() const override { return kClasses; }
  std::string describe() const override { return "gated"; }

  void close_gate() {
    sync::Lock lock(mu);
    open = false;
  }
  void release() {
    {
      sync::Lock lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  /// Wait until `n` calls have entered (i.e. a batch is inside the model).
  void await_entered(int n) {
    sync::UniqueLock lock(mu);
    cv.wait(lock, [&] { return entered >= n; });
  }
};

/// Identity over the IMU evidence distribution (already [N, 3]).
struct IdentityImu final : engine::ProbabilisticClassifier {
  Tensor probabilities(const Tensor& inputs) override { return inputs; }
  int num_classes() const override { return 3; }
  std::string describe() const override { return "identity"; }
};

/// serve::TimeSource forwarding to the wall clock -- an explicit source
/// must be indistinguishable from the nullptr default.
struct WallClockSource final : serve::TimeSource {
  Clock::time_point now() const noexcept override { return Clock::now(); }
};

/// A clock pinned to one instant, for deadline boundary cases.
struct FrozenSource final : serve::TimeSource {
  Clock::time_point at{Clock::time_point() + std::chrono::hours(1)};
  Clock::time_point now() const noexcept override { return at; }
};

TEST(ServeConfig, Validation) {
  auto ensemble = make_dense_ensemble();
  serve::ShardConfig config;

  EXPECT_THROW(serve::Server(nullptr, config), std::invalid_argument);

  config.max_batch = 0;
  EXPECT_THROW(serve::Server(ensemble, config), std::invalid_argument);
  config = {};
  config.queue_capacity = 0;
  EXPECT_THROW(serve::Server(ensemble, config), std::invalid_argument);
  config = {};
  config.workers = 0;
  EXPECT_THROW(serve::Server(ensemble, config), std::invalid_argument);
  config = {};
  config.degrade_high_watermark = 2;
  config.degrade_low_watermark = 3;
  EXPECT_THROW(serve::Server(ensemble, config), std::invalid_argument);
  config = {};
  config.streaming.smoothing_alpha = 0.0;
  EXPECT_THROW(serve::Server(ensemble, config), std::invalid_argument);
}

TEST(ServeNames, Stable) {
  EXPECT_STREQ(serve::admit_name(serve::Admit::kAccepted), "accepted");
  EXPECT_STREQ(serve::admit_name(serve::Admit::kShedOldest), "shed_oldest");
  EXPECT_STREQ(serve::admit_name(serve::Admit::kRejected), "rejected");
  EXPECT_STREQ(serve::status_name(serve::Status::kOk), "ok");
  EXPECT_STREQ(serve::status_name(serve::Status::kTimeout), "timeout");
  EXPECT_STREQ(serve::status_name(serve::Status::kShed), "shed");
  EXPECT_STREQ(serve::status_name(serve::Status::kRejected), "rejected");
}

// The golden test: many interleaved sessions, batched across multiple
// workers, must produce verdict streams bit-for-bit identical to a
// single-threaded StreamingClassifier fed the same per-session inputs in
// the same order -- batch boundaries and scheduling must not leak into
// results.
TEST(ServeDeterminism, BitIdenticalToStreamingReference) {
  auto ensemble = make_dense_ensemble();

  constexpr int kSessions = 4;
  constexpr int kSteps = 12;
  engine::StreamingConfig streaming;
  streaming.smoothing_alpha = 0.5;
  streaming.alert_streak = 2;

  // Per-session input timelines.
  util::Rng rng(7);
  std::vector<std::vector<Tensor>> frames(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    for (int t = 0; t < kSteps; ++t) {
      frames[s].push_back(Tensor::uniform({1, kFeatures}, 1.0f, rng));
    }
  }

  // Reference: the single-threaded streaming classifier, one per session.
  std::vector<std::vector<engine::StreamingVerdict>> reference(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    engine::StreamingClassifier stream(ensemble, streaming);
    for (int t = 0; t < kSteps; ++t) {
      reference[s].push_back(stream.step(frames[s][t], Tensor{}));
    }
  }

  // Served: submit the same inputs riffle-interleaved across sessions
  // (per-session order preserved -- the determinism contract's domain),
  // with batching and two workers.
  serve::ShardConfig config;
  config.max_batch = 4;
  config.queue_capacity = 256;
  config.workers = 2;
  config.streaming = streaming;
  serve::Server server(ensemble, config);

  std::vector<std::vector<std::future<serve::Response>>> futures(kSessions);
  std::vector<int> cursor(kSessions, 0);
  int remaining = kSessions * kSteps;
  while (remaining > 0) {
    const int s = static_cast<int>(rng.uniform_index(kSessions));
    if (cursor[s] >= kSteps) continue;
    auto sub = server.submit(make_request(
        static_cast<std::uint64_t>(s), frames[s][cursor[s]]));
    ASSERT_EQ(sub.admit, serve::Admit::kAccepted);
    futures[s].push_back(std::move(sub.response));
    ++cursor[s];
    --remaining;
  }
  server.drain();

  for (int s = 0; s < kSessions; ++s) {
    ASSERT_EQ(futures[s].size(), static_cast<std::size_t>(kSteps));
    for (int t = 0; t < kSteps; ++t) {
      serve::Response response = futures[s][t].get();
      ASSERT_EQ(response.status, serve::Status::kOk) << "s=" << s
                                                     << " t=" << t;
      const auto& got = response.result.verdict;
      const auto& want = reference[s][t];
      EXPECT_EQ(got.predicted, want.predicted);
      EXPECT_EQ(got.alert, want.alert);
      EXPECT_EQ(got.alert_onset, want.alert_onset);
      ASSERT_EQ(got.distribution.numel(), want.distribution.numel());
      for (std::size_t i = 0; i < want.distribution.numel(); ++i) {
        // Bitwise: EXPECT_EQ on floats, not EXPECT_FLOAT_EQ.
        EXPECT_EQ(got.distribution[i], want.distribution[i])
            << "s=" << s << " t=" << t << " i=" << i;
      }
      EXPECT_FALSE(response.result.degraded);
      EXPECT_GE(response.result.latency_us, 0);
    }
    const engine::SessionState state =
        server.session(static_cast<std::uint64_t>(s));
    EXPECT_EQ(state.steps, kSteps);
  }

  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kSessions * kSteps));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kSessions * kSteps));
  EXPECT_EQ(stats.batched_rows, stats.completed);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.shed + stats.rejected + stats.timeouts, 0u);
}

// Batch formation takes whatever is queued the moment a worker is free: a
// lone request enters the model alone, and requests that arrive while a
// pass runs become the next batch, cut at max_batch.
TEST(ServeBatching, RowsGatherOnlyWhileAPassRuns) {
  const auto rows_served = [](int max_batch, int backlog) {
    auto gate = std::make_shared<GatedClassifier>();
    auto ensemble = std::make_shared<engine::EnsembleClassifier>(
        gate, nullptr, bayes::ClassMap::darnet_default());
    serve::ShardConfig config;
    config.max_batch = max_batch;
    serve::Server server(ensemble, config);

    const Tensor frame({1, kFeatures});
    gate->close_gate();
    auto lone = server.submit(make_request(0, frame));
    EXPECT_EQ(lone.admit, serve::Admit::kAccepted);
    gate->await_entered(1);
    std::vector<std::future<serve::Response>> queued;
    for (int i = 1; i <= backlog; ++i) {
      auto sub = server.submit(
          make_request(static_cast<std::uint64_t>(i), frame));
      EXPECT_EQ(sub.admit, serve::Admit::kAccepted);
      queued.push_back(std::move(sub.response));
    }
    EXPECT_EQ(server.queue_depth(), static_cast<std::size_t>(backlog));
    gate->release();

    EXPECT_EQ(lone.response.get().status, serve::Status::kOk);
    for (auto& f : queued) EXPECT_EQ(f.get().status, serve::Status::kOk);
    server.drain();
    sync::Lock lock(gate->mu);
    return gate->rows;
  };

  EXPECT_EQ(rows_served(8, 5), (std::vector<int>{1, 5}));
  EXPECT_EQ(rows_served(4, 5), (std::vector<int>{1, 4, 1}));
}

TEST(ServeBackpressure, ShedOldestAdmitsTheNewcomer) {
  auto gate = std::make_shared<GatedClassifier>();
  auto ensemble = std::make_shared<engine::EnsembleClassifier>(
      gate, nullptr, bayes::ClassMap::darnet_default());

  serve::ShardConfig config;
  config.max_batch = 1;
  config.queue_capacity = 2;
  config.shed_oldest = true;
  serve::Server server(ensemble, config);

  const Tensor frame({1, kFeatures});
  gate->close_gate();

  // First request enters the model and blocks there.
  auto first = server.submit(make_request(1, frame));
  ASSERT_EQ(first.admit, serve::Admit::kAccepted);
  gate->await_entered(1);

  // Fill the queue to capacity behind the blocked batch.
  auto second = server.submit(make_request(2, frame));
  auto third = server.submit(make_request(3, frame));
  ASSERT_EQ(second.admit, serve::Admit::kAccepted);
  ASSERT_EQ(third.admit, serve::Admit::kAccepted);
  EXPECT_EQ(server.queue_depth(), 2u);

  // Overflow: the oldest queued request (2) is shed to admit 4.
  auto fourth = server.submit(make_request(4, frame));
  EXPECT_EQ(fourth.admit, serve::Admit::kShedOldest);
  EXPECT_EQ(server.queue_depth(), 2u);
  EXPECT_EQ(second.response.get().status, serve::Status::kShed);

  gate->release();
  server.drain();

  EXPECT_EQ(first.response.get().status, serve::Status::kOk);
  EXPECT_EQ(third.response.get().status, serve::Status::kOk);
  EXPECT_EQ(fourth.response.get().status, serve::Status::kOk);

  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.accepted, 4u);  // all four were admitted to the queue
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 3u);
}

TEST(ServeBackpressure, RejectsWhenSheddingDisabled) {
  auto gate = std::make_shared<GatedClassifier>();
  auto ensemble = std::make_shared<engine::EnsembleClassifier>(
      gate, nullptr, bayes::ClassMap::darnet_default());

  serve::ShardConfig config;
  config.max_batch = 1;
  config.queue_capacity = 1;
  config.shed_oldest = false;
  serve::Server server(ensemble, config);

  const Tensor frame({1, kFeatures});
  gate->close_gate();

  auto first = server.submit(make_request(1, frame));
  ASSERT_EQ(first.admit, serve::Admit::kAccepted);
  gate->await_entered(1);
  auto second = server.submit(make_request(2, frame));
  ASSERT_EQ(second.admit, serve::Admit::kAccepted);

  auto third = server.submit(make_request(3, frame));
  EXPECT_EQ(third.admit, serve::Admit::kRejected);
  EXPECT_EQ(third.response.get().status, serve::Status::kRejected);

  gate->release();
  server.drain();
  EXPECT_EQ(server.stats().rejected, 1u);
}

TEST(ServeDeadlines, ExpiredRequestsTimeOutWithoutInference) {
  auto ensemble = make_dense_ensemble();
  serve::ShardConfig config;
  serve::Server server(ensemble, config);

  engine::ClassifyRequest request =
      make_request(9, Tensor({1, kFeatures}));
  request.deadline = Clock::now() - std::chrono::milliseconds(1);
  auto sub = server.submit(std::move(request));
  ASSERT_EQ(sub.admit, serve::Admit::kAccepted);

  const serve::Response response = sub.response.get();
  EXPECT_EQ(response.status, serve::Status::kTimeout);
  EXPECT_GE(response.result.latency_us, 0);

  server.drain();
  // The session was never advanced: no inference ran for the request.
  EXPECT_EQ(server.session(9).steps, 0);
  EXPECT_EQ(server.stats().timeouts, 1u);
  EXPECT_EQ(server.stats().completed, 0u);
}

TEST(ServeDeadlines, DeadlineExactlyAtNowStillServes) {
  // Triage expires strictly-past deadlines (`deadline < now`): a request
  // whose deadline is the current instant is on time by contract.
  auto ensemble = make_dense_ensemble();
  auto frozen = std::make_shared<FrozenSource>();
  serve::ShardConfig config;
  config.time_source = frozen;
  serve::Server server(ensemble, config);

  engine::ClassifyRequest on_time = make_request(1, Tensor({1, kFeatures}));
  on_time.deadline = frozen->at;
  auto sub = server.submit(std::move(on_time));
  ASSERT_EQ(sub.admit, serve::Admit::kAccepted);
  EXPECT_EQ(sub.response.get().status, serve::Status::kOk);

  engine::ClassifyRequest late = make_request(2, Tensor({1, kFeatures}));
  late.deadline = frozen->at - std::chrono::nanoseconds(1);
  auto late_sub = server.submit(std::move(late));
  ASSERT_EQ(late_sub.admit, serve::Admit::kAccepted);
  EXPECT_EQ(late_sub.response.get().status, serve::Status::kTimeout);

  server.drain();
  EXPECT_EQ(server.stats().completed, 1u);
  EXPECT_EQ(server.stats().timeouts, 1u);
}

TEST(ServeDeterminism, NullTimeSourceMatchesExplicitWallClock) {
  // The nullptr default and a pass-through TimeSource must be the same
  // clock in behaviour: riffled multi-session streams stay bit-identical
  // between the two configurations.
  auto ensemble = make_dense_ensemble();
  constexpr int kSessions = 3;
  constexpr int kSteps = 8;

  util::Rng rng(23);
  std::vector<std::vector<Tensor>> frames(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    for (int t = 0; t < kSteps; ++t) {
      frames[s].push_back(Tensor::uniform({1, kFeatures}, 1.0f, rng));
    }
  }

  const auto run = [&](std::shared_ptr<serve::TimeSource> source) {
    serve::ShardConfig config;
    config.max_batch = 4;
    config.workers = 2;
    config.time_source = std::move(source);
    serve::Server server(ensemble, config);
    std::vector<std::vector<std::future<serve::Response>>> futures(kSessions);
    util::Rng riffle(29);
    std::vector<int> cursor(kSessions, 0);
    int remaining = kSessions * kSteps;
    while (remaining > 0) {
      const int s = static_cast<int>(riffle.uniform_index(kSessions));
      if (cursor[s] >= kSteps) continue;
      auto sub = server.submit(make_request(
          static_cast<std::uint64_t>(s), frames[s][cursor[s]]));
      EXPECT_EQ(sub.admit, serve::Admit::kAccepted);
      futures[s].push_back(std::move(sub.response));
      ++cursor[s];
      --remaining;
    }
    server.drain();
    std::vector<std::vector<engine::StreamingVerdict>> verdicts(kSessions);
    for (int s = 0; s < kSessions; ++s) {
      for (auto& f : futures[s]) {
        serve::Response response = f.get();
        EXPECT_EQ(response.status, serve::Status::kOk);
        verdicts[s].push_back(std::move(response.result.verdict));
      }
    }
    return verdicts;
  };

  const auto with_null = run(nullptr);
  const auto with_wall = run(std::make_shared<WallClockSource>());
  for (int s = 0; s < kSessions; ++s) {
    ASSERT_EQ(with_null[s].size(), with_wall[s].size());
    for (std::size_t t = 0; t < with_null[s].size(); ++t) {
      const auto& a = with_null[s][t];
      const auto& b = with_wall[s][t];
      EXPECT_EQ(a.predicted, b.predicted);
      EXPECT_EQ(a.alert, b.alert);
      ASSERT_EQ(a.distribution.numel(), b.distribution.numel());
      for (std::size_t i = 0; i < a.distribution.numel(); ++i) {
        EXPECT_EQ(a.distribution[i], b.distribution[i]);  // bitwise
      }
    }
  }
}

TEST(ServeHotSwap, SwapKeepsSessionStreamsBitIdentical) {
  // Two replicas built from the same seed are bit-identical in weights;
  // swapping one for the other mid-stream must be invisible to every
  // session (EWMA state lives in the server, not the ensemble).
  auto ensemble = make_dense_ensemble();
  constexpr int kSteps = 10;

  util::Rng rng(31);
  std::vector<Tensor> frames;
  for (int t = 0; t < kSteps; ++t) {
    frames.push_back(Tensor::uniform({1, kFeatures}, 1.0f, rng));
  }
  std::vector<engine::StreamingVerdict> reference;
  {
    engine::StreamingClassifier stream(ensemble, engine::StreamingConfig{});
    for (const Tensor& frame : frames) {
      reference.push_back(stream.step(frame, Tensor{}));
    }
  }

  serve::ShardConfig config;
  serve::Server server(ensemble, config);
  EXPECT_THROW(server.swap_ensemble(nullptr), std::invalid_argument);

  for (int t = 0; t < kSteps; ++t) {
    if (t == kSteps / 2) {
      auto previous = server.swap_ensemble(make_dense_ensemble());
      EXPECT_EQ(previous, ensemble);  // the old replica comes back out
      EXPECT_NE(server.ensemble(), ensemble);
    }
    auto sub = server.submit(make_request(5, frames[t]));
    ASSERT_EQ(sub.admit, serve::Admit::kAccepted);
    serve::Response response = sub.response.get();
    ASSERT_EQ(response.status, serve::Status::kOk);
    const auto& got = response.result.verdict;
    EXPECT_EQ(got.predicted, reference[t].predicted);
    for (std::size_t i = 0; i < reference[t].distribution.numel(); ++i) {
      EXPECT_EQ(got.distribution[i], reference[t].distribution[i]);
    }
  }

  server.drain();
  EXPECT_EQ(server.stats().ensemble_swaps, 1u);
  EXPECT_EQ(server.stats().completed, static_cast<std::uint64_t>(kSteps));
}

TEST(ServeDrain, LeavesNoPendingFuturesAndRejectsAfter) {
  auto ensemble = make_dense_ensemble();
  serve::ShardConfig config;
  config.max_batch = 4;
  serve::Server server(ensemble, config);

  util::Rng rng(11);
  std::vector<std::future<serve::Response>> futures;
  for (int i = 0; i < 10; ++i) {
    auto sub = server.submit(make_request(
        static_cast<std::uint64_t>(i % 3),
        Tensor::uniform({1, kFeatures}, 1.0f, rng)));
    ASSERT_EQ(sub.admit, serve::Admit::kAccepted);
    futures.push_back(std::move(sub.response));
  }

  server.drain();
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(f.get().status, serve::Status::kOk);
  }
  EXPECT_EQ(server.queue_depth(), 0u);

  // After drain the server stays drained: submissions are rejected and
  // their futures resolve immediately.
  auto late = server.submit(make_request(1, Tensor({1, kFeatures})));
  EXPECT_EQ(late.admit, serve::Admit::kRejected);
  ASSERT_EQ(late.response.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(late.response.get().status, serve::Status::kRejected);

  // Rejection after drain is deterministic, not racy: every subsequent
  // submit gets the same immediate answer.
  for (int i = 0; i < 5; ++i) {
    auto again = server.submit(make_request(2, Tensor({1, kFeatures})));
    EXPECT_EQ(again.admit, serve::Admit::kRejected);
    ASSERT_EQ(again.response.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(again.response.get().status, serve::Status::kRejected);
  }

  server.drain();  // idempotent
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, 10u);
  EXPECT_EQ(stats.rejected, 6u);
}

TEST(ServeDegraded, WatermarkHysteresisSkipsTheFrameModel) {
  // Ensemble with a gated (expensive) frame model and a cheap IMU side,
  // fitted so the degraded path is available.
  auto gate = std::make_shared<GatedClassifier>();
  auto imu = std::make_shared<IdentityImu>();
  auto ensemble = std::make_shared<engine::EnsembleClassifier>(
      gate, imu, bayes::ClassMap::darnet_default());
  {
    const int n = 30;
    Tensor fit_frames({n, kFeatures});
    Tensor fit_imu({n, 3});
    std::vector<int> labels(n);
    for (int i = 0; i < n; ++i) {
      const int y = (i % 2) ? 2 : 0;
      labels[static_cast<std::size_t>(i)] = y;
      for (int c = 0; c < 3; ++c) fit_imu.at(i, c) = 0.05f;
      fit_imu.at(i, y == 2 ? 2 : 0) = 0.9f;
    }
    ensemble->fit(fit_frames, fit_imu, labels);
  }
  ASSERT_TRUE(ensemble->can_degrade());
  gate->entered = 0;
  gate->calls = 0;

  serve::ShardConfig config;
  config.max_batch = 8;
  config.queue_capacity = 32;
  config.degrade_high_watermark = 4;
  config.degrade_low_watermark = 1;
  serve::Server server(ensemble, config);

  const Tensor frame({1, kFeatures});
  Tensor window({1, 3});
  window.fill(1.0f / 3.0f);
  auto request = [&](std::uint64_t s) {
    engine::ClassifyRequest r;
    r.session_id = s;
    r.frame = frame;
    r.imu_window = window;
    return r;
  };

  // Batch 1 (depth 1 < high watermark): full path, blocks in the frame
  // model while the queue backs up past the high watermark.
  gate->close_gate();
  auto first = server.submit(request(1));
  ASSERT_EQ(first.admit, serve::Admit::kAccepted);
  gate->await_entered(1);
  std::vector<std::future<serve::Response>> backlog;
  for (int i = 0; i < 5; ++i) {
    auto sub = server.submit(request(static_cast<std::uint64_t>(i)));
    ASSERT_EQ(sub.admit, serve::Admit::kAccepted);
    backlog.push_back(std::move(sub.response));
  }
  EXPECT_EQ(server.queue_depth(), 5u);
  gate->release();

  // Batch 2 forms at depth 5 >= 4: degraded engages, the frame model is
  // skipped (its call count stays at 1).
  EXPECT_EQ(first.response.get().result.degraded, false);
  for (auto& f : backlog) {
    const serve::Response response = f.get();
    ASSERT_EQ(response.status, serve::Status::kOk);
    EXPECT_TRUE(response.result.degraded);
  }
  EXPECT_TRUE(server.degraded_mode());
  {
    sync::Lock lock(gate->mu);
    EXPECT_EQ(gate->calls, 1);
  }

  // Depth falls to the low watermark: hysteresis disengages and the full
  // path (frame model) serves again.
  auto recovered = server.submit(request(7));
  ASSERT_EQ(recovered.admit, serve::Admit::kAccepted);
  EXPECT_FALSE(recovered.response.get().result.degraded);
  EXPECT_FALSE(server.degraded_mode());
  {
    sync::Lock lock(gate->mu);
    EXPECT_EQ(gate->calls, 2);
  }

  server.drain();
  const auto stats = server.stats();
  EXPECT_GE(stats.degraded_batches, 1u);
  EXPECT_EQ(stats.completed, 7u);
}

}  // namespace
