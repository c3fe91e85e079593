// Tests for serve::Router: deterministic consistent-hash placement,
// per-tenant token-bucket quotas under an injected clock, versioned
// snapshot hot-swaps (zero dropped requests, bit-identical verdicts for
// untouched sessions), one replica shared by every shard, and
// single-shard equivalence with a bare Server.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <vector>

#include "engine/architectures.hpp"
#include "engine/engine.hpp"
#include "engine/streaming.hpp"
#include "imu/imu.hpp"
#include "nn/dense.hpp"
#include "nn/sequential.hpp"
#include "serve/router.hpp"
#include "tensor/kernels.hpp"
#include "util/rng.hpp"

namespace {

using namespace darnet;
using tensor::Tensor;
namespace kernels = tensor::kernels;
using Clock = std::chrono::steady_clock;

constexpr int kFeatures = 4;
constexpr int kClasses = 6;

std::shared_ptr<engine::EnsembleClassifier> make_dense_ensemble(
    std::uint64_t seed = 2024) {
  util::Rng rng(seed);
  auto model = std::make_shared<nn::Sequential>();
  model->emplace<nn::Dense>(kFeatures, kClasses, rng);
  auto frames =
      std::make_shared<engine::NeuralClassifier>(model, kClasses, "dense");
  return std::make_shared<engine::EnsembleClassifier>(
      frames, nullptr, bayes::ClassMap::darnet_default());
}

serve::Router::Snapshot make_snapshot(int shards, std::uint64_t version,
                                      std::uint64_t seed = 2024) {
  serve::Router::Snapshot snapshot;
  snapshot.version = version;
  for (int s = 0; s < shards; ++s) {
    snapshot.replicas.push_back(make_dense_ensemble(seed));
  }
  return snapshot;
}

engine::ClassifyRequest make_request(std::uint64_t session,
                                     const Tensor& frame,
                                     std::uint64_t tenant = 0) {
  engine::ClassifyRequest request;
  request.session_id = session;
  request.tenant_id = tenant;
  request.frame = frame;
  return request;
}

/// A manually advanced serve::TimeSource (atomic so worker threads may
/// read it while the test thread advances, clean under tsan).
struct ManualSource final : serve::TimeSource {
  std::atomic<Clock::duration::rep> elapsed{0};
  Clock::time_point now() const noexcept override {
    return Clock::time_point() + std::chrono::hours(1) +
           Clock::duration(elapsed.load());
  }
  void advance(std::chrono::nanoseconds by) { elapsed += by.count(); }
};

TEST(RouterConfig, ValidatesSnapshotAndQuotas) {
  serve::RouterConfig config;
  config.shards = 2;

  EXPECT_THROW(serve::Router(make_snapshot(1, 1), config),
               std::invalid_argument);

  serve::Router::Snapshot null_replica = make_snapshot(2, 1);
  null_replica.replicas[1] = nullptr;
  EXPECT_THROW(serve::Router(std::move(null_replica), config),
               std::invalid_argument);

  // Shards may share a replica: inference writes nothing into the model.
  serve::Router::Snapshot shared = make_snapshot(2, 1);
  shared.replicas[1] = shared.replicas[0];
  {
    serve::Router router(std::move(shared), config);
    const Tensor frame({1, kFeatures});
    for (std::uint64_t session = 0; session < 8; ++session) {
      auto sub = router.submit(make_request(session, frame));
      EXPECT_EQ(sub.response.get().status, serve::Status::kOk);
    }
  }

  config.quotas[1] = serve::TenantQuota{0.0, 1.0};  // capacity < 1
  EXPECT_THROW(serve::Router(make_snapshot(2, 1), config),
               std::invalid_argument);
  config.quotas.clear();

  config.shards = 0;
  EXPECT_THROW(serve::Router(make_snapshot(0, 1), config),
               std::invalid_argument);
}

TEST(RouterHashing, DeterministicStableAndSpread) {
  serve::RouterConfig config;
  config.shards = 4;
  serve::Router router(make_snapshot(4, 1), config);

  serve::RouterConfig config_again;
  config_again.shards = 4;
  serve::Router again(make_snapshot(4, 1), config_again);

  std::vector<int> hits(4, 0);
  for (std::uint64_t session = 0; session < 1000; ++session) {
    const int shard = router.shard_for(session);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
    // Pure function of the ring: identical across router instances.
    EXPECT_EQ(shard, again.shard_for(session));
    ++hits[static_cast<std::size_t>(shard)];
  }
  // 64 virtual nodes per shard spread 1000 keys roughly evenly; a shard
  // starved below a third of its fair share means the ring regressed
  // (e.g. the small-id/vnode hash-domain collision).
  for (int shard = 0; shard < 4; ++shard) {
    EXPECT_GT(hits[static_cast<std::size_t>(shard)], 1000 / 12) << shard;
  }

  router.drain();
  again.drain();
}

TEST(RouterQuota, TokenBucketsAreDeterministicUnderVirtualTime) {
  auto clock = std::make_shared<ManualSource>();
  serve::RouterConfig config;
  config.shards = 1;
  config.shard.time_source = clock;
  config.quotas[7] = serve::TenantQuota{2.0, 1.0};  // burst 2, 1 token/s
  serve::Router router(make_snapshot(1, 1), config);

  const Tensor frame({1, kFeatures});
  // The bucket starts full: exactly two pass, the third is clipped at
  // the door with its future already resolved.
  for (int i = 0; i < 2; ++i) {
    auto sub = router.submit(make_request(1, frame, 7));
    EXPECT_EQ(sub.admit, serve::Admit::kAccepted);
    EXPECT_EQ(sub.response.get().status, serve::Status::kOk);
  }
  auto clipped = router.submit(make_request(1, frame, 7));
  EXPECT_EQ(clipped.admit, serve::Admit::kRejected);
  ASSERT_EQ(clipped.response.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(clipped.response.get().status, serve::Status::kRejected);

  // Half a second refills half a token: still clipped.
  clock->advance(std::chrono::milliseconds(500));
  EXPECT_EQ(router.submit(make_request(1, frame, 7)).admit,
            serve::Admit::kRejected);
  // The other half arrives: one request passes, the next is clipped.
  clock->advance(std::chrono::milliseconds(500));
  EXPECT_EQ(router.submit(make_request(1, frame, 7)).admit,
            serve::Admit::kAccepted);
  EXPECT_EQ(router.submit(make_request(1, frame, 7)).admit,
            serve::Admit::kRejected);

  // Unmetered tenants fall through to shard backpressure alone.
  EXPECT_EQ(router.submit(make_request(1, frame, 8)).admit,
            serve::Admit::kAccepted);

  router.drain();
  const serve::Router::Stats stats = router.stats();
  EXPECT_EQ(stats.routed, 4u);
  EXPECT_EQ(stats.quota_rejected, 3u);
  ASSERT_EQ(stats.per_shard.size(), 1u);
  EXPECT_EQ(stats.per_shard[0].submitted, 4u);
}

TEST(RouterSwap, HotSwapDropsNothingAndKeepsVerdictsBitIdentical) {
  constexpr int kSessions = 6;
  constexpr int kSteps = 12;
  auto ensemble = make_dense_ensemble();

  // Reference: untouched single-threaded streams.
  util::Rng rng(37);
  std::vector<std::vector<Tensor>> frames(kSessions);
  std::vector<std::vector<engine::StreamingVerdict>> reference(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    engine::StreamingClassifier stream(ensemble, engine::StreamingConfig{});
    for (int t = 0; t < kSteps; ++t) {
      frames[s].push_back(Tensor::uniform({1, kFeatures}, 1.0f, rng));
      reference[s].push_back(stream.step(frames[s][t], Tensor{}));
    }
  }

  serve::RouterConfig config;
  config.shards = 3;
  serve::Router router(make_snapshot(3, 1), config);
  EXPECT_EQ(router.snapshot_version(), 1u);

  std::vector<std::vector<std::future<serve::Response>>> futures(kSessions);
  for (int t = 0; t < kSteps; ++t) {
    // Mid-traffic rollout to same-weight replicas: no request may drop,
    // no session's verdict stream may change.
    if (t == kSteps / 2) router.swap_snapshot(make_snapshot(3, 2));
    for (int s = 0; s < kSessions; ++s) {
      auto sub = router.submit(
          make_request(static_cast<std::uint64_t>(s), frames[s][t]));
      ASSERT_EQ(sub.admit, serve::Admit::kAccepted);
      futures[s].push_back(std::move(sub.response));
    }
  }
  router.drain();
  EXPECT_EQ(router.snapshot_version(), 2u);

  for (int s = 0; s < kSessions; ++s) {
    ASSERT_EQ(futures[s].size(), static_cast<std::size_t>(kSteps));
    for (int t = 0; t < kSteps; ++t) {
      serve::Response response = futures[s][t].get();
      ASSERT_EQ(response.status, serve::Status::kOk) << "s=" << s
                                                     << " t=" << t;
      const auto& got = response.result.verdict;
      EXPECT_EQ(got.predicted, reference[s][t].predicted);
      for (std::size_t i = 0; i < reference[s][t].distribution.numel();
           ++i) {
        EXPECT_EQ(got.distribution[i], reference[s][t].distribution[i])
            << "s=" << s << " t=" << t << " i=" << i;  // bitwise
      }
    }
  }

  const serve::Router::Stats stats = router.stats();
  EXPECT_EQ(stats.routed, static_cast<std::uint64_t>(kSessions * kSteps));
  EXPECT_EQ(stats.quota_rejected, 0u);
  EXPECT_EQ(stats.snapshot_swaps, 1u);
  std::uint64_t swaps = 0;
  std::uint64_t completed = 0;
  for (const serve::Server::Stats& shard : stats.per_shard) {
    swaps += shard.ensemble_swaps;
    completed += shard.completed;
  }
  EXPECT_EQ(swaps, 3u);  // one flip per shard
  EXPECT_EQ(completed, static_cast<std::uint64_t>(kSessions * kSteps));
}

TEST(RouterSwap, VersionMustIncreaseMonotonically) {
  serve::RouterConfig config;
  config.shards = 2;
  serve::Router router(make_snapshot(2, 5), config);
  EXPECT_EQ(router.snapshot_version(), 5u);
  EXPECT_THROW(router.swap_snapshot(make_snapshot(2, 5)),
               std::invalid_argument);  // stale rollout
  EXPECT_THROW(router.swap_snapshot(make_snapshot(2, 4)),
               std::invalid_argument);
  EXPECT_THROW(router.swap_snapshot(make_snapshot(3, 6)),
               std::invalid_argument);  // wrong replica count
  EXPECT_EQ(router.snapshot_version(), 5u);
  router.swap_snapshot(make_snapshot(2, 6));
  EXPECT_EQ(router.snapshot_version(), 6u);
  // One replica handed to both shards is a valid rollout too.
  serve::Router::Snapshot shared = make_snapshot(2, 7);
  shared.replicas[1] = shared.replicas[0];
  router.swap_snapshot(std::move(shared));
  EXPECT_EQ(router.snapshot_version(), 7u);
  EXPECT_EQ(router.stats().snapshot_swaps, 2u);
  router.drain();
}

/// The paper's ensemble (MicroInception CNN + BiLSTM + Bayesian combiner)
/// on 16x16 frames, so it runs quickly under tsan. Built from fixed seeds:
/// two calls at one ISA give bit-identical replicas.
std::shared_ptr<engine::EnsembleClassifier> make_paper_ensemble() {
  engine::FrameCnnConfig cnn_config;
  cnn_config.input_size = 16;
  const engine::ImuRnnConfig rnn_config;
  auto cnn = std::make_shared<nn::Sequential>(
      engine::build_frame_cnn(cnn_config));
  auto rnn = std::make_shared<nn::Sequential>(
      engine::build_imu_rnn(rnn_config));
  auto ensemble = std::make_shared<engine::EnsembleClassifier>(
      std::make_shared<engine::NeuralClassifier>(
          cnn, cnn_config.num_classes, "cnn"),
      std::make_shared<engine::NeuralClassifier>(
          rnn, rnn_config.num_classes, "rnn"),
      bayes::ClassMap::darnet_default());
  // The combiner refuses to combine before it is fitted; a few synthetic
  // rows covering every class are enough.
  util::Rng rng(21);
  std::vector<int> labels(static_cast<std::size_t>(cnn_config.num_classes));
  std::iota(labels.begin(), labels.end(), 0);
  const int rows = cnn_config.num_classes;
  ensemble->fit(Tensor::uniform({rows, 1, 16, 16}, 0.5F, rng),
                Tensor::uniform({rows, imu::kWindowSteps, rnn_config.channels},
                                1.0F, rng),
                labels);
  return ensemble;
}

// One replica serves a 2-shard router: both shard workers run passes in
// it at once. Every verdict must equal the single-threaded reference bit
// for bit, at every ISA this build and CPU can run (the vector ISAs pack
// weights inside the pass, so they are the ones that would race). Mid
// traffic, a permuted rollout over two same-seed replicas ({r1, r0} over
// {r0, r0}) and a repeated one ({r0, r0}) each drop nothing.
TEST(RouterShared, OneReplicaServesEveryShardBitIdentically) {
  constexpr int kSessions = 8;
  constexpr int kSteps = 6;
  struct IsaGuard {
    ~IsaGuard() { kernels::set_isa(kernels::Isa::kScalar); }
  } guard;
  for (kernels::Isa isa : {kernels::Isa::kScalar, kernels::Isa::kAvx2,
                           kernels::Isa::kAvx512}) {
    if (!kernels::isa_supported(isa)) continue;
    SCOPED_TRACE(kernels::isa_name(isa));
    kernels::set_isa(isa);
    auto r0 = make_paper_ensemble();
    auto r1 = make_paper_ensemble();
    const int channels = engine::ImuRnnConfig{}.channels;

    util::Rng rng(53);
    std::vector<std::vector<Tensor>> frames(kSessions);
    std::vector<std::vector<Tensor>> windows(kSessions);
    std::vector<std::vector<engine::StreamingVerdict>> reference(kSessions);
    for (int s = 0; s < kSessions; ++s) {
      engine::StreamingClassifier stream(r0, engine::StreamingConfig{});
      for (int t = 0; t < kSteps; ++t) {
        frames[s].push_back(Tensor::uniform({1, 1, 16, 16}, 0.5F, rng));
        windows[s].push_back(
            Tensor::uniform({1, imu::kWindowSteps, channels}, 1.0F, rng));
        reference[s].push_back(stream.step(frames[s][t], windows[s][t]));
      }
    }

    serve::RouterConfig config;
    config.shards = 2;
    serve::Router router(serve::Router::Snapshot{1, {r0, r0}}, config);
    std::vector<int> per_shard(2, 0);
    for (int s = 0; s < kSessions; ++s) {
      ++per_shard[static_cast<std::size_t>(
          router.shard_for(static_cast<std::uint64_t>(s)))];
    }
    ASSERT_GT(per_shard[0], 0);
    ASSERT_GT(per_shard[1], 0);

    // Riffled: every step submits one frame per session, so both shards'
    // queues fill and their workers run batches in r0 at the same time.
    std::vector<std::vector<std::future<serve::Response>>> futures(kSessions);
    for (int t = 0; t < kSteps; ++t) {
      if (t == kSteps / 3) {
        router.swap_snapshot(serve::Router::Snapshot{2, {r1, r0}});
      }
      if (t == 2 * kSteps / 3) {
        router.swap_snapshot(serve::Router::Snapshot{3, {r0, r0}});
      }
      for (int s = 0; s < kSessions; ++s) {
        engine::ClassifyRequest request =
            make_request(static_cast<std::uint64_t>(s), frames[s][t]);
        request.imu_window = windows[s][t];
        auto sub = router.submit(std::move(request));
        ASSERT_EQ(sub.admit, serve::Admit::kAccepted);
        futures[s].push_back(std::move(sub.response));
      }
    }
    router.drain();
    EXPECT_EQ(router.snapshot_version(), 3u);

    for (int s = 0; s < kSessions; ++s) {
      for (int t = 0; t < kSteps; ++t) {
        const serve::Response response = futures[s][t].get();
        ASSERT_EQ(response.status, serve::Status::kOk)
            << "s=" << s << " t=" << t;
        const auto& got = response.result.verdict;
        EXPECT_EQ(got.predicted, reference[s][t].predicted);
        for (std::size_t i = 0; i < reference[s][t].distribution.numel();
             ++i) {
          EXPECT_EQ(got.distribution[i], reference[s][t].distribution[i])
              << "s=" << s << " t=" << t << " i=" << i;  // bitwise
        }
      }
    }
    const serve::Router::Stats stats = router.stats();
    EXPECT_EQ(stats.snapshot_swaps, 2u);
    std::uint64_t completed = 0;
    for (const serve::Server::Stats& shard : stats.per_shard) {
      completed += shard.completed;
    }
    EXPECT_EQ(completed, static_cast<std::uint64_t>(kSessions * kSteps));
  }
}

TEST(RouterEquivalence, OneShardMatchesABareServer) {
  auto ensemble = make_dense_ensemble();
  constexpr int kSteps = 8;
  util::Rng rng(41);
  std::vector<Tensor> frames;
  for (int t = 0; t < kSteps; ++t) {
    frames.push_back(Tensor::uniform({1, kFeatures}, 1.0f, rng));
  }

  serve::ShardConfig shard_config;
  serve::Server server(make_dense_ensemble(), shard_config);

  serve::RouterConfig router_config;
  router_config.shard = shard_config;
  serve::Router router(make_snapshot(1, 1), router_config);

  for (int t = 0; t < kSteps; ++t) {
    auto direct = server.submit(make_request(3, frames[t]));
    auto routed = router.submit(make_request(3, frames[t]));
    const auto a = direct.response.get();
    const auto b = routed.response.get();
    ASSERT_EQ(a.status, serve::Status::kOk);
    ASSERT_EQ(b.status, serve::Status::kOk);
    EXPECT_EQ(a.result.verdict.predicted, b.result.verdict.predicted);
    for (std::size_t i = 0; i < a.result.verdict.distribution.numel();
         ++i) {
      EXPECT_EQ(a.result.verdict.distribution[i],
                b.result.verdict.distribution[i]);
    }
  }
  server.drain();
  router.drain();

  // Draining the router drains its shard: submissions now reject.
  auto late = router.submit(make_request(3, frames[0]));
  EXPECT_EQ(late.admit, serve::Admit::kRejected);
  EXPECT_EQ(late.response.get().status, serve::Status::kRejected);
}

}  // namespace
