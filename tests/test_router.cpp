// Tests for serve::Router: deterministic consistent-hash placement,
// per-tenant token-bucket quotas under an injected clock, versioned
// snapshot hot-swaps (zero dropped requests, bit-identical verdicts for
// untouched sessions), and single-shard equivalence with a bare Server.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <vector>

#include "engine/engine.hpp"
#include "engine/streaming.hpp"
#include "nn/dense.hpp"
#include "nn/sequential.hpp"
#include "serve/router.hpp"
#include "util/rng.hpp"

namespace {

using namespace darnet;
using tensor::Tensor;
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

  // Shards must not share a replica: models keep forward caches and
  // only serialise on their own shard's exec lock.
  serve::Router::Snapshot shared = make_snapshot(2, 1);
  shared.replicas[1] = shared.replicas[0];
  EXPECT_THROW(serve::Router(std::move(shared), config),
               std::invalid_argument);

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
  serve::Router router(make_snapshot(1, 5), config);
  EXPECT_EQ(router.snapshot_version(), 5u);
  EXPECT_THROW(router.swap_snapshot(make_snapshot(1, 5)),
               std::invalid_argument);  // stale rollout
  EXPECT_THROW(router.swap_snapshot(make_snapshot(1, 4)),
               std::invalid_argument);
  EXPECT_THROW(router.swap_snapshot(make_snapshot(2, 6)),
               std::invalid_argument);  // wrong replica count
  router.swap_snapshot(make_snapshot(1, 6));
  EXPECT_EQ(router.snapshot_version(), 6u);
  EXPECT_EQ(router.stats().snapshot_swaps, 1u);
  router.drain();
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
