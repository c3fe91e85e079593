// Tests for darnet::sync -- the annotated synchronisation layer.
//
// Four concerns, matching the layer's contract (sync.hpp header comment):
//   * Checked-build detectors: held-lock stack introspection, lock-order
//     cycle detection (AB/BA inversion aborts with both sites), held-lock
//     assertion violations, recursive / same-name nested acquisition, and
//     the CondVar wait watchdog. Abort paths run as gtest death tests
//     matching the "darnet::sync failure" diagnostic prefix.
//   * Zero-cost proof: with DARNET_CHECKED off the assertion macros must
//     not evaluate their arguments (side effects are counted).
//   * Build-mode parity: a served pipeline's bit-exact output hash equals
//     one hardcoded golden in BOTH checked and unchecked builds -- the
//     checking layer must never perturb execution.
//   * Teardown: Server destruction with in-flight requests and ThreadPool
//     reuse/destruction after a throwing region, exercising the
//     swap-then-join discipline (no lock held across join/notify).
//
// std::thread is banned outside src/parallel (darnet_analyze's
// thread-outside-parallel rule); cross-thread scenarios use
// parallel::ServiceThread and the serve tier's own workers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "nn/dense.hpp"
#include "nn/sequential.hpp"
#include "parallel/pool.hpp"
#include "serve/serve.hpp"
#include "sync/sync.hpp"
#include "util/rng.hpp"

namespace {

using namespace darnet;
using namespace std::chrono_literals;
using tensor::Tensor;

constexpr int kFeatures = 4;
constexpr int kClasses = 6;

// -- Held-lock stack ---------------------------------------------------------

TEST(SyncMutex, HeldStackIntrospection) {
  sync::Mutex mu{"test/introspect"};
  EXPECT_FALSE(sync::held_by_current_thread(mu));
  {
    sync::Lock lock(mu);
    if (sync::enabled()) {
      EXPECT_TRUE(sync::held_by_current_thread(mu));
      EXPECT_GE(sync::held_count(), 1);
    }
    // The assertion macros must pass in every build mode.
    DARNET_ASSERT_HELD(mu);
  }
  EXPECT_FALSE(sync::held_by_current_thread(mu));
  DARNET_ASSERT_NOT_HELD(mu);
}

TEST(SyncMutex, TryLockAndUniqueLockOwnership) {
  sync::Mutex mu{"test/trylock"};
  ASSERT_TRUE(mu.try_lock());
  DARNET_ASSERT_HELD(mu);
  mu.unlock();

  sync::UniqueLock lock(mu);
  EXPECT_TRUE(lock.owns_lock());
  lock.unlock();
  EXPECT_FALSE(lock.owns_lock());
  DARNET_ASSERT_NOT_HELD(mu);
  lock.lock();
  EXPECT_TRUE(lock.owns_lock());
}

TEST(SyncMutex, OrderEdgesAreRecorded) {
  if (!sync::enabled()) GTEST_SKIP() << "order graph is checked-build only";
  const std::uint64_t before = sync::order_edge_count();
  sync::Mutex outer{"test/edge_outer"};
  sync::Mutex inner{"test/edge_inner"};
  {
    sync::Lock lo(outer);
    sync::Lock li(inner);
  }
  EXPECT_GT(sync::order_edge_count(), before);
}

// -- Zero-cost proof ---------------------------------------------------------

TEST(SyncZeroCost, UncheckedAssertionsEvaluateNothing) {
  sync::Mutex mu{"test/zero_cost"};
  int evaluations = 0;
  const auto touch = [&]() -> sync::Mutex& {
    ++evaluations;
    return mu;
  };
  {
    sync::Lock lock(mu);
    DARNET_ASSERT_HELD(touch());
    EXPECT_EQ(evaluations, sync::enabled() ? 1 : 0)
        << "DARNET_ASSERT_HELD must not evaluate its argument when "
           "DARNET_CHECKED is off";
  }
  DARNET_ASSERT_NOT_HELD(touch());
  EXPECT_EQ(evaluations, sync::enabled() ? 2 : 0);
}

// -- Abort paths (death tests) -----------------------------------------------

TEST(SyncDeathTest, LockOrderInversionAborts) {
  if (!sync::enabled()) GTEST_SKIP() << "aborts are checked-build only";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto inversion = [] {
    sync::reset_order_graph_for_test();
    sync::Mutex a{"test/order_a"};
    sync::Mutex b{"test/order_b"};
    {
      sync::Lock la(a);
      sync::Lock lb(b);  // establishes test/order_a -> test/order_b
    }
    sync::Lock lb(b);
    sync::Lock la(a);  // inversion: aborts with both acquisition sites
  };
  EXPECT_DEATH(inversion(),
               "darnet::sync failure.*lock-order cycle.*test/order_a");
  // The conflicting sites must both be attributed to this file.
  EXPECT_DEATH(inversion(), "test_sync\\.cpp");
}

TEST(SyncDeathTest, AssertHeldViolationAborts) {
  if (!sync::enabled()) GTEST_SKIP() << "aborts are checked-build only";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sync::Mutex mu{"test/assert_held"};
  EXPECT_DEATH(DARNET_ASSERT_HELD(mu),
               "DARNET_ASSERT_HELD.*test/assert_held.*test_sync\\.cpp");
  const auto not_held_violation = [&] {
    sync::Lock lock(mu);
    DARNET_ASSERT_NOT_HELD(mu);
  };
  EXPECT_DEATH(not_held_violation(),
               "DARNET_ASSERT_NOT_HELD.*test/assert_held");
}

TEST(SyncDeathTest, RecursiveAcquisitionAborts) {
  if (!sync::enabled()) GTEST_SKIP() << "aborts are checked-build only";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto recursive = [] {
    sync::Mutex mu{"test/recursive"};
    sync::Lock first(mu);
    sync::Lock second(mu);  // std::mutex would deadlock; we abort
  };
  EXPECT_DEATH(recursive(), "darnet::sync failure.*test/recursive");
}

TEST(SyncDeathTest, SameNameNestingAborts) {
  if (!sync::enabled()) GTEST_SKIP() << "aborts are checked-build only";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto same_rank = [] {
    // Two instances sharing one name share one lock-order rank; nesting
    // them is an ordering violation even though the instances differ.
    sync::Mutex shard_a{"test/shard"};
    sync::Mutex shard_b{"test/shard"};
    sync::Lock la(shard_a);
    sync::Lock lb(shard_b);
  };
  EXPECT_DEATH(same_rank(), "darnet::sync failure.*test/shard");
}

// -- CondVar: predicate waits and the watchdog -------------------------------

TEST(SyncCondVar, CrossThreadSignal) {
  sync::Mutex mu{"test/signal"};
  sync::CondVar cv;
  bool ready DARNET_GUARDED_BY(mu) = false;
  parallel::ServiceThread producer([&] {
    sync::Lock lock(mu);
    ready = true;
    cv.notify_one();
  });
  {
    sync::UniqueLock lock(mu);
    cv.wait(lock, [&] { return ready; });
    EXPECT_TRUE(ready);
    DARNET_ASSERT_HELD(mu);  // wait re-acquires before returning
  }
  producer.join();
}

TEST(SyncCondVar, WatchdogTripsOnOverlongWait) {
  if (!sync::enabled()) GTEST_SKIP() << "watchdog is checked-build only";
  const sync::WatchdogConfig previous = sync::wait_watchdog();
  sync::set_wait_watchdog({/*bound_us=*/2000, /*fatal=*/false});
  const std::uint64_t before = sync::watchdog_trips();
  {
    sync::Mutex mu{"test/watchdog"};
    sync::CondVar cv;
    bool released DARNET_GUARDED_BY(mu) = false;
    // The predicate turns true only ~20ms in, so the wait outlasts the 2ms
    // bound and the watchdog must flag a potential lost wakeup (warn, not
    // abort) before the wait returns.
    parallel::ServiceThread releaser([&] {
      std::this_thread::sleep_for(20ms);
      {
        sync::Lock lock(mu);
        released = true;
      }
      cv.notify_one();
    });
    {
      sync::UniqueLock lock(mu);
      cv.wait(lock, [&] { return released; });
      EXPECT_TRUE(released);
    }
    releaser.join();
  }
  EXPECT_GT(sync::watchdog_trips(), before);
  sync::set_wait_watchdog(previous);
}

// -- Build-mode parity golden ------------------------------------------------

/// FNV-1a over the bit patterns of a float span (plus fold-ins for ints):
/// bit-exact equality proxy that is stable across build modes.
struct BitHash {
  std::uint64_t state = 1469598103934665603ull;
  void fold(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      state ^= (v >> (8 * i)) & 0xffu;
      state *= 1099511628211ull;
    }
  }
  void fold_floats(std::span<const float> values) {
    for (const float f : values) {
      std::uint32_t bits = 0;
      static_assert(sizeof bits == sizeof f);
      __builtin_memcpy(&bits, &f, sizeof bits);
      fold(bits);
    }
  }
};

std::shared_ptr<engine::EnsembleClassifier> make_dense_ensemble() {
  util::Rng rng(2024);
  auto model = std::make_shared<nn::Sequential>();
  model->emplace<nn::Dense>(kFeatures, kClasses, rng);
  auto frames =
      std::make_shared<engine::NeuralClassifier>(model, kClasses, "dense");
  return std::make_shared<engine::EnsembleClassifier>(
      frames, nullptr, bayes::ClassMap::darnet_default());
}

TEST(SyncParity, ServedPipelineBitIdenticalAcrossBuildModes) {
  // The same deterministic serve run is executed by the checked and the
  // unchecked build of this test; both must reproduce one golden hash, so
  // the sync layer (lock-order bookkeeping, CV wait slicing, watchdog)
  // provably never changes what the code under it computes.
  serve::ShardConfig config;
  config.max_batch = 4;
  serve::Server server(make_dense_ensemble(), config);

  util::Rng rng(7);
  std::vector<std::future<serve::Response>> futures;
  for (int i = 0; i < 24; ++i) {
    engine::ClassifyRequest request;
    request.session_id = static_cast<std::uint64_t>(i % 3);
    request.frame = Tensor::uniform({1, kFeatures}, 1.0f, rng);
    auto submission = server.submit(std::move(request));
    ASSERT_EQ(submission.admit, serve::Admit::kAccepted);
    futures.push_back(std::move(submission.response));
  }

  BitHash hash;
  for (auto& future : futures) {
    const serve::Response response = future.get();
    ASSERT_EQ(response.status, serve::Status::kOk);
    hash.fold(static_cast<std::uint64_t>(response.result.verdict.predicted));
    hash.fold(response.result.verdict.alert ? 1 : 0);
    const Tensor& dist = response.result.verdict.distribution;
    hash.fold_floats(
        std::span<const float>(dist.data(), static_cast<std::size_t>(
                                                dist.numel())));
  }
  server.drain();

  constexpr std::uint64_t kGolden = 0x578b35c99211505aull;
  EXPECT_EQ(hash.state, kGolden)
      << "served-pipeline bit hash diverged: 0x" << std::hex << hash.state;
}

// -- Teardown under held-lock invariants -------------------------------------

/// Blocks inside probabilities() until release(), exactly like the serve
/// tests' gate: lets a teardown overlap an in-flight batch.
struct GatedClassifier final : engine::ProbabilisticClassifier {
  sync::Mutex mu{"test/gate"};
  sync::CondVar cv;
  int entered DARNET_GUARDED_BY(mu){0};
  bool open DARNET_GUARDED_BY(mu){true};

  Tensor probabilities(const Tensor& inputs) override {
    sync::UniqueLock lock(mu);
    ++entered;
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
  void await_entered(int n) {
    sync::UniqueLock lock(mu);
    cv.wait(lock, [&] { return entered >= n; });
  }
};

TEST(SyncTeardown, ServerDestructionWithInflightRequests) {
  auto gate = std::make_shared<GatedClassifier>();
  auto ensemble = std::make_shared<engine::EnsembleClassifier>(
      gate, nullptr, bayes::ClassMap::darnet_default());
  serve::ShardConfig config;
  config.max_batch = 2;
  serve::Server server(ensemble, config);

  gate->close_gate();
  Tensor frame({1, kFeatures});
  frame.fill(0.5f);
  std::vector<std::future<serve::Response>> futures;
  for (int i = 0; i < 6; ++i) {
    engine::ClassifyRequest request;
    request.session_id = static_cast<std::uint64_t>(i);
    request.frame = frame;
    futures.push_back(server.submit(std::move(request)).response);
  }
  gate->await_entered(1);  // a batch is now inside the model

  // Open the gate from a second thread while drain() is joining: the
  // destructor-path teardown must hold no lock across the notify/join
  // (DARNET_ASSERT_NOT_HELD inside drain()), or this interleaving hangs.
  parallel::ServiceThread releaser([gate] { gate->release(); });
  server.drain();
  releaser.join();

  for (auto& future : futures) {
    const serve::Response response = future.get();  // every future resolves
    EXPECT_TRUE(response.status == serve::Status::kOk ||
                response.status == serve::Status::kRejected ||
                response.status == serve::Status::kTimeout)
        << "unexpected status " << serve::status_name(response.status);
  }
}

TEST(SyncTeardown, PoolSurvivesThrowingRegionThenDestructs) {
  parallel::ThreadPool pool(2);
  EXPECT_THROW(
      pool.for_range(0, 128, 1,
                     [](std::int64_t, std::int64_t) {
                       throw std::runtime_error("chunk failure");
                     }),
      std::runtime_error);

  // The pool must remain fully usable after a failed region...
  std::atomic<std::int64_t> covered{0};
  pool.for_range(0, 128, 1, [&](std::int64_t b, std::int64_t e) {
    covered.fetch_add(e - b, std::memory_order_relaxed);
  });
  EXPECT_EQ(covered.load(), 128);
  // ...and its destructor joins the workers with no lock held (the
  // swap-then-join discipline is asserted inside ~ThreadPool).
}

// -- Stress (the check.sh sync-stress leg runs this under tsan) --------------

TEST(SyncStress, ContendedProducersAndCondvarHandoff) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  sync::Mutex mu{"test/stress"};
  sync::CondVar cv;
  int tokens DARNET_GUARDED_BY(mu) = 0;
  int produced DARNET_GUARDED_BY(mu) = 0;

  std::vector<parallel::ServiceThread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        {
          sync::Lock lock(mu);
          ++tokens;
          ++produced;
        }
        cv.notify_one();
      }
    });
  }

  int consumed = 0;
  while (consumed < kProducers * kPerProducer) {
    sync::UniqueLock lock(mu);
    cv.wait(lock, [&] { return tokens > 0; });
    consumed += tokens;
    tokens = 0;
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(consumed, kProducers * kPerProducer);

  // Mixed-in parallel_for keeps the pool's own locks in the picture.
  std::atomic<std::int64_t> sum{0};
  parallel::parallel_for(0, 1000, 16, [&](std::int64_t b, std::int64_t e) {
    sum.fetch_add(e - b, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 1000);
}

}  // namespace
