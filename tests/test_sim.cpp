// Fleet-simulator suite: determinism, virtual-link invariants, device
// clocks, the serve::TimeSource regression, and a 100-vehicle smoke run.
// See docs/SIMULATION.md for the contracts these pin down.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bayes/combiner.hpp"
#include "engine/engine.hpp"
#include "nn/dense.hpp"
#include "nn/sequential.hpp"
#include "obs/obs.hpp"
#include "serve/serve.hpp"
#include "sim/fleet.hpp"
#include "sim/link.hpp"
#include "sim/queue.hpp"
#include "sim/scenario.hpp"
#include "sim/vehicle.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace darnet;

// ---------------------------------------------------------------- queue

TEST(SimQueue, StableTieBreakAndHorizon) {
  sim::Simulation sim;
  std::vector<int> order;
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(1.0, [&] { order.push_back(2); });  // same instant: FIFO
  sim.schedule(0.5, [&] { order.push_back(0); });
  sim.schedule(5.0, [&] { order.push_back(9); });  // past the horizon
  sim.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.executed(), 3u);
  EXPECT_EQ(sim.pending(), 1u);  // the 5.0 event stays queued
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

// ---------------------------------------------------------------- clock

TEST(SimClock, DriftAccumulatesAndSyncZeroesError) {
  sim::SimClock clock(500.0, 0.002);  // +500 ppm, 2 ms ahead
  EXPECT_NEAR(clock.error(0.0), 0.002, 1e-12);
  // After 100 true seconds: 100 * 500e-6 = 50 ms of drift + the offset.
  EXPECT_NEAR(clock.error(100.0), 0.052, 1e-9);
  // A sync slams read(t) to the master's time; error vanishes at t...
  clock.set(100.0, 100.0);
  EXPECT_NEAR(clock.error(100.0), 0.0, 1e-12);
  // ...but the rate error is still there and re-accumulates.
  EXPECT_NEAR(clock.error(110.0), 10.0 * 500e-6, 1e-9);
}

TEST(SimClock, TimePointRoundTrip) {
  const double t = 1234.567891;
  EXPECT_NEAR(sim::to_sim_time(sim::to_time_point(t)), t, 1e-8);
  EXPECT_EQ(sim::to_time_point(0.0).time_since_epoch().count(), 0);
}

// ----------------------------------------------------------------- link

TEST(VirtualLink, LossyLinkConservesMessages) {
  sim::Simulation sim;
  sim::LinkConfig config;
  config.loss_rate = 0.3;
  config.jitter_s = 0.004;
  sim::VirtualLink link(sim, config, 7);

  std::uint64_t delivered = 0;
  bool corrupted = false;
  link.set_receiver([&](std::vector<std::uint8_t> payload) {
    ++delivered;
    if (payload.size() != 3 || payload[0] != 0xAB) corrupted = true;
  });
  const int kSends = 500;
  for (int i = 0; i < kSends; ++i) {
    sim.schedule(0.01 * i, [&] { link.send({0xAB, 0xCD, 0xEF}); });
  }
  sim.run_until(100.0);

  const sim::LinkStats& stats = link.stats();
  EXPECT_EQ(stats.messages_sent, static_cast<std::uint64_t>(kSends));
  EXPECT_EQ(stats.messages_sent - stats.messages_dropped, delivered);
  EXPECT_GT(stats.messages_dropped, 0u);  // 0.3 loss over 500 sends
  EXPECT_LT(stats.messages_dropped, static_cast<std::uint64_t>(kSends));
  EXPECT_FALSE(corrupted);
  EXPECT_EQ(stats.bytes_sent, static_cast<std::uint64_t>(kSends) * 3u);
}

TEST(VirtualLink, ReorderHoldBackInvertsDeliveryOrder) {
  sim::Simulation sim;
  sim::LinkConfig config;
  config.jitter_s = 0.0;
  config.reorder_rate = 0.5;
  config.reorder_delay_s = 0.2;  // >> the 0.01 s send spacing below
  sim::VirtualLink link(sim, config, 11);
  link.set_receiver([](std::vector<std::uint8_t>) {});
  for (int i = 0; i < 200; ++i) {
    sim.schedule(0.01 * i, [&] { link.send({1}); });
  }
  sim.run_until(100.0);
  EXPECT_GT(link.stats().messages_reordered, 0u);
  EXPECT_GT(link.stats().messages_out_of_order, 0u);
  EXPECT_EQ(link.stats().messages_dropped, 0u);
}

TEST(VirtualLink, SameSeedSameDeliverySchedule) {
  const auto run = [](std::uint64_t seed) {
    sim::Simulation sim;
    sim::LinkConfig config;
    config.loss_rate = 0.1;
    config.jitter_s = 0.01;
    sim::VirtualLink link(sim, config, seed);
    std::vector<double> times;
    link.set_receiver(
        [&](std::vector<std::uint8_t>) { times.push_back(sim.now()); });
    for (int i = 0; i < 100; ++i) {
      sim.schedule(0.02 * i, [&] { link.send({42}); });
    }
    sim.run_until(50.0);
    return times;
  };
  EXPECT_EQ(run(3), run(3));
  EXPECT_NE(run(3), run(4));
}

// ----------------------------------------------------- load curve shapes

TEST(LoadCurve, BurstAndDiurnalShapes) {
  sim::LoadCurve burst;
  burst.kind = sim::LoadCurve::Kind::kBurst;
  burst.burst_factor = 10.0;
  burst.burst_start_s = 4.0;
  burst.burst_end_s = 7.0;
  EXPECT_DOUBLE_EQ(burst.factor(3.9), 1.0);
  EXPECT_DOUBLE_EQ(burst.factor(5.0), 10.0);
  EXPECT_DOUBLE_EQ(burst.factor(7.0), 1.0);  // window is half-open

  sim::LoadCurve diurnal;
  diurnal.kind = sim::LoadCurve::Kind::kDiurnal;
  diurnal.diurnal_min = 0.25;
  diurnal.diurnal_max = 2.5;
  diurnal.diurnal_period_s = 10.0;
  EXPECT_NEAR(diurnal.factor(0.0), 0.25, 1e-9);   // trough at t=0
  EXPECT_NEAR(diurnal.factor(5.0), 2.5, 1e-9);    // peak at half-period
  EXPECT_NEAR(diurnal.factor(10.0), 0.25, 1e-9);  // back to the trough
}

// ------------------------------------------- serve::TimeSource regression

class FakeTimeSource final : public serve::TimeSource {
 public:
  [[nodiscard]] std::chrono::steady_clock::time_point now()
      const noexcept override {
    return tp_;
  }
  void set(double sim_seconds) { tp_ = sim::to_time_point(sim_seconds); }

 private:
  std::chrono::steady_clock::time_point tp_{sim::to_time_point(1.0)};
};

std::shared_ptr<engine::EnsembleClassifier> tiny_ensemble() {
  util::Rng rng(5);
  auto model = std::make_shared<nn::Sequential>();
  model->emplace<nn::Dense>(8, 6, rng);
  auto frames =
      std::make_shared<engine::NeuralClassifier>(model, 6, "tiny");
  return std::make_shared<engine::EnsembleClassifier>(
      frames, nullptr, bayes::ClassMap::darnet_default());
}

// The server must read the injected clock for deadline triage -- never
// std::chrono::steady_clock directly. The fake clock sits at 1 s past
// epoch while the real steady clock is far beyond that, so a deadline a
// second into *virtual* time discriminates: one hidden wall-clock read
// and this request would be triaged as hours past due and time out.
TEST(ServeTimeSource, DeadlinesAreJudgedOnTheInjectedClock) {
  auto time = std::make_shared<FakeTimeSource>();
  time->set(1.0);
  ASSERT_GT(std::chrono::steady_clock::now().time_since_epoch().count(),
            sim::to_time_point(2.0).time_since_epoch().count())
      << "host steady clock too young for this regression to discriminate";

  serve::ShardConfig config;
  config.time_source = time;
  serve::Server server(tiny_ensemble(), config);

  util::Rng rng(9);
  engine::ClassifyRequest request;
  request.session_id = 1;
  request.frame = tensor::Tensor::uniform({1, 8}, 1.0f, rng);
  request.deadline = sim::to_time_point(2.0);  // 1 virtual second away

  auto sub = server.submit(request);
  ASSERT_EQ(sub.admit, serve::Admit::kAccepted);
  EXPECT_EQ(sub.response.get().status, serve::Status::kOk);

  // And a deadline in the virtual past must time out, served by the same
  // injected clock.
  request.deadline = sim::to_time_point(0.5);
  auto late = server.submit(request);
  ASSERT_EQ(late.admit, serve::Admit::kAccepted);
  EXPECT_EQ(late.response.get().status, serve::Status::kTimeout);
  server.drain();
}

TEST(ServeTimeSource, ForceDegradedOverridesHysteresis) {
  serve::ShardConfig config;
  auto ensemble = tiny_ensemble();
  serve::Server server(ensemble, config);
  EXPECT_FALSE(server.degraded_mode());
  server.force_degraded(true);
  EXPECT_TRUE(server.degraded_mode());
  server.force_degraded(std::nullopt);
  EXPECT_FALSE(server.degraded_mode());  // hysteresis resumes control
  server.drain();
}

// ------------------------------------------------------ scenario catalogue

TEST(Scenario, CatalogueIsCompleteAndFindable) {
  const std::vector<std::string> expected = {
      "steady",      "burst",         "diurnal",          "churn",
      "clock_storm", "degraded_flap", "overload_brownout"};
  ASSERT_EQ(sim::scenarios().size(), expected.size());
  for (const std::string& name : expected) {
    const sim::Scenario* scenario = sim::find_scenario(name);
    ASSERT_NE(scenario, nullptr) << name;
    EXPECT_EQ(scenario->name, name);
    EXPECT_FALSE(scenario->stresses.empty()) << name;
    const sim::ScenarioConfig config = scenario->make(3, 1);
    EXPECT_EQ(config.name, name);
    EXPECT_EQ(config.sessions, 3);
  }
  EXPECT_EQ(sim::find_scenario("no-such-scenario"), nullptr);
}

TEST(Scenario, SetDurationRescalesTimedFeatures) {
  sim::ScenarioConfig config = sim::find_scenario("burst")->make(2, 1);
  const double ratio = 5.0 / config.duration_s;
  const double start = config.load.burst_start_s;
  const double end = config.load.burst_end_s;
  sim::set_duration(config, 5.0);
  EXPECT_DOUBLE_EQ(config.duration_s, 5.0);
  EXPECT_DOUBLE_EQ(config.load.burst_start_s, start * ratio);
  EXPECT_DOUBLE_EQ(config.load.burst_end_s, end * ratio);
  EXPECT_THROW(sim::set_duration(config, 0.0), std::invalid_argument);
}

// ------------------------------------------------------------ fleet runs

TEST(FleetSimulator, SameSeedBitIdenticalExport) {
  const auto run = [](std::uint64_t seed) {
    sim::ScenarioConfig config = sim::find_scenario("steady")->make(25, seed);
    sim::set_duration(config, 3.0);
    sim::FleetSimulator fleet(config);
    fleet.run();
    return fleet.metrics_json();
  };
  const std::string a = run(42);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, run(42));   // the determinism contract, bit-for-bit
  EXPECT_NE(a, run(43));   // and the seed actually reaches the run
}

TEST(FleetSimulator, HundredVehicleSmoke) {
  sim::ScenarioConfig config = sim::find_scenario("steady")->make(100, 42);
  sim::set_duration(config, 4.0);
  sim::FleetSimulator fleet(config);
  fleet.run();

  const sim::FleetReport& report = fleet.report();
  EXPECT_GT(report.events_executed, 0u);
  EXPECT_GT(report.requests, 0u);
  EXPECT_GT(report.served, 0u);
  EXPECT_EQ(report.requests,
            report.served + report.timeouts + report.shed + report.rejected);
  EXPECT_GT(report.messages_sent, 0u);
  EXPECT_GT(report.latency_p50_ms, 0.0);
  EXPECT_GE(report.latency_p99_ms, report.latency_p50_ms);
  EXPECT_GE(report.latency_max_ms, report.latency_p99_ms);
  // Steady-state: clean links, mild clocks.
  EXPECT_EQ(report.messages_dropped, 0u);
  EXPECT_LT(report.clock_max_abs_error_ms, 50.0);
  EXPECT_GT(report.clock_probes, 0u);

  std::uint64_t verdict_total = 0;
  for (const std::uint64_t count : report.verdicts) verdict_total += count;
  EXPECT_EQ(verdict_total, report.served);

  // The run flows through the production obs registry like the real tier.
  if (obs::enabled()) {
    const std::string json = obs::registry().to_json();
    EXPECT_NE(json.find("sim/"), std::string::npos);
    EXPECT_NE(json.find("serve/"), std::string::npos);
  }
}

TEST(FleetSimulator, DegradedFlapTogglesTheServePath) {
  sim::ScenarioConfig config =
      sim::find_scenario("degraded_flap")->make(10, 42);
  sim::set_duration(config, 4.0);
  sim::FleetSimulator fleet(config);
  fleet.run();
  const sim::FleetReport& report = fleet.report();
  ASSERT_GT(report.served, 0u);
  EXPECT_GT(report.degraded, 0u);             // the flap engaged
  EXPECT_LT(report.degraded, report.served);  // ...and disengaged
}

TEST(FleetSimulator, OverloadBrownoutClipsAtTheQuotaFloor) {
  sim::ScenarioConfig config =
      sim::find_scenario("overload_brownout")->make(20, 42);
  sim::set_duration(config, 3.0);
  sim::FleetSimulator fleet(config);
  fleet.run();

  const sim::FleetReport& report = fleet.report();
  ASSERT_GT(report.requests, 0u);
  // At 40 Hz the first inferences fire before any frame is delivered, so
  // skipped requests are part of the ledger here.
  EXPECT_EQ(report.requests, report.served + report.timeouts + report.shed +
                                 report.rejected + report.skipped);
  // Brown-out, not black-out: the bulk of the 10x offered load is clipped
  // at the router door...
  EXPECT_GT(report.rejected, report.served);
  EXPECT_EQ(report.quota_rejected, report.rejected);
  // ...while the admitted floor keeps flowing. The quota refills at the
  // nominal 1x aggregate; demand saturates the buckets, so served traffic
  // must reach at least half the nominal rate over the run.
  const double floor = 0.5 * config.tenant_refill_per_s *
                       static_cast<double>(config.tenants) *
                       config.duration_s;
  EXPECT_GE(static_cast<double>(report.served), floor);
  // Both shards took traffic (consistent hashing spread 20 sessions).
  const serve::Router::Stats stats = fleet.router().stats();
  ASSERT_EQ(stats.per_shard.size(), 2u);
  EXPECT_GT(stats.per_shard[0].batches, 0u);
  EXPECT_GT(stats.per_shard[1].batches, 0u);
  EXPECT_EQ(stats.quota_rejected, report.quota_rejected);
}

TEST(FleetSimulator, BrownoutSameSeedBitIdenticalExport) {
  const auto run = [] {
    sim::ScenarioConfig config =
        sim::find_scenario("overload_brownout")->make(10, 7);
    sim::set_duration(config, 2.0);
    sim::FleetSimulator fleet(config);
    fleet.run();
    return fleet.metrics_json();
  };
  const std::string a = run();
  EXPECT_NE(a.find("\"quota_rejected\""), std::string::npos);
  EXPECT_EQ(a, run());  // routing + quotas stay on the determinism contract
}

TEST(FleetSimulator, ClockStormKeepsErrorBoundedBySync) {
  sim::ScenarioConfig config =
      sim::find_scenario("clock_storm")->make(10, 42);
  sim::set_duration(config, 6.0);
  sim::FleetSimulator fleet(config);
  fleet.run();
  const sim::FleetReport& report = fleet.report();
  EXPECT_GT(report.clock_probes, 0u);
  EXPECT_GT(report.clock_mean_abs_error_ms, 0.0);
  // 2000 ppm + 50 ms initial offset, sync every 10 s: error stays within
  // offset + drift-per-sync-interval, far under an unsynced free run.
  EXPECT_LT(report.clock_max_abs_error_ms, 100.0);
  EXPECT_GT(report.out_of_sequence, 0u);  // reordering reached the tap
}

}  // namespace
