// Tests for the data-collection middleware: event simulation, device
// clocks, virtual links, wire messages, time-series store, and the
// agent/controller protocols (registration, batching, clock sync).
#include <gtest/gtest.h>

#include <cmath>

#include "collection/agent.hpp"
#include "collection/controller.hpp"
#include "collection/messages.hpp"
#include "collection/sensor.hpp"
#include "collection/store.hpp"
#include "sim/clock.hpp"
#include "sim/link.hpp"
#include "sim/queue.hpp"

namespace {

using namespace darnet::collection;
namespace sim = darnet::sim;

TEST(Simulation, RunsEventsInTimeOrder) {
  sim::Simulation sim;
  std::vector<int> order;
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulation, SameTimeEventsRunFifo) {
  sim::Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, HandlersCanScheduleMoreEvents) {
  sim::Simulation sim;
  int fired = 0;
  std::function<void()> tick = [&] {
    ++fired;
    if (fired < 5) sim.schedule_in(1.0, tick);
  };
  sim.schedule(0.0, tick);
  sim.run_until(10.0);
  EXPECT_EQ(fired, 5);
}

TEST(Simulation, HorizonStopsFutureEvents) {
  sim::Simulation sim;
  int fired = 0;
  sim.schedule(5.0, [&] { ++fired; });
  sim.run_until(4.0);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(6.0);
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, RejectsPastAndNull) {
  sim::Simulation sim;
  sim.run_until(5.0);
  EXPECT_THROW(sim.schedule(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule(6.0, nullptr), std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), std::invalid_argument);
}

TEST(DeviceClock, DriftAccumulates) {
  sim::SimClock clock(/*drift_ppm=*/1000.0);  // 1 ms per second
  EXPECT_NEAR(clock.error(10.0), 0.01, 1e-9);
  EXPECT_NEAR(clock.read(10.0), 10.01, 1e-9);
}

TEST(DeviceClock, SetSlamsToMaster) {
  sim::SimClock clock(500.0, 0.3);
  clock.set(100.0, 100.002);  // master time + latency constant
  EXPECT_NEAR(clock.read(100.0), 100.002, 1e-12);
  // Drift resumes after the sync.
  EXPECT_NEAR(clock.error(101.0), 0.002 + 500e-6, 1e-9);
}

TEST(Messages, BatchRoundTrip) {
  DataBatch batch;
  batch.agent_id = 7;
  batch.readings.push_back({"imu.accel", 1.25, {1.0f, 2.0f, 3.0f}, 0});
  batch.readings.push_back({"camera", 1.5, std::vector<float>(16, 0.5f), 2});
  const auto bytes = encode(batch);
  EXPECT_EQ(peek_kind(bytes), MessageKind::kBatch);
  const DataBatch decoded = decode_batch(bytes);
  EXPECT_EQ(decoded.agent_id, 7u);
  ASSERT_EQ(decoded.readings.size(), 2u);
  EXPECT_EQ(decoded.readings[0].stream, "imu.accel");
  EXPECT_DOUBLE_EQ(decoded.readings[0].local_timestamp, 1.25);
  EXPECT_EQ(decoded.readings[0].values,
            (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_EQ(decoded.readings[1].tag, 2u);
}

TEST(Messages, KindTagPreventsCrossDecoding) {
  const auto bytes = encode(ClockSyncMessage{5.0});
  EXPECT_EQ(peek_kind(bytes), MessageKind::kClockSync);
  EXPECT_THROW((void)decode_batch(bytes), std::invalid_argument);
  EXPECT_THROW((void)peek_kind(std::vector<std::uint8_t>{}),
               std::invalid_argument);
  EXPECT_THROW((void)peek_kind(std::vector<std::uint8_t>{99}),
               std::invalid_argument);
}

TEST(Messages, RegisterRoundTrip) {
  RegisterMessage reg{3, {"camera", "imu.accel"}};
  const RegisterMessage decoded = decode_register(encode(reg));
  EXPECT_EQ(decoded.agent_id, 3u);
  EXPECT_EQ(decoded.streams, reg.streams);
}

TEST(VirtualLink, DeliversWithLatency) {
  sim::Simulation sim;
  sim::LinkConfig cfg;
  cfg.base_latency_s = 0.1;
  cfg.jitter_s = 0.0;
  sim::VirtualLink link(sim, cfg, 1);
  double delivered_at = -1.0;
  link.set_receiver([&](std::vector<std::uint8_t>) {
    delivered_at = sim.now();
  });
  link.send({1, 2, 3});
  sim.run_until(1.0);
  EXPECT_GT(delivered_at, 0.099);
  EXPECT_LT(delivered_at, 0.12);
  EXPECT_EQ(link.stats().messages_sent, 1u);
  EXPECT_EQ(link.stats().bytes_sent, 3u);
}

TEST(VirtualLink, BandwidthSerialisesLargeMessages) {
  sim::Simulation sim;
  sim::LinkConfig cfg;
  cfg.base_latency_s = 0.0;
  cfg.jitter_s = 0.0;
  cfg.bandwidth_bps = 8000.0;  // 1 kB/s
  sim::VirtualLink link(sim, cfg, 2);
  std::vector<double> deliveries;
  link.set_receiver([&](std::vector<std::uint8_t>) {
    deliveries.push_back(sim.now());
  });
  link.send(std::vector<std::uint8_t>(500, 0));  // 0.5 s of airtime
  link.send(std::vector<std::uint8_t>(500, 0));  // queued behind the first
  sim.run_until(5.0);
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_NEAR(deliveries[0], 0.5, 0.01);
  EXPECT_NEAR(deliveries[1], 1.0, 0.01);
}

TEST(VirtualLink, LossDropsDeterministically) {
  sim::Simulation sim;
  sim::LinkConfig cfg;
  cfg.loss_rate = 0.5;
  sim::VirtualLink link(sim, cfg, 3);
  int received = 0;
  link.set_receiver([&](std::vector<std::uint8_t>) { ++received; });
  for (int i = 0; i < 200; ++i) link.send({0});
  sim.run_until(10.0);
  EXPECT_EQ(link.stats().messages_dropped,
            link.stats().messages_sent - static_cast<std::uint64_t>(received));
  EXPECT_GT(link.stats().messages_dropped, 60u);
  EXPECT_LT(link.stats().messages_dropped, 140u);
}

TEST(Store, AppendKeepsTimestampOrderUnderOutOfOrderArrival) {
  TimeSeriesStore store;
  store.append("s", {2.0, {2.0f}, 0});
  store.append("s", {1.0, {1.0f}, 0});
  store.append("s", {3.0, {3.0f}, 0});
  const auto& series = store.series("s");
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0].timestamp, 1.0);
  EXPECT_DOUBLE_EQ(series[2].timestamp, 3.0);
}

TEST(Store, InterpolationIsExactOnLinearSignals) {
  TimeSeriesStore store;
  for (int i = 0; i <= 10; ++i) {
    const double t = i * 0.5;
    store.append("lin", {t, {static_cast<float>(3.0 * t + 1.0)}, 0});
  }
  for (double t = 0.1; t < 5.0; t += 0.37) {
    const auto v = store.interpolate("lin", t);
    ASSERT_TRUE(v.has_value());
    EXPECT_NEAR((*v)[0], 3.0 * t + 1.0, 1e-4);
  }
}

TEST(Store, InterpolationRefusesFarExtrapolation) {
  TimeSeriesStore store;
  store.append("s", {1.0, {1.0f}, 0});
  store.append("s", {2.0, {2.0f}, 0});
  EXPECT_TRUE(store.interpolate("s", 2.1).has_value());   // within tolerance
  EXPECT_FALSE(store.interpolate("s", 5.0).has_value());  // far beyond
  EXPECT_FALSE(store.interpolate("missing", 1.0).has_value());
}

TEST(Store, NearestPicksClosestSampleWithoutBlending) {
  TimeSeriesStore store;
  store.append("s", {1.0, {10.0f}, 0});
  store.append("s", {2.0, {20.0f}, 0});
  EXPECT_EQ((*store.nearest("s", 1.4))[0], 10.0f);
  EXPECT_EQ((*store.nearest("s", 1.6))[0], 20.0f);
  EXPECT_EQ((*store.nearest("s", 0.8))[0], 10.0f);
  // Beyond tolerance or unknown stream: nothing.
  EXPECT_FALSE(store.nearest("s", 5.0, 0.5).has_value());
  EXPECT_FALSE(store.nearest("missing", 1.0).has_value());
}

TEST(Store, SmoothingAveragesWindow) {
  TimeSeriesStore store;
  // Alternating +1/-1 at 10 Hz: a 0.5 s window must average near zero.
  for (int i = 0; i < 50; ++i) {
    store.append("noisy", {i * 0.1, {(i % 2 == 0) ? 1.0f : -1.0f}, 0});
  }
  const auto smooth = store.smoothed("noisy", 3.0, 0.5);
  ASSERT_TRUE(smooth.has_value());
  EXPECT_NEAR((*smooth)[0], 0.0, 0.34);
  const auto raw = store.interpolate("noisy", 3.0);
  EXPECT_NEAR(std::abs((*raw)[0]), 1.0, 1e-5);
}

TEST(Store, AlignedConcatenatesStreamsOnUniformGrid) {
  TimeSeriesStore store;
  for (int i = 0; i <= 40; ++i) {
    const double t = i * 0.05;  // 20 Hz
    store.append("a", {t, {static_cast<float>(t)}, 0});
  }
  for (int i = 0; i <= 20; ++i) {
    const double t = i * 0.1;  // 10 Hz
    store.append("b", {t, {static_cast<float>(10.0 - t), 5.0f}, 0});
  }
  std::vector<double> grid;
  const auto rows = store.aligned({"a", "b"}, 0.0, 2.0, 0.25, 0.0, &grid);
  ASSERT_EQ(rows.size(), 8u);
  ASSERT_EQ(grid.size(), 8u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i].size(), 3u);  // 1 + 2 channels
    EXPECT_NEAR(rows[i][0], grid[i], 1e-4);
    EXPECT_NEAR(rows[i][1], 10.0 - grid[i], 1e-4);
    EXPECT_FLOAT_EQ(rows[i][2], 5.0f);
  }
}

TEST(Store, AlignedSkipsRowsWithMissingStreams) {
  TimeSeriesStore store;
  for (int i = 0; i <= 20; ++i) {
    store.append("full", {i * 0.1, {1.0f}, 0});
  }
  // "late" only starts at t=1.0.
  for (int i = 10; i <= 20; ++i) {
    store.append("late", {i * 0.1, {2.0f}, 0});
  }
  const auto rows = store.aligned({"full", "late"}, 0.0, 2.0, 0.1, 0.0);
  EXPECT_LT(rows.size(), 20u);
  EXPECT_GT(rows.size(), 5u);
}

TEST(Store, EvictionDropsOldTuples) {
  TimeSeriesStore store;
  for (int i = 0; i < 10; ++i) store.append("s", {double(i), {1.0f}, 0});
  EXPECT_EQ(store.total_tuples(), 10u);
  store.evict_before(5.0);
  EXPECT_EQ(store.count("s"), 5u);
  EXPECT_EQ(store.total_tuples(), 5u);
  EXPECT_DOUBLE_EQ(store.series("s").front().timestamp, 5.0);
}

TEST(Store, RejectsWidthChangesAndEmptyTuples) {
  TimeSeriesStore store;
  store.append("s", {0.0, {1.0f, 2.0f}, 0});
  EXPECT_THROW(store.append("s", {1.0, {1.0f}, 0}), std::invalid_argument);
  EXPECT_THROW(store.append("s", {2.0, {}, 0}), std::invalid_argument);
}

/// Wires one agent to one controller over configurable links.
struct Deployment {
  sim::Simulation sim;
  sim::VirtualLink up, down;
  Controller controller;
  CollectionAgent agent;

  explicit Deployment(AgentConfig agent_cfg, ControllerConfig ctrl_cfg = {},
                      sim::LinkConfig link_cfg = {})
      : up(sim, link_cfg, 11),
        down(sim, link_cfg, 12),
        controller(sim, ctrl_cfg),
        agent(sim, agent_cfg, up) {
    up.set_receiver([this](std::vector<std::uint8_t> b) {
      controller.on_message(b);
    });
    down.set_receiver([this](std::vector<std::uint8_t> b) {
      agent.on_message(b);
    });
    controller.attach_agent(agent_cfg.agent_id, down);
  }
};

TEST(AgentController, RegistrationAndDataFlow) {
  AgentConfig cfg;
  cfg.agent_id = 1;
  cfg.transmit_period_s = 0.2;
  Deployment d(cfg);
  int polls = 0;
  d.agent.add_sensor(std::make_unique<CallbackSensor>(
      "counter", 0.05, [&polls](sim::SimTime) {
        return std::vector<float>{static_cast<float>(++polls)};
      }));
  d.controller.start();
  d.agent.start();
  d.sim.run_until(2.0);

  EXPECT_EQ(d.controller.streams_of(1), (std::vector<std::string>{"counter"}));
  EXPECT_GT(d.controller.batches_received(), 5u);
  // ~40 polls in 2 s.
  EXPECT_NEAR(static_cast<double>(d.controller.store().count("counter")), 39.0,
              4.0);
}

TEST(AgentController, SizeTriggeredBatchingFlushesEarly) {
  AgentConfig cfg;
  cfg.agent_id = 1;
  cfg.transmit_period_s = 10.0;  // period alone would send almost nothing
  cfg.max_batch_bytes = 256;
  Deployment d(cfg);
  d.agent.add_sensor(std::make_unique<CallbackSensor>(
      "bulky", 0.05,
      [](sim::SimTime) { return std::vector<float>(32, 1.0f); }));
  d.controller.start();
  d.agent.start();
  d.sim.run_until(2.0);
  // 32 floats + framing ~= 150 bytes per reading: flush every ~2 readings.
  EXPECT_GT(d.controller.batches_received(), 10u);
  EXPECT_GT(d.controller.store().count("bulky"), 30u);
}

TEST(AgentController, PeriodOnlyBatchingWaitsForTimer) {
  AgentConfig cfg;
  cfg.agent_id = 1;
  cfg.transmit_period_s = 10.0;
  cfg.max_batch_bytes = 0;  // disabled
  Deployment d(cfg);
  d.agent.add_sensor(std::make_unique<CallbackSensor>(
      "bulky", 0.05,
      [](sim::SimTime) { return std::vector<float>(32, 1.0f); }));
  d.controller.start();
  d.agent.start();
  d.sim.run_until(2.0);
  EXPECT_EQ(d.controller.batches_received(), 0u);  // timer hasn't fired
}

TEST(AgentController, ClockSyncBoundsDriftError) {
  AgentConfig cfg;
  cfg.agent_id = 1;
  cfg.clock_drift_ppm = 5000.0;  // exaggerated: 5 ms per second
  cfg.clock_initial_offset_s = 0.25;
  cfg.latency_compensation_s = 0.015;
  ControllerConfig ctrl;
  ctrl.clock_sync_period_s = 1.0;
  Deployment d(cfg, ctrl);
  d.agent.add_sensor(std::make_unique<CallbackSensor>(
      "s", 0.1, [](sim::SimTime) { return std::vector<float>{0.0f}; }));
  d.controller.start();
  d.agent.start();
  d.sim.run_until(10.0);
  // Unsynchronised, the error would be 0.25 + 10 * 0.005 = 0.30 s. With
  // 1 Hz sync it must stay within a couple of drift periods + latency slop.
  EXPECT_LT(std::abs(d.agent.clock_error_now()), 0.02);
}

TEST(AgentController, NoSyncMeansErrorGrows) {
  AgentConfig cfg;
  cfg.agent_id = 1;
  cfg.clock_drift_ppm = 5000.0;
  ControllerConfig ctrl;
  ctrl.clock_sync_period_s = 1e9;  // effectively never
  Deployment d(cfg, ctrl);
  d.agent.add_sensor(std::make_unique<CallbackSensor>(
      "s", 0.1, [](sim::SimTime) { return std::vector<float>{0.0f}; }));
  d.controller.start();
  d.agent.start();
  d.sim.run_until(10.0);
  EXPECT_GT(std::abs(d.agent.clock_error_now()), 0.04);
}

TEST(AgentController, DuplicateAgentRejected) {
  sim::Simulation sim;
  sim::VirtualLink down(sim, {}, 1);
  Controller controller(sim, {});
  controller.attach_agent(1, down);
  EXPECT_THROW(controller.attach_agent(1, down), std::invalid_argument);
}

TEST(AgentController, ControllerRejectsClockSyncFromAgent) {
  sim::Simulation sim;
  Controller controller(sim, {});
  EXPECT_THROW(controller.on_message(encode(ClockSyncMessage{1.0})),
               std::logic_error);
}

TEST(AgentController, AgentLifecycleGuards) {
  sim::Simulation sim;
  sim::VirtualLink up(sim, {}, 1);
  up.set_receiver([](std::vector<std::uint8_t>) {});
  AgentConfig cfg;
  cfg.agent_id = 1;
  CollectionAgent agent(sim, cfg, up);
  agent.start();
  EXPECT_THROW(agent.start(), std::logic_error);
  EXPECT_THROW(agent.add_sensor(std::make_unique<CallbackSensor>(
                   "s", 0.1,
                   [](sim::SimTime) { return std::vector<float>{0.0f}; })),
               std::logic_error);
}

}  // namespace
