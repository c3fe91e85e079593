// Tests for the processing-placement decision and session record/replay.
#include <gtest/gtest.h>

#include <cstdio>

#include "collection/agent.hpp"
#include "collection/controller.hpp"
#include "collection/processing.hpp"
#include "collection/recording.hpp"

namespace {

using namespace darnet::collection;
namespace sim = darnet::sim;

TEST(NetworkEstimator, EwmaSmoothsMeasurements) {
  NetworkEstimator est(0.5);
  EXPECT_FALSE(est.has_estimate());
  est.observe(0.1, 1e6);
  EXPECT_DOUBLE_EQ(est.rtt_s(), 0.1);
  est.observe(0.3, 3e6);
  EXPECT_DOUBLE_EQ(est.rtt_s(), 0.2);       // midway at alpha 0.5
  EXPECT_DOUBLE_EQ(est.bandwidth_bps(), 2e6);
  EXPECT_THROW(est.observe(-1.0, 1e6), std::invalid_argument);
  EXPECT_THROW(NetworkEstimator(0.0), std::invalid_argument);
}

TEST(ProcessingDecision, GoodNetworkGoesRemote) {
  // Server is 20x faster; a fast link makes remote the clear winner.
  ComputeProfile profile;
  profile.local_inference_s = 0.080;
  profile.remote_inference_s = 0.004;
  profile.remote_payload_bytes = 2305;
  NetworkEstimator net;
  net.observe(0.010, 8e6);  // 10 ms RTT, 8 Mb/s
  ProcessingDecision decision(profile);
  EXPECT_EQ(decision.decide(net), Placement::kRemote);
  const double remote = predicted_latency_s(Placement::kRemote, profile, net);
  EXPECT_LT(remote, profile.local_inference_s);
}

TEST(ProcessingDecision, PoorNetworkStaysLocal) {
  ComputeProfile profile;
  NetworkEstimator net;
  net.observe(0.500, 5e4);  // 500 ms RTT, 50 kb/s: shipping is hopeless
  ProcessingDecision decision(profile);
  EXPECT_EQ(decision.decide(net), Placement::kLocal);
}

TEST(ProcessingDecision, NoEstimateMeansLocal) {
  ProcessingDecision decision(ComputeProfile{});
  NetworkEstimator net;
  EXPECT_EQ(decision.decide(net), Placement::kLocal);
  EXPECT_THROW(
      (void)predicted_latency_s(Placement::kRemote, ComputeProfile{}, net),
      std::logic_error);
}

TEST(ProcessingDecision, HysteresisPreventsFlapping) {
  // Construct a network where remote is only marginally better: the
  // policy must NOT switch away from local.
  ComputeProfile profile;
  profile.local_inference_s = 0.050;
  profile.remote_inference_s = 0.010;
  profile.remote_payload_bytes = 2305;
  NetworkEstimator net;
  // remote = rtt + transfer + 0.010; choose rtt so remote ~= 0.045.
  net.observe(0.030, 4e6);  // transfer ~4.6 ms -> remote ~0.0446
  ProcessingDecision decision(profile, /*switch_margin=*/0.2);
  EXPECT_EQ(decision.decide(net), Placement::kLocal);  // within margin

  // A clearly better network does flip it.
  NetworkEstimator fast;
  fast.observe(0.004, 40e6);
  EXPECT_EQ(decision.decide(fast), Placement::kRemote);
  // And a marginally-worse-than-local network does not flip it back.
  EXPECT_EQ(decision.decide(net), Placement::kRemote);
}

TEST(ProcessingDecision, EstimatorIngestsLinkStats) {
  sim::Simulation sim;
  sim::LinkConfig cfg;
  cfg.base_latency_s = 0.02;
  cfg.jitter_s = 0.0;
  sim::VirtualLink link(sim, cfg, 5);
  link.set_receiver([](std::vector<std::uint8_t>) {});
  link.send({1, 2, 3, 4});
  sim.run_until(1.0);

  NetworkEstimator est;
  est.observe_link(link);
  ASSERT_TRUE(est.has_estimate());
  EXPECT_NEAR(est.rtt_s(), 0.04, 0.01);
  EXPECT_DOUBLE_EQ(est.bandwidth_bps(), cfg.bandwidth_bps);
}

TEST(Recording, AppendValidatesOrderingAndPayload) {
  SessionRecording rec;
  rec.append(1.0, {1});
  EXPECT_THROW(rec.append(0.5, {2}), std::invalid_argument);
  EXPECT_THROW(rec.append(2.0, {}), std::invalid_argument);
  EXPECT_EQ(rec.size(), 1u);
  EXPECT_DOUBLE_EQ(rec.duration(), 1.0);
}

TEST(Recording, DrainDeliversEverythingInOrder) {
  SessionRecording rec;
  DataBatch batch;
  batch.agent_id = 1;
  batch.readings.push_back({"s", 0.5, {1.0f}, 0});
  rec.append(0.1, encode(RegisterMessage{1, {"s"}}));
  rec.append(0.6, encode(batch));

  sim::Simulation sim;
  Controller controller(sim, {});
  rec.drain_into(controller);
  EXPECT_EQ(controller.tuples_received(), 1u);
  EXPECT_EQ(controller.streams_of(1), (std::vector<std::string>{"s"}));
}

TEST(Recording, ReplayPreservesArrivalTiming) {
  SessionRecording rec;
  DataBatch batch;
  batch.agent_id = 1;
  batch.readings.push_back({"s", 1.0, {1.0f}, 0});
  rec.append(2.5, encode(batch));

  sim::Simulation sim;
  Controller controller(sim, {});
  rec.replay_into(sim, controller);
  sim.run_until(2.0);
  EXPECT_EQ(controller.tuples_received(), 0u);  // not yet
  sim.run_until(3.0);
  EXPECT_EQ(controller.tuples_received(), 1u);
}

TEST(Recording, SerializationAndFileRoundTrip) {
  SessionRecording rec;
  rec.append(0.5, {1, 2, 3});
  rec.append(1.5, std::vector<std::uint8_t>(300, 7));

  const std::string path = "/tmp/darnet_test_recording.bin";
  rec.save(path);
  const SessionRecording loaded = SessionRecording::load(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.messages()[0].arrival_time, 0.5);
  EXPECT_EQ(loaded.messages()[0].payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(loaded.messages()[1].payload.size(), 300u);
  std::remove(path.c_str());
}

TEST(Recording, TapRecordsWhileDelivering) {
  sim::Simulation sim;
  Controller controller(sim, {});
  SessionRecording rec;
  RecordingTap tap(sim, controller, rec);

  sim.schedule(1.0, [&] { tap(encode(RegisterMessage{3, {"x"}})); });
  sim.run_until(2.0);
  EXPECT_EQ(rec.size(), 1u);
  EXPECT_DOUBLE_EQ(rec.messages()[0].arrival_time, 1.0);
  EXPECT_EQ(controller.streams_of(3), (std::vector<std::string>{"x"}));
}

}  // namespace
