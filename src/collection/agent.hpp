// Collection agent: the per-device module of the data streaming framework.
//
// Each agent polls its sensors on their native periods, timestamps the
// tuples with its own (drifting) device clock, buffers them, and pushes a
// DataBatch to the controller on its transmission period. It also answers
// the controller's clock-synchronisation protocol: on receiving the
// master's time it sets its clock to master + measured one-way latency
// (Section 4.1, "timestamp manager ... master-slave architecture").
#pragma once

#include <memory>
#include <vector>

#include "collection/messages.hpp"
#include "collection/sensor.hpp"
#include "sim/clock.hpp"
#include "sim/link.hpp"
#include "sim/queue.hpp"

namespace darnet::collection {

struct AgentConfig {
  std::uint32_t agent_id{0};
  double transmit_period_s = 0.25;
  /// Transmit early once the buffered payload exceeds this (0 disables).
  /// "The transmission frequency should be determined based on the
  /// latency and bandwidth between the agent and the controller" (§3.1):
  /// bulky streams (camera frames) flush by size, chatty ones by period.
  std::size_t max_batch_bytes = 0;
  /// The empirically measured one-way network delay added to the master's
  /// time on sync (the paper's "plus the empirically measured network
  /// delay").
  double latency_compensation_s = 0.015;
  double clock_drift_ppm = 0.0;
  double clock_initial_offset_s = 0.0;
};

class CollectionAgent {
 public:
  /// `uplink` carries agent->controller traffic; the controller's sync
  /// messages arrive via on_message(). The agent registers itself on start.
  CollectionAgent(sim::Simulation& sim, AgentConfig config,
                  sim::VirtualLink& uplink);

  void add_sensor(std::unique_ptr<Sensor> sensor);

  /// Begin polling and transmitting. Call once after sensors are attached.
  void start();

  /// Stop scheduling further polls/transmissions after the current horizon.
  void stop() noexcept { running_ = false; }

  /// Deliver a controller->agent payload (clock sync).
  void on_message(std::span<const std::uint8_t> bytes);

  [[nodiscard]] const sim::SimClock& clock() const noexcept { return clock_; }
  [[nodiscard]] double clock_error_now() const noexcept {
    return clock_.error(sim_.now());
  }
  [[nodiscard]] std::uint32_t id() const noexcept { return config_.agent_id; }

  [[nodiscard]] std::uint64_t batches_sent() const noexcept {
    return batches_sent_;
  }

 private:
  void poll_sensor(std::size_t index);
  void flush();
  void transmit();

  sim::Simulation& sim_;
  AgentConfig config_;
  sim::VirtualLink& uplink_;
  sim::SimClock clock_;
  std::vector<std::unique_ptr<Sensor>> sensors_;
  std::vector<SensorReading> buffer_;
  std::size_t buffered_bytes_{0};
  std::uint64_t batches_sent_{0};
  bool running_{false};
  bool started_{false};
};

}  // namespace darnet::collection
