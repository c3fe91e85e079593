// Centralized controller (Sections 3.2 / 4.1).
//
// Responsibilities, per the paper: aggregate/smooth/align data received
// from the agents, maintain clock synchronisation (master-slave: the
// controller distributes its UTC every sync period), and decide where data
// is processed (local vs remote; the deployed system ships everything to a
// remote server, optionally down-sampled for privacy).
#pragma once

#include <map>
#include <optional>

#include "collection/messages.hpp"
#include "collection/store.hpp"
#include "sim/link.hpp"
#include "sim/queue.hpp"

namespace darnet::collection {

enum class ProcessingMode { kLocal, kRemote };

struct ControllerConfig {
  /// "this synchronization process is repeated every 5 seconds" (§4.1).
  double clock_sync_period_s = 5.0;
  /// Sliding moving-average window applied during normalization.
  double smoothing_window_s = 0.2;
  /// Grid step for aligned output (4 Hz, the RNN's input rate).
  double alignment_dt_s = 0.25;
  ProcessingMode mode = ProcessingMode::kRemote;
};

class Controller {
 public:
  Controller(sim::Simulation& sim, ControllerConfig config);

  /// Attach an agent's downlink (controller -> agent, used for clock sync).
  void attach_agent(std::uint32_t agent_id, sim::VirtualLink& downlink);

  /// Begin the periodic clock-sync broadcast.
  void start();

  /// Deliver an agent -> controller payload (registration or data batch).
  void on_message(std::span<const std::uint8_t> bytes);

  /// Aligned, smoothed matrix over `streams` on a uniform grid -- the
  /// controller's hand-off format to the analytics engine.
  [[nodiscard]] std::vector<std::vector<float>> aligned_window(
      const std::vector<std::string>& streams, double t0, double t1,
      std::vector<double>* grid_times = nullptr) const;

  [[nodiscard]] const TimeSeriesStore& store() const noexcept {
    return store_;
  }
  [[nodiscard]] TimeSeriesStore& store() noexcept { return store_; }

  /// Streams registered by `agent_id`, or std::nullopt when the agent is
  /// unknown. Returned by value: the lookup-miss path is explicit in the
  /// type and no reference into the registration map can dangle across
  /// later registrations.
  [[nodiscard]] std::optional<std::vector<std::string>> streams_of(
      std::uint32_t agent_id) const;

  [[nodiscard]] std::uint64_t batches_received() const noexcept {
    return batches_;
  }
  [[nodiscard]] std::uint64_t tuples_received() const noexcept {
    return tuples_;
  }
  [[nodiscard]] const ControllerConfig& config() const noexcept {
    return config_;
  }

  /// The master time stamped into sync messages (the controller's UTC; it
  /// is the reference, so it reads true simulation time).
  [[nodiscard]] double master_time() const noexcept { return sim_.now(); }

 private:
  void broadcast_clock_sync();

  sim::Simulation& sim_;
  ControllerConfig config_;
  TimeSeriesStore store_;
  std::map<std::uint32_t, sim::VirtualLink*> downlinks_;
  std::map<std::uint32_t, std::vector<std::string>> agent_streams_;
  std::uint64_t batches_{0};
  std::uint64_t tuples_{0};
  bool started_{false};
};

}  // namespace darnet::collection
