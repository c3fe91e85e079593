#include "collection/controller.hpp"

#include <stdexcept>

#include "obs/obs.hpp"

namespace darnet::collection {

Controller::Controller(sim::Simulation& sim, ControllerConfig config)
    : sim_(sim), config_(config) {
  if (config.clock_sync_period_s <= 0.0 || config.alignment_dt_s <= 0.0 ||
      config.smoothing_window_s < 0.0) {
    throw std::invalid_argument("Controller: invalid configuration");
  }
}

void Controller::attach_agent(std::uint32_t agent_id,
                              sim::VirtualLink& downlink) {
  if (downlinks_.contains(agent_id)) {
    throw std::invalid_argument("Controller::attach_agent: duplicate agent");
  }
  downlinks_[agent_id] = &downlink;
}

void Controller::start() {
  if (started_) throw std::logic_error("Controller::start: started twice");
  started_ = true;
  broadcast_clock_sync();
}

void Controller::broadcast_clock_sync() {
  DARNET_COUNTER_ADD("collection/clock_sync_rounds_total", 1);
  const ClockSyncMessage sync{master_time()};
  for (auto& [id, link] : downlinks_) link->send(encode(sync));
  sim_.schedule_in(config_.clock_sync_period_s,
                   [this] { broadcast_clock_sync(); });
}

void Controller::on_message(std::span<const std::uint8_t> bytes) {
  switch (peek_kind(bytes)) {
    case MessageKind::kRegister: {
      const RegisterMessage reg = decode_register(bytes);
      agent_streams_[reg.agent_id] = reg.streams;
      break;
    }
    case MessageKind::kBatch: {
      DataBatch batch = decode_batch(bytes);
      ++batches_;
      DARNET_COUNTER_ADD("collection/batches_received_total", 1);
      DARNET_COUNTER_ADD("collection/tuples_received_total",
                         batch.readings.size());
      for (auto& reading : batch.readings) {
        ++tuples_;
        store_.append(reading.stream,
                      TimedTuple{reading.local_timestamp,
                                 std::move(reading.values), reading.tag});
      }
      break;
    }
    case MessageKind::kClockSync:
      throw std::logic_error(
          "Controller::on_message: unexpected clock-sync from an agent");
  }
}

std::vector<std::vector<float>> Controller::aligned_window(
    const std::vector<std::string>& streams, double t0, double t1,
    std::vector<double>* grid_times) const {
  DARNET_TIMER("collection/align_ns");
  DARNET_SPAN("collection/align_window");
  return store_.aligned(streams, t0, t1, config_.alignment_dt_s,
                        config_.smoothing_window_s, grid_times);
}

std::optional<std::vector<std::string>> Controller::streams_of(
    std::uint32_t agent_id) const {
  const auto it = agent_streams_.find(agent_id);
  if (it == agent_streams_.end()) return std::nullopt;
  return it->second;
}

}  // namespace darnet::collection
