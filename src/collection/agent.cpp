#include "collection/agent.hpp"

#include <stdexcept>

#include "obs/obs.hpp"

namespace darnet::collection {

CollectionAgent::CollectionAgent(sim::Simulation& sim, AgentConfig config,
                                 sim::VirtualLink& uplink)
    : sim_(sim),
      config_(config),
      uplink_(uplink),
      clock_(config.clock_drift_ppm, config.clock_initial_offset_s) {
  if (config.transmit_period_s <= 0.0) {
    throw std::invalid_argument("CollectionAgent: invalid transmit period");
  }
}

void CollectionAgent::add_sensor(std::unique_ptr<Sensor> sensor) {
  if (!sensor) throw std::invalid_argument("add_sensor: null sensor");
  if (started_) {
    throw std::logic_error("add_sensor: agent already started");
  }
  sensors_.push_back(std::move(sensor));
}

void CollectionAgent::start() {
  if (started_) throw std::logic_error("CollectionAgent::start: started twice");
  started_ = true;
  running_ = true;

  RegisterMessage reg;
  reg.agent_id = config_.agent_id;
  for (const auto& s : sensors_) reg.streams.push_back(s->stream());
  uplink_.send(encode(reg));

  for (std::size_t i = 0; i < sensors_.size(); ++i) {
    sim_.schedule_in(sensors_[i]->poll_period_s(),
                     [this, i] { poll_sensor(i); });
  }
  sim_.schedule_in(config_.transmit_period_s, [this] { transmit(); });
}

void CollectionAgent::poll_sensor(std::size_t index) {
  if (!running_) return;
  Sensor& sensor = *sensors_[index];
  SensorReading reading;
  reading.stream = sensor.stream();
  reading.local_timestamp = clock_.read(sim_.now());
  reading.values = sensor.sample(sim_.now());
  // Approximate wire size: payload + timestamp/tag/stream-id framing.
  buffered_bytes_ +=
      reading.values.size() * sizeof(float) + reading.stream.size() + 16;
  buffer_.push_back(std::move(reading));
  DARNET_GAUGE_SET("collection/agent_buffer_bytes", buffered_bytes_);
  if (config_.max_batch_bytes > 0 &&
      buffered_bytes_ >= config_.max_batch_bytes) {
    flush();
  }
  sim_.schedule_in(sensor.poll_period_s(), [this, index] {
    poll_sensor(index);
  });
}

void CollectionAgent::flush() {
  if (buffer_.empty()) return;
  DataBatch batch;
  batch.agent_id = config_.agent_id;
  batch.readings = std::move(buffer_);
  buffer_.clear();
  buffered_bytes_ = 0;
  ++batches_sent_;
  DARNET_COUNTER_ADD("collection/agent_batches_flushed_total", 1);
  DARNET_GAUGE_SET("collection/agent_buffer_bytes", 0);
  uplink_.send(encode(batch));
}

void CollectionAgent::transmit() {
  if (!running_) return;
  flush();
  sim_.schedule_in(config_.transmit_period_s, [this] { transmit(); });
}

void CollectionAgent::on_message(std::span<const std::uint8_t> bytes) {
  // The only controller->agent message today is clock sync; the kind tag
  // inside decode_clock_sync() rejects anything else.
  const ClockSyncMessage sync = decode_clock_sync(bytes);
  clock_.set(sim_.now(), sync.master_time + config_.latency_compensation_s);
}

}  // namespace darnet::collection
