#include "collection/recording.hpp"

#include <fstream>
#include <stdexcept>

namespace darnet::collection {

void SessionRecording::append(double arrival_time,
                              std::vector<std::uint8_t> payload) {
  if (!messages_.empty() && arrival_time < messages_.back().arrival_time) {
    throw std::invalid_argument(
        "SessionRecording::append: arrival times must be non-decreasing");
  }
  if (payload.empty()) {
    throw std::invalid_argument("SessionRecording::append: empty payload");
  }
  messages_.push_back({arrival_time, std::move(payload)});
}

void SessionRecording::drain_into(Controller& controller) const {
  for (const auto& msg : messages_) controller.on_message(msg.payload);
}

void SessionRecording::replay_into(sim::Simulation& sim,
                                   Controller& controller) const {
  for (const auto& msg : messages_) {
    if (msg.arrival_time < sim.now()) {
      throw std::invalid_argument(
          "SessionRecording::replay_into: recording starts in the past");
    }
    sim.schedule(msg.arrival_time, [&controller, payload = msg.payload] {
      controller.on_message(payload);
    });
  }
}

void SessionRecording::serialize(util::BinaryWriter& writer) const {
  writer.write_u64(messages_.size());
  for (const auto& msg : messages_) {
    writer.write_f64(msg.arrival_time);
    writer.write_u64(msg.payload.size());
    writer.write_bytes(msg.payload);
  }
}

SessionRecording SessionRecording::deserialize(util::BinaryReader& reader) {
  SessionRecording rec;
  const auto count = reader.read_u64();
  rec.messages_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    RecordedMessage msg;
    msg.arrival_time = reader.read_f64();
    const auto bytes = reader.read_u64();
    msg.payload.resize(bytes);
    for (auto& b : msg.payload) b = reader.read_u8();
    rec.messages_.push_back(std::move(msg));
  }
  return rec;
}

void SessionRecording::save(const std::string& path) const {
  util::BinaryWriter writer;
  serialize(writer);
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("SessionRecording::save: cannot open " + path);
  }
  out.write(reinterpret_cast<const char*>(writer.bytes().data()),
            static_cast<std::streamsize>(writer.size()));
  if (!out) {
    throw std::runtime_error("SessionRecording::save: write failed");
  }
}

SessionRecording SessionRecording::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("SessionRecording::load: cannot open " + path);
  }
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  util::BinaryReader reader(bytes);
  return deserialize(reader);
}

}  // namespace darnet::collection
