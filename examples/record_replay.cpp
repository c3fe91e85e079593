// Offline processing workflow (Section 4.1: "The data is transferred and
// processed in an offline manner"):
//
//   1. record a live session's controller-inbound traffic to a file,
//   2. train DarNet and checkpoint the frame CNN to disk,
//   3. later: reload the recording, replay it into a fresh controller with
//      original timing, restore the model from its checkpoint, and
//      classify the replayed session -- bit-identical to the live run.
//
// Usage: record_replay [scale]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "collection/recording.hpp"
#include "core/pipeline.hpp"
#include "nn/checkpoint.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace darnet;

  const double scale = argc > 1 ? std::atof(argv[1]) : 0.015;
  const std::string recording_path = "/tmp/darnet_session.rec";
  const std::string checkpoint_path = "/tmp/darnet_cnn.ckpt";

  // --- Phase 1: live collection, recorded at the controller's ingress ---
  core::SessionScript script;
  script.segments = {{vision::DriverClass::kNormal, 12.0},
                     {vision::DriverClass::kTalking, 12.0},
                     {vision::DriverClass::kReaching, 12.0}};

  collection::SessionRecording recording;
  {
    sim::Simulation sim;
    collection::ControllerConfig ctrl_cfg;
    collection::Controller controller(sim, ctrl_cfg);
    sim::LinkConfig link_cfg;
    sim::VirtualLink up(sim, link_cfg, 1);
    sim::VirtualLink down(sim, link_cfg, 2);

    collection::AgentConfig agent_cfg;
    agent_cfg.agent_id = 2;
    agent_cfg.clock_drift_ppm = 200.0;
    collection::CollectionAgent agent(sim, agent_cfg, up);

    // The tap records every payload while delivering it.
    collection::RecordingTap tap(sim, controller, recording);
    up.set_receiver([&tap](std::vector<std::uint8_t> b) {
      tap(std::move(b));
    });
    down.set_receiver([&agent](std::vector<std::uint8_t> b) {
      agent.on_message(b);
    });
    controller.attach_agent(2, down);

    util::Rng rng(3);
    core::SessionScript* script_ptr = &script;
    imu::ImuGenConfig gen;
    gen.duration_s = script.total_duration();
    const auto trace = imu::generate_trace(
        imu::PhoneOrientation::kPocket, gen, rng);
    agent.add_sensor(std::make_unique<collection::CallbackSensor>(
        "imu.accel", 0.025, [&trace, gen](sim::SimTime now) {
          const auto idx = std::min(
              trace.size() - 1,
              static_cast<std::size_t>(now * gen.sample_hz));
          return std::vector<float>(trace[idx].accel.begin(),
                                    trace[idx].accel.end());
        }));
    (void)script_ptr;

    controller.start();
    agent.start();
    sim.run_until(script.total_duration());
    std::cout << "Recorded " << recording.size() << " messages over "
              << util::fmt(recording.duration(), 1) << "s of session time ("
              << controller.tuples_received() << " tuples delivered live)\n";
  }
  recording.save(recording_path);
  std::cout << "Saved recording to " << recording_path << "\n";

  // --- Phase 2: train and checkpoint a model ---
  std::cout << "\nTraining DarNet (scale " << scale << ")...\n";
  core::DatasetConfig data_cfg;
  data_cfg.scale = scale;
  core::DarNet darnet{core::DarNetConfig{}};
  darnet.train(core::generate_dataset(data_cfg));
  nn::save_checkpoint(darnet.frame_cnn(), checkpoint_path);
  std::cout << "Checkpointed the frame CNN ("
            << darnet.frame_cnn().parameter_count() << " params) to "
            << checkpoint_path << "\n";

  // --- Phase 3: offline -- reload everything and replay ---
  const auto loaded = collection::SessionRecording::load(recording_path);
  sim::Simulation replay_sim;
  collection::Controller replay_controller(replay_sim, {});
  loaded.replay_into(replay_sim, replay_controller);
  replay_sim.run_until(loaded.duration() + 1.0);

  core::DarNet restored{core::DarNetConfig{}};
  nn::load_checkpoint(restored.frame_cnn(), checkpoint_path);

  util::Table table({"Check", "Result"});
  table.add_row({"messages replayed", std::to_string(loaded.size())});
  table.add_row({"tuples after replay",
                 std::to_string(replay_controller.tuples_received())});
  table.add_row({"accel stream rows",
                 std::to_string(replay_controller.store().count("imu.accel"))});

  // The restored CNN must agree with the live one everywhere.
  util::Rng rng(9);
  const tensor::Tensor probe = tensor::Tensor::uniform({4, 1, 48, 48},
                                                       0.5f, rng);
  const auto live_out = darnet.frame_cnn().forward(probe, false);
  const auto restored_out = restored.frame_cnn().forward(probe, false);
  bool identical = true;
  for (std::size_t i = 0; i < live_out.numel(); ++i) {
    identical = identical && live_out[i] == restored_out[i];
  }
  table.add_row({"checkpoint outputs identical", identical ? "yes" : "NO"});
  std::cout << "\nOffline replay verification:\n" << table.render();

  std::remove(recording_path.c_str());
  std::remove(checkpoint_path.c_str());
  return identical ? 0 : 1;
}
