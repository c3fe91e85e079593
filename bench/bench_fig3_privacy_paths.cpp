// Reproduces Figure 3: the privacy architecture's three transmission paths
// from the vehicle to the remote server, one per distortion level.
//
// A stream of frames is pushed through the distortion module and shipped
// over a bandwidth-limited virtual link per level; the harness reports
// bytes on the wire, the effective reduction factor (paper: ~9x / 25x /
// 144x for 100/50/25 from 300x300; exactly 9x / 36x / 144x in this
// geometry), and end-to-end delivery latency -- the paper's argument that
// down-sampling "not only obfuscates ... but also improves bandwidth".
#include <cstdlib>
#include <iostream>

#include "privacy/privacy.hpp"
#include "sim/link.hpp"
#include "sim/queue.hpp"
#include "util/table.hpp"
#include "vision/renderer.hpp"

int main(int argc, char** argv) {
  using namespace darnet;
  using privacy::DistortionLevel;

  const int frames = argc > 1 ? std::atoi(argv[1]) : 120;

  util::Rng rng(31);
  vision::RenderConfig render;
  std::vector<vision::Image> stream;
  stream.reserve(static_cast<std::size_t>(frames));
  for (int i = 0; i < frames; ++i) {
    stream.push_back(vision::render_driver_scene(
        static_cast<vision::DriverClass>(i % vision::kDriverClassCount),
        render, rng));
  }

  const DistortionLevel levels[] = {
      DistortionLevel::kNone, DistortionLevel::kLow, DistortionLevel::kMedium,
      DistortionLevel::kHigh};

  util::Table table({"Path", "Frame size", "Bytes sent", "Reduction",
                     "Mean latency", "Paper reduction"});
  const char* paper_reduction[] = {"1x", "~9x", "~25x", "~144x"};

  std::uint64_t full_bytes = 0;
  double latency_none = 0.0, latency_high = 0.0;
  int row = 0;
  for (DistortionLevel level : levels) {
    sim::Simulation sim;
    sim::LinkConfig link_cfg;
    link_cfg.bandwidth_bps = 2.0e6;  // constrained uplink
    link_cfg.base_latency_s = 0.02;
    link_cfg.jitter_s = 0.004;
    sim::VirtualLink link(sim, link_cfg, 7);
    int delivered = 0;
    link.set_receiver([&](std::vector<std::uint8_t>) { ++delivered; });

    privacy::DistortionModule module(level);
    int edge = 0;
    for (const auto& frame : stream) {
      const privacy::TaggedFrame tagged = module.process(frame);
      edge = tagged.image.width();
      // 1 byte per pixel + the 4-byte level tag, as counted by wire_bytes.
      std::vector<std::uint8_t> payload(privacy::wire_bytes(tagged));
      link.send(std::move(payload));
      sim.run_until(sim.now() + 0.25);  // 4 fps frame cadence
    }
    sim.run_until(sim.now() + 5.0);

    const auto& stats = link.stats();
    if (level == DistortionLevel::kNone) {
      full_bytes = stats.bytes_sent;
      latency_none = stats.mean_latency_s();
    }
    if (level == DistortionLevel::kHigh) latency_high = stats.mean_latency_s();
    table.add_row(
        {privacy::distortion_name(level),
         std::to_string(edge) + "x" + std::to_string(edge),
         std::to_string(stats.bytes_sent),
         util::fmt(static_cast<double>(full_bytes) / static_cast<double>(stats.bytes_sent), 1) +
             "x",
         util::fmt(stats.mean_latency_s() * 1e3, 2) + " ms",
         paper_reduction[row]});
    ++row;
  }

  std::cout << "Figure 3 -- privacy transmission paths (" << frames
            << " frames @ 4 fps, 2 Mb/s uplink):\n"
            << table.render();
  table.save_csv("results/fig3_privacy_paths.csv");

  const bool shape = latency_high < latency_none;
  std::cout << "\nShape check (higher distortion -> lower latency): "
            << (shape ? "OK" : "MISS") << "\n";
  return shape ? 0 : 1;
}
