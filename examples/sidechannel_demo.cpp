// Power side channel demo (§2.5): what an attacker sees with and without
// psbox insulation while a victim browser loads a website.
//
//   ./sidechannel_demo [site 0-9]
//
// Prints the GPU power trace as the attacker observes it through (a) system
// power metering — the victim's page load is clearly visible — and (b) its
// own psbox, where only the attacker's camouflage plus idle filler remains.

#include <cstdio>
#include <cstdlib>

#include "src/analysis/trace_util.h"
#include "src/hw/board.h"
#include "src/kernel/kernel.h"
#include "src/psbox/psbox_manager.h"
#include "src/workloads/table5_apps.h"

int main(int argc, char** argv) {
  using namespace psbox;

  int site = 2;
  if (argc > 1) {
    site = std::atoi(argv[1]) % kNumWebsites;
  }

  Board board;
  Kernel kernel(&board);
  PsboxManager manager(&kernel);

  AppOptions victim_opts;
  SpawnWebsiteVisit(kernel, "victim-browser", site, victim_opts);

  AppOptions attacker_opts;
  attacker_opts.deadline = Millis(400);
  AppHandle attacker = SpawnAttackerCamouflage(kernel, "attacker", attacker_opts);
  const int box = manager.CreateBox(attacker.app, {HwComponent::kGpu});
  manager.EnterBox(box);

  kernel.RunUntil(Millis(400));

  constexpr size_t kBins = 72;
  auto rail_samples = board.meter().SampleRail(board.gpu_rail(), 0, Millis(400));
  const auto open_view = DownsampleSamples(rail_samples, 0, Millis(400), kBins);

  Rng rng(123);
  auto boxed_samples = manager.ObservedSamples(
      box, 0, Millis(400),
      board.config().meter.sample_period, board.config().meter.noise_stddev, &rng);
  const auto boxed_view = DownsampleSamples(boxed_samples, 0, Millis(400), kBins);

  std::printf("victim loads website %d while the attacker watches GPU power\n\n", site);
  std::printf("system power metering (no psbox — victim visible):\n  [%s]\n",
              Sparkline(open_view).c_str());
  std::printf("psbox-confined observation (attacker's own power only):\n  [%s]\n\n",
              Sparkline(boxed_view).c_str());
  std::printf("The first trace carries the page load's power signature (the\n"
              "basis of the paper's 60%% website-inference attack); the second\n"
              "shows only the attacker's camouflage + idle filler.\n");
  return 0;
}
