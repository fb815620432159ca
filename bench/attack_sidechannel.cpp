// §2.5 — Power side channel: inferring the victim browser's website from
// GPU power, and how psbox closes the channel.
//
// Training: the attacker records labelled GPU power traces while the victim
// browser opens each of the Alexa-top-10 websites alone. Probing: the victim
// opens a random website while the attacker co-runs a light camouflage GPU
// workload and observes power, then infers the website as the 1-NN reference
// under DTW distance.
//
//   * Without psbox the attacker reads the whole GPU rail (system power
//     metering): paper success rate 60 % = 6x random guess (10 %).
//   * With psbox enforced as the only way to observe power, the attacker
//     only sees its own sandboxed power plus idle filler: success collapses
//     to ~random.

// Population-scale variant (second half of the output): the same probe runs
// again with the victim hidden inside generated background traffic at
// increasing arrival densities. Each density row reports the whole-rail
// inference accuracy — the open channel degrades as unrelated population
// apps pollute the rail, quantifying how much anonymity a crowd buys
// *without* psbox (and how psbox still beats it at every density).

#include <cstdio>

#include "bench/bench_common.h"
#include "src/analysis/trace_util.h"
#include "src/attack/side_channel_attacker.h"
#include "src/popgen/app_catalog.h"
#include "src/popgen/population_generator.h"
#include "src/sim/callback_target.h"

namespace psbox {
namespace {

constexpr TimeNs kObservation = Millis(450);
constexpr size_t kTraceBins = 120;
constexpr int kProbesPerSite = 5;

std::string SiteLabel(int site) { return "site" + std::to_string(site); }

// One training run: victim alone, whole-rail observation.
std::vector<double> TrainTrace(int site) {
  BoardConfig cfg;
  cfg.seed = 0x7ea1 + static_cast<uint64_t>(site);
  Stack s(cfg);
  AppOptions opts;
  SpawnWebsiteVisit(s.kernel, "victim", site, opts);
  s.kernel.RunUntil(kObservation);
  auto samples = s.board.meter().SampleRail(s.board.gpu_rail(), 0, kObservation);
  return DownsampleSamples(samples, 0, kObservation, kTraceBins);
}

// One probe run: victim + camouflaged attacker; returns (whole-rail trace,
// psbox-confined trace).
std::pair<std::vector<double>, std::vector<double>> ProbeTraces(int site, int rep) {
  BoardConfig cfg;
  cfg.seed = 0xa77ac + static_cast<uint64_t>(site * 100 + rep);
  Stack s(cfg);
  CallbackTarget callbacks(&s.kernel.sim());
  // The attacker cannot know exactly when the page load begins; the victim
  // starts at an unknown offset within the observation window.
  Rng delay_rng(cfg.seed ^ 0xde1a);
  const DurationNs victim_delay = delay_rng.UniformInt(0, 5) * kMillisecond;
  callbacks.After(victim_delay, [&s, site] {
    AppOptions victim_opts;
    SpawnWebsiteVisit(s.kernel, "victim", site, victim_opts);
  });
  AppOptions attacker_opts;
  attacker_opts.deadline = kObservation;
  AppHandle attacker = SpawnAttackerCamouflage(s.kernel, "attacker", attacker_opts);
  // The psbox world: the attacker may only observe power from inside its own
  // sandbox bound to the GPU.
  const int box = s.manager.CreateBox(attacker.app, {HwComponent::kGpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(kObservation);

  auto rail_samples = s.board.meter().SampleRail(s.board.gpu_rail(), 0, kObservation);
  auto rail_trace = DownsampleSamples(rail_samples, 0, kObservation, kTraceBins);

  Rng sample_rng(cfg.seed ^ 0x5a5a);
  auto boxed_samples = s.manager.sandbox(box).ObservedSamples(
      s.board.gpu_rail(), HwComponent::kGpu, 0, kObservation,
      s.board.config().meter.sample_period, s.board.config().meter.noise_stddev,
      &sample_rng);
  auto boxed_trace = DownsampleSamples(boxed_samples, 0, kObservation, kTraceBins);
  return {rail_trace, boxed_trace};
}

// One probe at population density |rate_hz|: generated background arrivals
// spawn around the victim and the camouflaged attacker for the whole
// observation window. Returns (whole-rail trace, psbox-confined trace).
std::pair<std::vector<double>, std::vector<double>> ProbeTracesInPopulation(
    int site, int rep, double rate_hz) {
  BoardConfig cfg;
  cfg.seed = 0xbade + static_cast<uint64_t>(site * 100 + rep);
  Stack s(cfg);
  CallbackTarget callbacks(&s.kernel.sim());
  if (rate_hz > 0.0) {
    PopulationConfig pop;
    pop.seed = cfg.seed ^ 0x9e3779b97f4a7c15ull;
    pop.base_rate_hz = rate_hz;
    pop.tenants_per_board = 0;  // plain co-runners; no tenant nesting here
    PopulationGenerator gen(pop, pop.seed);
    for (GeneratedArrival a = gen.Next(); a.when < kObservation;
         a = gen.Next()) {
      const CatalogEntry& entry =
          AppCatalog()[static_cast<size_t>(a.catalog_index)];
      const std::string label = "bg" + std::to_string(a.seq);
      AppOptions opts;
      opts.iterations = a.iterations;
      const PopAppFactory factory = entry.factory;
      callbacks.At(a.when, [&s, factory, label, opts] {
        factory(s.kernel, label, opts);
      });
    }
  }
  Rng delay_rng(cfg.seed ^ 0xde1a);
  const DurationNs victim_delay = delay_rng.UniformInt(0, 5) * kMillisecond;
  callbacks.After(victim_delay, [&s, site] {
    AppOptions victim_opts;
    SpawnWebsiteVisit(s.kernel, "victim", site, victim_opts);
  });
  AppOptions attacker_opts;
  attacker_opts.deadline = kObservation;
  AppHandle attacker = SpawnAttackerCamouflage(s.kernel, "attacker", attacker_opts);
  const int box = s.manager.CreateBox(attacker.app, {HwComponent::kGpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(kObservation);

  auto rail_samples = s.board.meter().SampleRail(s.board.gpu_rail(), 0, kObservation);
  auto rail_trace = DownsampleSamples(rail_samples, 0, kObservation, kTraceBins);

  Rng sample_rng(cfg.seed ^ 0x5a5a);
  auto boxed_samples = s.manager.sandbox(box).ObservedSamples(
      s.board.gpu_rail(), HwComponent::kGpu, 0, kObservation,
      s.board.config().meter.sample_period, s.board.config().meter.noise_stddev,
      &sample_rng);
  auto boxed_trace = DownsampleSamples(boxed_samples, 0, kObservation, kTraceBins);
  return {rail_trace, boxed_trace};
}

}  // namespace
}  // namespace psbox

int main() {
  using namespace psbox;
  std::printf("§2.5 GPU power side channel: website inference via DTW 1-NN.\n");

  SideChannelAttacker attacker;
  for (int site = 0; site < kNumWebsites; ++site) {
    attacker.Train(SiteLabel(site), TrainTrace(site));
  }
  std::printf("trained on %zu labelled traces (%d websites)\n",
              attacker.reference_count(), kNumWebsites);

  std::vector<std::pair<std::string, std::vector<double>>> rail_probes;
  std::vector<std::pair<std::string, std::vector<double>>> boxed_probes;
  for (int site = 0; site < kNumWebsites; ++site) {
    for (int rep = 0; rep < kProbesPerSite; ++rep) {
      auto [rail_trace, boxed_trace] = ProbeTraces(site, rep);
      rail_probes.emplace_back(SiteLabel(site), std::move(rail_trace));
      boxed_probes.emplace_back(SiteLabel(site), std::move(boxed_trace));
    }
  }

  const double rate_open = attacker.SuccessRate(rail_probes);
  const double rate_psbox = attacker.SuccessRate(boxed_probes);
  const double random_guess = 1.0 / kNumWebsites;

  std::printf("\nprobes: %zu (%d websites x %d repetitions)\n", rail_probes.size(),
              kNumWebsites, kProbesPerSite);
  std::printf("attacker success, system power metering (no psbox): %.0f%%  (%.1fx random)\n",
              rate_open * 100.0, rate_open / random_guess);
  std::printf("attacker success, psbox-confined observation:       %.0f%%  (%.1fx random)\n",
              rate_psbox * 100.0, rate_psbox / random_guess);
  std::printf("random guess baseline:                              %.0f%%\n",
              random_guess * 100.0);
  std::printf("\nExpected shape (paper): ~60%% = 6x random without insulation;\n"
              "~random once psbox is the only way to observe power.\n");

  // Population-scale sweep: the victim hides inside generated background
  // traffic of increasing density.
  std::printf("\npopulation-scale variant: victim hidden in generated traffic\n");
  std::printf("%12s  %18s  %18s\n", "density", "rail accuracy", "psbox accuracy");
  for (const double rate_hz : {0.0, 15.0, 40.0, 80.0}) {
    std::vector<std::pair<std::string, std::vector<double>>> rail;
    std::vector<std::pair<std::string, std::vector<double>>> boxed;
    for (int site = 0; site < kNumWebsites; ++site) {
      for (int rep = 0; rep < kProbesPerSite; ++rep) {
        auto [rail_trace, boxed_trace] =
            ProbeTracesInPopulation(site, rep, rate_hz);
        rail.emplace_back(SiteLabel(site), std::move(rail_trace));
        boxed.emplace_back(SiteLabel(site), std::move(boxed_trace));
      }
    }
    std::printf("%8.0f /s  %16.0f%%  %16.0f%%\n", rate_hz,
                attacker.SuccessRate(rail) * 100.0,
                attacker.SuccessRate(boxed) * 100.0);
  }
  std::printf("\nExpected shape: rail accuracy decays toward random as the\n"
              "crowd grows; psbox-confined observation stays ~random at every\n"
              "density — insulation does not depend on background load.\n");
  return 0;
}
