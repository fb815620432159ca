// PopulationConfig: a small seeded description of an endless app population.
//
// "Millions of users" cannot be a fixed cast: this config drives a
// nonhomogeneous Poisson arrival process (diurnal waves, flash crowds,
// recurring adversarial phases) over a weighted mix of the behavior-library
// apps with bounded-Pareto (heavy-tailed) iteration counts. Every draw comes
// from one seeded stream per board, so the generated population — and hence
// the fleet fingerprint — is a pure function of (config, board index),
// bit-identical across worker-thread counts and reproducible from a
// checkpoint by replaying the generator through the restored clock.

#ifndef SRC_POPGEN_POPULATION_CONFIG_H_
#define SRC_POPGEN_POPULATION_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/base/types.h"

namespace psbox {

// One app-mix row: relative weight of |app| (an AppCatalog name) among
// arrivals.
struct PopulationMixEntry {
  std::string app;
  double weight = 1.0;
};

struct PopulationConfig {
  uint64_t seed = 0x90D5;
  // Mean arrival rate per board in arrivals/second; 0 disables the
  // population generator entirely.
  double base_rate_hz = 0.0;
  // Diurnal wave: rate(t) scales by 1 + amplitude * sin(2*pi*t/period).
  double diurnal_amplitude = 0.0;  // in [0, 1)
  DurationNs diurnal_period = 500 * kMillisecond;
  // Flash crowd: the rate is multiplied by |flash_multiplier| inside
  // [flash_start, flash_start + flash_duration).
  TimeNs flash_start = 0;
  DurationNs flash_duration = 0;
  double flash_multiplier = 1.0;
  // Adversarial phases: within each |adversarial_period| window, the first
  // |adversarial_duty| fraction is a phase in which each arrival becomes a
  // camouflage side-channel probe with probability |adversarial_fraction|.
  // period 0 = the phase is always active.
  double adversarial_fraction = 0.0;
  DurationNs adversarial_period = 0;
  double adversarial_duty = 1.0;
  // Heavy-tailed per-app work: iteration counts drawn from a bounded Pareto
  // on [min_iterations, max_iterations] with shape |pareto_alpha|.
  double pareto_alpha = 1.5;
  uint64_t min_iterations = 2;
  uint64_t max_iterations = 48;
  // Tenancy: each board gets |tenants_per_board| tenant sandboxes (bound to
  // all balloon-metered components); arrivals are assigned round-robin and
  // their app boxes nest under the tenant, claiming |child_budget| joules of
  // the tenant's |tenant_budget| slice (0 = unbudgeted). 0 tenants = the
  // generated apps run in top-level boxes.
  int tenants_per_board = 2;
  Joules tenant_budget = 0.0;
  Joules child_budget = 0.0;
  // App mix over AppCatalog names; empty = DefaultMix().
  std::vector<PopulationMixEntry> mix;

  bool enabled() const { return base_rate_hz > 0.0; }

  // Checkpoint compat block: a restored fleet must regenerate the identical
  // population, so the full config rides in the snapshot and is compared on
  // restore.
  template <class Ar>
  void Serialize(Ar& ar);
  bool operator==(const PopulationConfig& other) const;
};

// Parses a population config CSV: "key,value" rows plus "mix,<app>,<weight>"
// rows (blank lines and '#' comments skipped; durations are *_ms keys in
// milliseconds, budgets are *_j keys in joules). Returns false with a
// descriptive |error| on unknown keys, malformed numbers, unknown catalog
// apps, or out-of-range values.
bool ParsePopulationConfig(const std::string& text, PopulationConfig* out,
                           std::string* error);
// Same, reading |path| first.
bool LoadPopulationConfig(const std::string& path, PopulationConfig* out,
                          std::string* error);

}  // namespace psbox

#endif  // SRC_POPGEN_POPULATION_CONFIG_H_
