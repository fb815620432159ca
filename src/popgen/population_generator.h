// PopulationGenerator: the seeded arrival stream behind a PopulationConfig.
//
// Arrivals follow a nonhomogeneous Poisson process realised by thinning
// against the peak rate: candidate gaps are exponential at the peak, and a
// candidate at t survives with probability rate(t)/peak — so diurnal waves
// and flash crowds shape the intensity while every draw still comes from one
// seeded stream. The sequence is a pure function of (config, stream seed),
// and its cursor (the Rng, the clock and the arrival count) is all the state
// it has: a checkpoint saves the cursor and a restore resumes the stream
// from it without regenerating a single past arrival.

#ifndef SRC_POPGEN_POPULATION_GENERATOR_H_
#define SRC_POPGEN_POPULATION_GENERATOR_H_

#include <vector>

#include "src/base/rng.h"
#include "src/popgen/population_config.h"

namespace psbox {

// One generated app arrival.
struct GeneratedArrival {
  TimeNs when = 0;
  uint64_t seq = 0;        // per-stream arrival index
  int catalog_index = -1;  // into AppCatalog()
  uint64_t iterations = 0;
  bool adversarial = false;  // camouflage side-channel probe
  int tenant = -1;           // tenant slot on the board (-1 = no tenants)
};

class PopulationGenerator {
 public:
  PopulationGenerator(const PopulationConfig& cfg, uint64_t stream_seed);

  // The next arrival; |when| is strictly increasing across calls.
  GeneratedArrival Next();

  // Instantaneous arrival rate (arrivals/s) at |t|: base rate shaped by the
  // diurnal sine and the flash-crowd window.
  double RateAt(TimeNs t) const;

  uint64_t generated() const { return seq_; }
  TimeNs clock() const { return clock_; }

  // Checkpoint support: persists/overwrites the cursor.
  template <class Ar>
  void Serialize(Ar& ar) {
    rng_.Serialize(ar);
    ar.I64(clock_);
    ar.U64(seq_);
  }

 private:
  PopulationConfig cfg_;
  std::vector<int> mix_index_;        // catalog index per mix entry
  std::vector<double> cum_weights_;   // cumulative mix weights
  double total_weight_ = 0.0;
  double peak_rate_ = 0.0;
  Rng rng_;
  TimeNs clock_ = 0;
  uint64_t seq_ = 0;
};

}  // namespace psbox

#endif  // SRC_POPGEN_POPULATION_GENERATOR_H_
