// Deterministic random number generation.
//
// Every stochastic element of the simulator (measurement noise, workload
// jitter, website traces) draws from an explicitly-seeded Rng so that each
// experiment is bit-reproducible. The generator is xoshiro256**, seeded via
// splitmix64 per the reference implementation recommendations.

#ifndef SRC_BASE_RNG_H_
#define SRC_BASE_RNG_H_

#include <cstdint>

namespace psbox {

class Rng {
 public:
  explicit Rng(uint64_t seed);
  // Seed 0: a placeholder for containers that restore the state from a
  // snapshot.
  Rng() : Rng(0) {}

  // Uniform on [0, 2^64).
  uint64_t NextU64();
  // Uniform on [0.0, 1.0).
  double NextDouble();
  // Uniform on [lo, hi).
  double Uniform(double lo, double hi);
  // Uniform integer on [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);
  // Standard normal via Box-Muller; Gaussian(mean, stddev) scales it.
  double Gaussian(double mean, double stddev);
  // True with probability p.
  bool Bernoulli(double p);
  // Exponential with the given mean (> 0).
  double Exponential(double mean);

  // Derives an independent child stream; used to give each component its own
  // stream so adding consumers never perturbs existing draws.
  Rng Fork();

  // Snapshot support: persists/overwrites the exact generator state,
  // including the cached Box-Muller half-sample.
  template <class Ar>
  void Serialize(Ar& ar) {
    for (uint64_t& word : state_) {
      ar.U64(word);
    }
    ar.Bool(has_cached_gaussian_);
    ar.F64(cached_gaussian_);
  }

 private:
  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace psbox

#endif  // SRC_BASE_RNG_H_
