// Deterministic pseudo-random number generation for simulation workloads.
//
// The simulator must be reproducible run-to-run, so all stochastic behaviour
// (Poisson arrivals, trace sampling, jitter) flows through an explicitly
// seeded xoshiro256** generator. std::mt19937 is avoided because its
// distribution implementations are not specified bit-for-bit across standard
// libraries; the distributions below are implemented by hand.
#ifndef LITHOS_COMMON_RNG_H_
#define LITHOS_COMMON_RNG_H_

#include <cmath>
#include <cstdint>

#include "src/common/check.h"

namespace lithos {

// xoshiro256** 1.0 (public domain, Blackman & Vigna), seeded via SplitMix64.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    // SplitMix64 seeding avoids correlated low-entropy initial states.
    uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    LITHOS_CHECK_LE(lo, hi);
    const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(NextU64() % range);
  }

  // Exponential with the given mean (inter-arrival times of a Poisson process).
  double Exponential(double mean) {
    LITHOS_CHECK_GT(mean, 0.0);
    // 1 - NextDouble() is in (0, 1], avoiding log(0).
    return -mean * std::log(1.0 - NextDouble());
  }

  // Standard normal via Box-Muller (one value per call; simplicity over speed).
  double Normal(double mean, double stddev) {
    const double u1 = 1.0 - NextDouble();
    const double u2 = NextDouble();
    const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.28318530717958647692 * u2);
    return mean + stddev * z;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace lithos

#endif  // LITHOS_COMMON_RNG_H_
