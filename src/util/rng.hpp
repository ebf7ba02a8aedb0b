// Deterministic random-number utilities.
//
// Every stochastic element of an experiment (job arrivals, measurement
// noise, node variation multipliers, regulation signals) draws from an
// `Rng` seeded explicitly by the experiment harness, so runs are exactly
// repeatable.  Independent subsystems derive *child* streams with
// `child(tag)` instead of sharing one generator, which keeps results stable
// when one subsystem changes how many numbers it consumes.
#pragma once

#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

#include "util/hash.hpp"

namespace anor::util {

/// SplitMix64 step — used to decorrelate seeds.  Public because tests
/// verify the stream-derivation scheme against it.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stable 64-bit hash of a string tag (FNV-1a), used to derive child seeds.
constexpr std::uint64_t hash_tag(std::string_view tag) { return fnv1a(tag); }

/// Seeded wrapper around std::mt19937_64 with convenience distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed), engine_(splitmix64(seed)) {}

  std::uint64_t seed() const { return seed_; }

  /// Derive an independent stream for a named subsystem.
  Rng child(std::string_view tag) const { return Rng(splitmix64(seed_ ^ hash_tag(tag))); }

  /// Derive an independent stream for an indexed replica (trial i, node i).
  Rng child(std::uint64_t index) const {
    return Rng(splitmix64(seed_ ^ splitmix64(index + 0x51ed2701ULL)));
  }

  std::uint64_t next_u64() { return engine_(); }

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Gaussian with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    if (stddev <= 0.0) return mean;
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Gaussian truncated to [lo, hi] by resampling (falls back to clamping
  /// after 64 attempts so pathological bounds cannot hang).
  double truncated_normal(double mean, double stddev, double lo, double hi);

  /// Exponential inter-arrival time for the given rate (events per unit
  /// time).  Rate must be positive.
  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Bernoulli trial.
  bool coin(double p_true) {
    return std::bernoulli_distribution(p_true)(engine_);
  }

  /// Pick an index in [0, weights.size()) proportionally to weights.
  std::size_t weighted_index(const std::vector<double>& weights);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

}  // namespace anor::util
