#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace vps::support {

/// Deterministic xorshift64* generator. All stochastic behaviour in the
/// framework (fault sampling, sensor noise, workload generation) draws from
/// instances of this class so that a campaign is reproducible from its seed.
class Xorshift {
 public:
  explicit Xorshift(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t index(std::size_t n) noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  /// Exponentially distributed value with the given rate (mean 1/rate).
  double exponential(double rate) noexcept;

  /// Normal value via Box-Muller; the pair's second value is kept for the
  /// next call.
  double normal(double mean = 0.0, double stddev = 1.0) noexcept;

  /// Samples an index with probability proportional to weights[i].
  /// Zero-total weights fall back to uniform choice.
  std::size_t weighted(std::span<const double> weights) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

  /// Forks an independent stream (used to give each campaign run its own
  /// stream so run order does not perturb per-run randomness).
  Xorshift fork() noexcept;

  /// Keyed fork: derives an independent stream from the current state and
  /// `key` WITHOUT advancing this generator. Stream `key` is therefore
  /// identical no matter how many other streams are forked or in which
  /// order — the property the parallel campaign executor relies on to be
  /// bitwise reproducible across worker counts (key = run index).
  [[nodiscard]] Xorshift fork(std::uint64_t key) const noexcept;

 private:
  std::uint64_t state_;
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

/// One Box-Muller pair of standard normals, r·cos θ then r·sin θ, kept as
/// the factors a scaled draw multiplies in Xorshift::normal's order: the
/// first value draws as mean + (stddev·r)·cos θ, the second as
/// mean + stddev·(r·sin θ). One stored z per value would round differently.
/// Xorshift::normal and NormalTape take their pairs from one computation.
struct NormalPair {
  double r = 0.0;
  double cos_theta = 0.0;
  double r_sin_theta = 0.0;
};

/// The normal stream of one Xorshift(seed), computed once and read by index:
/// draw(k, mean, stddev) is bit for bit the value the k-th call of
/// Xorshift(seed).normal(mean, stddev) returns, whatever the scales of the
/// calls before it. Pairs are computed in order, as far as the furthest index
/// read, so a caller that keeps its own cursor can image it with the rest of
/// its state and resume anywhere, mid-pair included. One instance per
/// scenario instance: it is not safe to share between threads.
class NormalTape {
 public:
  explicit NormalTape(std::uint64_t seed) noexcept : rng_(seed) {}

  /// Empties the tape onto `seed`'s stream; keeps the storage.
  void reset(std::uint64_t seed) noexcept {
    rng_ = Xorshift(seed);
    pairs_.clear();
  }

  [[nodiscard]] double draw(std::size_t k, double mean, double stddev) {
    if (k / 2 >= pairs_.size()) extend(k / 2);
    const NormalPair& p = pairs_[k / 2];
    return k % 2 == 0 ? mean + stddev * p.r * p.cos_theta : mean + stddev * p.r_sin_theta;
  }

 private:
  /// Computes the pairs up to and including pair `last`.
  void extend(std::size_t last);

  Xorshift rng_;
  std::vector<NormalPair> pairs_;
};

}  // namespace vps::support
