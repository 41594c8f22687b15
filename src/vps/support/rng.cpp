#include "vps/support/rng.hpp"

#include <cmath>
#include <numbers>

namespace vps::support {

namespace {

/// Draws the next Box-Muller pair from two uniforms of `rng`: the one
/// computation behind Xorshift::normal and NormalTape.
NormalPair box_muller(Xorshift& rng) noexcept {
  double u1 = rng.uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = rng.uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  return {.r = r, .cos_theta = std::cos(theta), .r_sin_theta = r * std::sin(theta)};
}

}  // namespace

Xorshift::Xorshift(std::uint64_t seed) noexcept
    : state_(seed ? seed : 0x9e3779b97f4a7c15ULL) {}

std::uint64_t Xorshift::next() noexcept {
  std::uint64_t x = state_;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  state_ = x;
  return x * 0x2545f4914f6cdd1dULL;
}

std::uint64_t Xorshift::uniform_u64(std::uint64_t lo, std::uint64_t hi) noexcept {
  if (lo >= hi) return lo;
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next();  // full 64-bit range
  return lo + next() % span;
}

std::size_t Xorshift::index(std::size_t n) noexcept {
  if (n <= 1) return 0;
  return static_cast<std::size_t>(next() % n);
}

double Xorshift::uniform() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Xorshift::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

bool Xorshift::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Xorshift::exponential(double rate) noexcept {
  if (rate <= 0.0) return 0.0;
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / rate;
}

double Xorshift::normal(double mean, double stddev) noexcept {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  const NormalPair pair = box_muller(*this);
  spare_normal_ = pair.r_sin_theta;
  has_spare_normal_ = true;
  return mean + stddev * pair.r * pair.cos_theta;
}

std::size_t Xorshift::weighted(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) total += w;
  }
  if (total <= 0.0 || weights.empty()) return index(weights.size());
  double pick = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0.0) continue;
    pick -= weights[i];
    if (pick <= 0.0) return i;
  }
  return weights.size() - 1;
}

Xorshift Xorshift::fork() noexcept {
  // Mix the next output so the fork's stream is decorrelated from ours.
  return Xorshift(next() ^ 0xd1b54a32d192ed03ULL);
}

Xorshift Xorshift::fork(std::uint64_t key) const noexcept {
  // SplitMix64 finalizer over (state, key): adjacent keys land far apart,
  // so consecutive campaign runs get decorrelated streams.
  std::uint64_t z = state_ + (key + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return Xorshift(z);
}

void NormalTape::extend(std::size_t last) {
  while (pairs_.size() <= last) pairs_.push_back(box_muller(rng_));
}

}  // namespace vps::support
