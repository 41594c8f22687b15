#pragma once

/// Snapshot-and-fork replay core shared by every scenario twin (DESIGN.md
/// sec. 6 "Replay engine"). A twin defines only its system model; this class
/// owns the two per-seed caches, the golden epochs and the seed's noise tape,
/// the choice of the epoch a faulty replay forks from, and the full-replay
/// fallbacks.
///
/// System contract:
///   - `System(const Config&, std::uint64_t seed, support::NormalTape& noise)`
///     builds a fresh system in a fixed construction order (kernel ordinal
///     identity is the restore precondition); `noise` holds the normal
///     stream of `Xorshift(seed)`, and a system that draws from it keeps its
///     cursor in the state it captures and restores;
///   - a `sim::Kernel kernel` member;
///   - `inject(const FaultDescriptor&)` spawns one process that schedules the
///     fault — during elaboration on a full replay, right after restore() on
///     a fork, where sim::Kernel::restore orders its first wait as if it had
///     been spawned last at elaboration, so the suffix interleaves
///     identically;
///   - `capture(Snapshot&) const` / `restore(const Snapshot&)` image the
///     system at a quiescent instant; `Snapshot` has a `sim::KernelSnapshot
///     kernel` member.
/// `Config` has `duration` and `run_budget` members.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "vps/fault/descriptor.hpp"
#include "vps/fault/scenario.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/support/rng.hpp"

namespace vps::fault {

/// Number of segments the golden run is cut into; interior boundaries
/// (1..kReplayEpochs-1) each yield a snapshot, so a late injection forks
/// from at most 1/kReplayEpochs of the run away.
inline constexpr std::size_t kReplayEpochs = 8;

template <class System, class Snapshot>
class SnapshotReplay {
 public:
  /// Builds a fresh system, replays `fault` (null = golden) under `seed`, and
  /// returns `finish(System&, sim::RunStatus)` on the finished system. With
  /// `fork` off every run is a full replay. With it on, golden runs are
  /// segmented to refill the epoch cache as a side effect (the drivers run
  /// golden first, so forks hit a warm cache), and a faulty run restores the
  /// largest epoch strictly before its injection and executes only the
  /// suffix — everything at exactly inject_at must still execute after the
  /// injection. A cold cache or one for another seed is captured first; with
  /// no epoch before the injection, or after a golden livelock, the run is a
  /// full replay. Bitwise identical results either way. Every system built
  /// here, golden, forked or full, reads the one noise tape of `seed`.
  template <class Config, class Finish>
  Observation run(const Config& cfg, const FaultDescriptor* fault, std::uint64_t seed, bool fork,
                  Finish&& finish) {
    if (seed != seed_) {
      seed_ = seed;
      valid_ = false;
      epochs_.clear();
      noise_.reset(seed);
    }
    if (fork && fault != nullptr && !valid_) {
      System golden(cfg, seed, noise_);
      (void)capture(golden, cfg);
    }
    System sys(cfg, seed, noise_);
    if (fork && fault == nullptr) return finish(sys, capture(sys, cfg));
    if (fault != nullptr) {
      const Snapshot* epoch = nullptr;
      for (const Snapshot& e : epochs_) {
        if (e.kernel.now < fault->inject_at) epoch = &e;
      }
      if (fork && valid_ && epoch != nullptr) sys.restore(*epoch);
      sys.inject(*fault);
    }
    return finish(sys, sys.kernel.run(cfg.duration, cfg.run_budget));
  }

 private:
  /// Runs the fresh golden `sys` to the end in kReplayEpochs segments and
  /// caches a snapshot at each interior boundary. Segmenting changes only
  /// where Kernel::run returns, never the event order. A budget trip (a
  /// golden livelock) leaves no cache and is reported as-is.
  template <class Config>
  sim::RunStatus capture(System& sys, const Config& cfg) {
    valid_ = false;
    epochs_.clear();
    epochs_.reserve(kReplayEpochs - 1);
    for (std::size_t k = 1; k < kReplayEpochs; ++k) {
      const sim::RunStatus status =
          sys.kernel.run(cfg.duration * k / kReplayEpochs, cfg.run_budget);
      if (status.budget_exhausted()) {
        epochs_.clear();
        return status;
      }
      sys.capture(epochs_.emplace_back());
    }
    const sim::RunStatus status = sys.kernel.run(cfg.duration, cfg.run_budget);
    valid_ = !status.budget_exhausted();
    return status;
  }

  std::uint64_t seed_ = 0;  ///< the seed both caches hold
  bool valid_ = false;
  std::vector<Snapshot> epochs_;  ///< quiescent at epochs_[i].kernel.now, increasing
  support::NormalTape noise_{seed_};
};

}  // namespace vps::fault
