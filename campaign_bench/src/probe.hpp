#pragma once

/// Bench-side decorator around the registry's scenarios: times every
/// Scenario::run call from outside the framework. The decorator also runs
/// inside forked pool and fleet workers (the factory that builds it is
/// inherited across fork); a worker process writes its samples to a
/// per-process file in the probe directory when its scenario instance is
/// destroyed, and the driving process reads them back with collect().

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <sys/types.h>

#include "analysis.hpp"
#include "vps/fault/scenario.hpp"

namespace campaign_bench {

/// Steady-clock nanoseconds (CLOCK_MONOTONIC: one clock for every process
/// of the host, so worker samples line up with the driver's barriers).
[[nodiscard]] std::int64_t now_ns() noexcept;

class Probe {
 public:
  /// `full` records every run; otherwise each scenario instance records
  /// only its first faulty run, which is all the untraced metrics need.
  Probe(std::string dir, bool full);
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  [[nodiscard]] bool full() const noexcept { return full_; }

  /// Wraps `inner` in a timing decorator reporting to this probe.
  [[nodiscard]] std::unique_ptr<vps::fault::Scenario> wrap(
      std::unique_ptr<vps::fault::Scenario> inner);

  /// Drains the samples of destroyed instances: those of this process plus
  /// every worker file in the probe directory (the files are removed).
  [[nodiscard]] std::vector<ReplaySample> collect();

  /// Called by a dying decorator: keeps the samples in memory in the
  /// driving process, writes them to a file in a worker process.
  void deposit(std::vector<ReplaySample>&& samples) noexcept;

 private:
  std::string dir_;
  bool full_;
  pid_t owner_;
  std::mutex mutex_;
  std::vector<ReplaySample> kept_;  // guarded by mutex_
};

}  // namespace campaign_bench
