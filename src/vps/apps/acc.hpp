#pragma once

/// Adaptive-cruise-control scenario at the abstract system level: periodic
/// control tasks on the OS scheduler regulate the following distance to a
/// braking leader vehicle. The scenario realizes the paper's timing thesis
/// ("the right value at the wrong time can still be an error", Sec. 3.4):
/// faults that only slow the control task — values stay correct — still
/// degrade braking response and can end in a collision.

#include <cstdint>
#include <memory>
#include <string>

#include "vps/fault/scenario.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/sim/time.hpp"

namespace vps::apps {

struct AccConfig {
  sim::Time duration = sim::Time::sec(20);
  double initial_gap_m = 50.0;       ///< distance to the leader
  double ego_speed_mps = 30.0;       ///< both vehicles start at this speed
  sim::Time leader_brake_at = sim::Time::sec(8);
  double leader_brake_mps2 = 5.0;    ///< leader deceleration during the event
  sim::Time leader_brake_duration = sim::Time::sec(4);
  sim::Time control_period = sim::Time::ms(20);
  sim::Time control_wcet = sim::Time::ms(8);
  /// Watchdog budget; see CapsConfig::run_budget for rationale.
  sim::RunBudget run_budget{.max_deltas_without_advance = std::uint64_t{1} << 20};
};

class AccScenario final : public fault::Scenario {
 public:
  explicit AccScenario(AccConfig config);
  AccScenario() : AccScenario(AccConfig{}) {}
  ~AccScenario() override;

  [[nodiscard]] std::string name() const override { return "acc_follow_brake"; }
  [[nodiscard]] sim::Time duration() const override { return config_.duration; }
  [[nodiscard]] std::vector<fault::FaultType> fault_types() const override;
  [[nodiscard]] fault::Observation run(const fault::FaultDescriptor* fault,
                                       std::uint64_t seed) override;

  /// Minimum gap observed in the most recent run (diagnostics/benches).
  [[nodiscard]] double last_min_gap_m() const noexcept { return last_min_gap_; }

 private:
  /// fault::SnapshotReplay over the system model (defined in acc.cpp).
  struct Replay;

  AccConfig config_;
  std::unique_ptr<Replay> replay_;
  double last_min_gap_ = 0.0;
};

}  // namespace vps::apps
