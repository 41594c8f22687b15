#pragma once

/// CAPS-like airbag system VP (paper Fig. 1 / Sec. 1): an accelerometer
/// node publishes protected samples on CAN; the airbag ECU — a full AR32
/// platform running assembly firmware — validates them and fires the squib
/// (GPIO) after three consecutive over-threshold samples. The paper's
/// safety goal: "the failure of any system component must not trigger the
/// airbag in normal operation" — and, dually, a crash must deploy it.
///
/// The scenario supports the protection ablations of experiment E10:
/// link protection (complement + alive counter) on/off and RAM ECC on/off.

#include <cstdint>
#include <memory>
#include <string>

#include "vps/fault/scenario.hpp"
#include "vps/hw/memory.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/sim/time.hpp"

namespace vps::apps {

struct CapsConfig {
  bool crash = false;            ///< crash pulse at crash_time vs normal driving
  bool protected_link = true;    ///< complement + alive-counter check in firmware
  hw::EccMode ecc = hw::EccMode::kNone;
  sim::Time duration = sim::Time::ms(20);
  sim::Time crash_time = sim::Time::ms(8);
  /// Deployment later than crash_time + this limit counts as a hazard
  /// (too late to protect the occupants).
  sim::Time deploy_deadline = sim::Time::ms(6);
  /// Wires an obs::ProvenanceTracker through every layer (sensor, CAN,
  /// router, RAM, CPU registers, squib GPIO, firmware link checks) and
  /// returns the per-fault propagation DAG in Observation::provenance.
  /// Golden runs stay byte-identical either way: the tracker only ever
  /// records applied faults.
  bool provenance = false;
  /// Watchdog budget for the simulation run. The default livelock guard
  /// (2^20 delta cycles without time advance) is far beyond anything the
  /// healthy model does at one timestamp, so it only ever fires on
  /// fault-induced notification storms; the run then reports
  /// completed = false and classifies as kTimeout instead of hanging the
  /// campaign worker.
  sim::RunBudget run_budget{.max_deltas_without_advance = std::uint64_t{1} << 20};
};

class CapsScenario final : public fault::Scenario {
 public:
  explicit CapsScenario(CapsConfig config);
  ~CapsScenario() override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] sim::Time duration() const override { return config_.duration; }
  [[nodiscard]] std::vector<fault::FaultType> fault_types() const override;
  [[nodiscard]] fault::Observation run(const fault::FaultDescriptor* fault,
                                       std::uint64_t seed) override;

  [[nodiscard]] const CapsConfig& config() const noexcept { return config_; }

 private:
  /// fault::SnapshotReplay over the system model (defined in caps.cpp).
  struct Replay;

  CapsConfig config_;
  std::unique_ptr<Replay> replay_;
};

}  // namespace vps::apps
