#pragma once

/// Logical alive supervision (AUTOSAR WdgM flavour): supervised entities
/// report checkpoints; a periodic supervision cycle verifies that each
/// entity reported within its expected window and escalates to a failure
/// handler after a configurable number of failed cycles.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "vps/obs/provenance.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/sim/module.hpp"

namespace vps::ecu {

class AliveSupervision final : public sim::Module {
 public:
  using EntityId = std::size_t;

  AliveSupervision(sim::Kernel& kernel, std::string name, sim::Time cycle,
                   unsigned failed_cycles_to_escalate = 2);

  /// Registers an entity expected to report at least min_reports times per
  /// supervision cycle.
  EntityId add_entity(std::string entity_name, unsigned min_reports_per_cycle = 1);

  /// Checkpoint report from the supervised software.
  void report_alive(EntityId id);

  /// Escalation handler (e.g. platform reset); receives the failed entity.
  void set_on_failure(std::function<void(EntityId)> fn) { on_failure_ = std::move(fn); }

  [[nodiscard]] std::uint64_t failures() const noexcept { return failures_; }
  [[nodiscard]] const std::string& entity_name(EntityId id) const {
    return entities_.at(id).name;
  }
  [[nodiscard]] bool is_failed(EntityId id) const { return entities_.at(id).failed; }
  /// Clears the failed latch (after a recovery action).
  void acknowledge(EntityId id);

  /// Attaches a provenance tracker: each escalation is recorded as an
  /// ambient detection at "wdgm:<name>:<entity>". The monitor only sees the
  /// symptom (missing checkpoints), never the fault, so the detection
  /// attaches to all in-flight faults — campaign runs inject exactly one.
  /// nullptr detaches.
  void set_provenance(obs::ProvenanceTracker* tracker) noexcept { provenance_ = tracker; }

 private:
  struct Entity {
    std::string name;
    unsigned min_reports = 1;
    unsigned reports_this_cycle = 0;
    unsigned consecutive_bad_cycles = 0;
    bool failed = false;
  };

  [[nodiscard]] sim::Coro run();
  void check_cycle();

  sim::Time cycle_;
  unsigned escalate_after_;
  std::vector<Entity> entities_;
  std::function<void(EntityId)> on_failure_;
  std::uint64_t failures_ = 0;
  bool cycle_elapsed_ = false;  ///< a supervision-cycle delay is outstanding
  obs::ProvenanceTracker* provenance_ = nullptr;
};

}  // namespace vps::ecu
