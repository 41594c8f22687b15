#include "vps/ecu/alive_supervision.hpp"

#include "vps/support/ensure.hpp"

namespace vps::ecu {

AliveSupervision::AliveSupervision(sim::Kernel& kernel, std::string name, sim::Time cycle,
                                   unsigned failed_cycles_to_escalate)
    : Module(kernel, std::move(name)), cycle_(cycle), escalate_after_(failed_cycles_to_escalate) {
  support::ensure(cycle > sim::Time::zero(), "AliveSupervision: cycle must be positive");
  support::ensure(escalate_after_ >= 1, "AliveSupervision: escalation threshold must be >= 1");
  spawn("supervise", run());
}

AliveSupervision::EntityId AliveSupervision::add_entity(std::string entity_name,
                                                        unsigned min_reports_per_cycle) {
  entities_.push_back(Entity{std::move(entity_name), min_reports_per_cycle, 0, 0, false});
  return entities_.size() - 1;
}

void AliveSupervision::report_alive(EntityId id) {
  ++entities_.at(id).reports_this_cycle;
}

void AliveSupervision::acknowledge(EntityId id) {
  Entity& e = entities_.at(id);
  e.failed = false;
  e.consecutive_bad_cycles = 0;
  e.reports_this_cycle = 0;
}

// Written in snapshot-replayable form: the completed cycle is processed at
// the top of the loop (gated on cycle_elapsed_), so a fresh coroutine
// resumed from the body top after Kernel::restore behaves exactly like the
// original resumed at its delay.
sim::Coro AliveSupervision::run() {
  for (;;) {
    if (cycle_elapsed_) check_cycle();
    cycle_elapsed_ = true;
    co_await sim::delay(cycle_);
  }
}

void AliveSupervision::check_cycle() {
  for (EntityId id = 0; id < entities_.size(); ++id) {
    Entity& e = entities_[id];
    const bool ok = e.reports_this_cycle >= e.min_reports;
    e.reports_this_cycle = 0;
    if (ok) {
      e.consecutive_bad_cycles = 0;
      continue;
    }
    if (++e.consecutive_bad_cycles >= escalate_after_ && !e.failed) {
      e.failed = true;
      ++failures_;
      if (provenance_ != nullptr) {
        provenance_->detect_all("wdgm:" + name() + ":" + e.name);
      }
      if (on_failure_) on_failure_(id);
    }
  }
}

}  // namespace vps::ecu
