#include "vps/apps/acc.hpp"

#include <algorithm>
#include <cmath>

#include "vps/ecu/os.hpp"
#include "vps/fault/injector.hpp"
#include "vps/fault/snapshot_replay.hpp"
#include "vps/support/crc.hpp"
#include "vps/support/rng.hpp"

namespace vps::apps {

using fault::FaultDescriptor;
using fault::FaultType;
using fault::Observation;
using sim::Time;

namespace {

/// Longitudinal two-vehicle plant, integrated at a fixed 5 ms step.
struct Plant {
  double gap_m;
  double ego_speed;
  double ego_accel = 0.0;
  double leader_speed;
  double leader_accel = 0.0;
  double min_gap;

  void step(double dt) {
    leader_speed = std::max(0.0, leader_speed + leader_accel * dt);
    ego_speed = std::max(0.0, ego_speed + ego_accel * dt);
    gap_m += (leader_speed - ego_speed) * dt;
    min_gap = std::min(min_gap, gap_m);
  }
};

/// Plain-data state the ACC system holds outside its models (one struct
/// so epoch capture is a copy).
struct AccState {
  Plant plant{};
  std::size_t noise_cursor = 0;  ///< index of the next radar noise draw
  double commanded_accel = 0.0;
  Time last_command = Time::zero();
  std::uint64_t stale_command_events = 0;
  bool plant_step_pending = false;
  std::uint8_t leader_phase = 0;
  bool monitor_pending = false;
};

/// One quiescent golden-run snapshot of the ACC system (see the CAPS twin
/// in caps.cpp for the replay-engine rationale). Plain data only.
struct AccEpochSnapshot {
  sim::KernelSnapshot kernel;
  ecu::OsScheduler::Snapshot os;
  fault::AnalogChannel::Snapshot radar;
  AccState state;
};

/// The complete ACC system VP. Spawn order matches the pre-refactor inline
/// build (plant integrator, leader event, control task, actuator monitor,
/// diagnostics, injector) — kernel ordinal identity is what lets a forked
/// replay overlay a golden snapshot onto a fresh instance. All coroutine
/// bodies are restore-safe (DESIGN.md "Replay engine"): post-await work
/// runs at loop top gated on pending/phase members, so a restored fresh
/// coroutine resumed by a pending timed entry continues exactly where the
/// snapshotted original was parked.
struct AccSystem {
  sim::Kernel kernel;
  ecu::OsScheduler os;
  support::NormalTape& noise;  ///< the seed's radar noise, shared by every replay
  AccState state;
  fault::AnalogChannel radar;
  fault::InjectorHub hub;

  double desired_gap = 0.0;
  Time staleness_limit;

  AccSystem(const AccConfig& cfg, std::uint64_t /*seed*/, support::NormalTape& radar_noise)
      : os(kernel, "acc_os"),
        noise(radar_noise),
        state{.plant = {cfg.initial_gap_m, cfg.ego_speed_mps, 0.0, cfg.ego_speed_mps, 0.0,
                        cfg.initial_gap_m}},
        // Radar distance sensor with seed-dependent measurement noise.
        radar([this] {
          return state.plant.gap_m + noise.draw(state.noise_cursor++, 0.0, 0.05);
        }),
        hub(kernel),
        desired_gap(0.9 * cfg.ego_speed_mps),  // ~0.9s time gap
        staleness_limit(cfg.control_period * 3) {
    // Plant integration process (the physical world does not miss deadlines).
    kernel.spawn("plant", plant_loop());
    // Leader braking event.
    kernel.spawn("leader", leader_event(cfg));
    // Control task: constant-time-gap ACC law, outputs written at completion.
    os.add_task({.name = "acc_control",
                 .period = cfg.control_period,
                 .wcet = cfg.control_wcet,
                 .priority = 5,
                 .body = [this] {
                   const double measured_gap = radar.read();
                   const double gap_error = measured_gap - desired_gap;
                   const double closing =
                       state.plant.leader_speed - state.plant.ego_speed;  // via tracker
                   state.commanded_accel =
                       std::clamp(0.25 * gap_error + 0.8 * closing, -8.0, 2.0);
                   state.plant.ego_accel = state.commanded_accel;
                   state.last_command = kernel.now();
                 }});
    // Actuator freshness monitor: commands older than 3 control periods are
    // considered stale and the actuator falls back to coasting — the standard
    // defensive measure that turns a *late* (but correct) command into a
    // detected timing failure ("the right value at the wrong time").
    kernel.spawn("actuator_monitor", monitor_loop());
    // Background diagnostics load.
    os.add_task({.name = "diagnostics",
                 .period = Time::ms(100),
                 .wcet = Time::ms(12),
                 .priority = 1,
                 .body = [] {}});
    hub.bind_os(os);
    hub.bind_sensor(radar);
  }

  [[nodiscard]] sim::Coro plant_loop() {
    for (;;) {
      if (state.plant_step_pending) {
        state.plant_step_pending = false;
        state.plant.step(0.005);
      }
      state.plant_step_pending = true;
      co_await sim::delay(Time::ms(5));
    }
  }

  // Two-phase event as an explicit machine: the phase member names the work
  // owed at the *next* resume, so a restored coroutine picks up mid-event.
  [[nodiscard]] sim::Coro leader_event(const AccConfig cfg) {
    for (;;) {
      if (state.leader_phase == 0) {
        state.leader_phase = 1;
        co_await sim::delay(cfg.leader_brake_at);
      } else if (state.leader_phase == 1) {
        state.plant.leader_accel = -cfg.leader_brake_mps2;
        state.leader_phase = 2;
        co_await sim::delay(cfg.leader_brake_duration);
      } else {
        state.plant.leader_accel = 0.0;
        co_return;
      }
    }
  }

  [[nodiscard]] sim::Coro monitor_loop() {
    for (;;) {
      if (state.monitor_pending) {
        state.monitor_pending = false;
        if (kernel.now() - state.last_command > staleness_limit && state.plant.ego_accel != 0.0) {
          state.plant.ego_accel = 0.0;  // coast
          ++state.stale_command_events;
        }
      }
      state.monitor_pending = true;
      co_await sim::delay(Time::ms(5));
    }
  }

  /// Schedules the fault: during elaboration on a full replay, right after
  /// restore() on a fork.
  void inject(const FaultDescriptor& fault) { hub.schedule(fault); }

  void capture(AccEpochSnapshot& e) const {
    e.kernel = kernel.snapshot();
    e.os = os.snapshot();
    e.radar = radar.snapshot();
    e.state = state;
  }

  void restore(const AccEpochSnapshot& e) {
    kernel.restore(e.kernel);
    os.restore(e.os);
    radar.restore(e.radar);
    state = e.state;
  }

  [[nodiscard]] Observation observe(sim::RunStatus status) {
    Observation obs;
    // See CapsConfig::run_budget: a tripped budget is a livelocked run.
    obs.completed = !status.budget_exhausted();
    obs.hazard = state.plant.min_gap <= 0.0;
    obs.deadline_misses = os.total_deadline_misses();
    // Detections: the scheduler's deadline monitor plus the actuator's
    // stale-command fallback events.
    obs.detected = os.total_deadline_misses() + state.stale_command_events;
    support::Crc32 sig;
    sig.update_u64(static_cast<std::uint64_t>(std::llround(state.plant.min_gap * 10.0)));
    sig.update_u64(static_cast<std::uint64_t>(std::llround(state.plant.ego_speed * 10.0)));
    obs.output_signature = sig.value();
    return obs;
  }
};

}  // namespace

struct AccScenario::Replay : fault::SnapshotReplay<AccSystem, AccEpochSnapshot> {};

AccScenario::AccScenario(AccConfig config)
    : config_(config), replay_(std::make_unique<Replay>()) {}
AccScenario::~AccScenario() = default;

std::vector<FaultType> AccScenario::fault_types() const {
  return {FaultType::kExecutionSlowdown, FaultType::kTaskKill, FaultType::kSensorOffset,
          FaultType::kSensorStuck};
}

Observation AccScenario::run(const FaultDescriptor* fault, std::uint64_t seed) {
  return replay_->run(config_, fault, seed, snapshot_replay(),
                      [this](AccSystem& sys, sim::RunStatus status) {
                        last_min_gap_ = sys.state.plant.min_gap;
                        return sys.observe(status);
                      });
}

}  // namespace vps::apps
