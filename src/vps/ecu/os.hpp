#pragma once

/// OSEK-like fixed-priority preemptive task scheduler at the abstract
/// system level: tasks are periodic jobs with execution budgets; the
/// scheduler simulates preemption exactly in simulated time and monitors
/// deadlines — the substrate for the paper's "the right value at the wrong
/// time can still be an error" experiments (E11).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "vps/sim/kernel.hpp"
#include "vps/sim/module.hpp"

namespace vps::ecu {

using TaskId = std::size_t;

struct TaskConfig {
  std::string name;
  sim::Time period = sim::Time::ms(10);
  sim::Time offset = sim::Time::zero();   ///< first release
  sim::Time wcet = sim::Time::ms(1);      ///< nominal execution budget
  sim::Time deadline = sim::Time::zero(); ///< 0 = implicit (== period)
  int priority = 0;                       ///< higher value preempts lower
  /// Functional effect, executed exactly when the job *completes* (the
  /// abstract-task analogue of "outputs are written at the end of the
  /// runnable"). May be empty for pure load tasks.
  std::function<void()> body;
};

struct TaskStats {
  std::uint64_t activations = 0;
  std::uint64_t completions = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t overruns_dropped = 0;  ///< releases skipped: previous job still running
  sim::Time max_response = sim::Time::zero();
  sim::Time total_response = sim::Time::zero();

  [[nodiscard]] double average_response_seconds() const noexcept {
    return completions == 0 ? 0.0 : total_response.to_seconds() / static_cast<double>(completions);
  }
};

/// Event-driven preemptive scheduler. All tasks share one core.
class OsScheduler final : public sim::Module {
 public:
  OsScheduler(sim::Kernel& kernel, std::string name);

  /// Registers a task before or during simulation; returns its id.
  TaskId add_task(TaskConfig config);

  [[nodiscard]] std::size_t task_count() const noexcept { return configs_.size(); }
  [[nodiscard]] const TaskConfig& config(TaskId id) const { return configs_.at(id); }
  [[nodiscard]] const TaskStats& stats(TaskId id) const { return state_.tasks.at(id).stats; }
  /// Rate a task currently releases at (differs from config(id).period after
  /// a set_period mode switch).
  [[nodiscard]] sim::Time current_period(TaskId id) const { return state_.tasks.at(id).period; }

  /// Mode switch: changes a task's release period (and relative deadline;
  /// 0 = implicit, == period) from now on. The pending release is re-anchored
  /// to now + period, so a tightened rate takes effect within one *new*
  /// period instead of waiting for the old slow release to drain. The
  /// in-flight job (if any) keeps the deadline it was released with.
  void set_period(TaskId id, sim::Time period, sim::Time deadline = sim::Time::zero());
  /// Fired on every deadline miss; monitors subscribe for failure analysis.
  [[nodiscard]] sim::Event& deadline_miss_event() noexcept { return deadline_miss_; }
  [[nodiscard]] std::uint64_t total_deadline_misses() const noexcept {
    return state_.total_misses;
  }
  /// CPU utilization so far (busy time / elapsed time).
  [[nodiscard]] double utilization() const noexcept;

  // --- fault-injection interface -----------------------------------------
  /// Multiplies the execution time of future jobs of a task (models error
  /// correction overhead, degraded clock, thermal throttling, ...).
  void set_execution_factor(TaskId id, double factor);
  /// Suppresses future releases of a task (crashed / killed task).
  void kill_task(TaskId id);
  /// Re-enables a killed task.
  void revive_task(TaskId id);
  [[nodiscard]] bool is_killed(TaskId id) const { return state_.tasks.at(id).killed; }

  struct Job {
    sim::Time release;
    sim::Time absolute_deadline;
    sim::Time remaining;
    bool active = false;  ///< released and not yet completed
  };

  // --- snapshot-and-fork replay -------------------------------------------
  /// Task bodies and configs are structural; per-task dynamic state plus the
  /// in-flight slice bookkeeping is what forking needs, and what the
  /// scheduler holds.
  struct Snapshot {
    struct TaskImage {
      TaskStats stats;
      Job job;
      sim::Time next_release;
      sim::Time period;    ///< current rate; initialized from config, changed by set_period
      sim::Time deadline;  ///< current relative deadline
      double exec_factor = 1.0;
      bool killed = false;
    };
    std::vector<TaskImage> tasks;  ///< parallel to configs_
    std::uint64_t total_misses = 0;
    sim::Time busy_time = sim::Time::zero();
    int running = -1;            ///< task index currently "executing"
    bool slice_armed = false;    ///< a slice wait is outstanding
    std::size_t slice_task = 0;  ///< task the outstanding slice belongs to
    sim::Time slice_start = sim::Time::zero();
  };
  [[nodiscard]] Snapshot snapshot() const { return state_; }
  void restore(const Snapshot& s);

 private:
  using Task = Snapshot::TaskImage;

  [[nodiscard]] sim::Coro run();
  [[nodiscard]] int pick_ready() const;  ///< highest-priority active job, -1 if none
  void release_jobs();

  std::vector<TaskConfig> configs_;
  Snapshot state_;
  sim::Event reschedule_;
  sim::Event deadline_miss_;
};

}  // namespace vps::ecu
