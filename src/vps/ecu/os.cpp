#include "vps/ecu/os.hpp"

#include <algorithm>

#include "vps/support/ensure.hpp"

namespace vps::ecu {

using sim::Time;
using support::ensure;

OsScheduler::OsScheduler(sim::Kernel& kernel, std::string name)
    : Module(kernel, std::move(name)),
      reschedule_(kernel, this->name() + ".reschedule"),
      deadline_miss_(kernel, this->name() + ".deadline_miss") {
  spawn("dispatcher", run());
}

TaskId OsScheduler::add_task(TaskConfig config) {
  ensure(config.period > Time::zero(), "OsScheduler: task period must be positive");
  ensure(config.wcet > Time::zero(), "OsScheduler: task wcet must be positive");
  if (config.deadline == Time::zero()) config.deadline = config.period;
  Task t;
  t.period = config.period;
  t.deadline = config.deadline;
  t.next_release = now() + config.offset;
  state_.tasks.push_back(t);
  configs_.push_back(std::move(config));
  reschedule_.notify();
  return configs_.size() - 1;
}

void OsScheduler::set_period(TaskId id, Time period, Time deadline) {
  ensure(period > Time::zero(), "OsScheduler: task period must be positive");
  Task& t = state_.tasks.at(id);
  t.period = period;
  t.deadline = deadline == Time::zero() ? period : deadline;
  t.next_release = now() + period;
  reschedule_.notify();
}

void OsScheduler::set_execution_factor(TaskId id, double factor) {
  ensure(factor > 0.0, "OsScheduler: execution factor must be positive");
  state_.tasks.at(id).exec_factor = factor;
  reschedule_.notify();
}

void OsScheduler::kill_task(TaskId id) {
  Task& t = state_.tasks.at(id);
  t.killed = true;
  t.job.active = false;  // abandon any in-flight job
  reschedule_.notify();
}

void OsScheduler::revive_task(TaskId id) {
  Task& t = state_.tasks.at(id);
  if (!t.killed) return;
  t.killed = false;
  t.next_release = now();
  reschedule_.notify();
}

double OsScheduler::utilization() const noexcept {
  const double elapsed = now().to_seconds();
  return elapsed <= 0.0 ? 0.0 : state_.busy_time.to_seconds() / elapsed;
}

int OsScheduler::pick_ready() const {
  int best = -1;
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    const Task& t = state_.tasks[i];
    if (t.killed || !t.job.active) continue;
    if (best < 0 || configs_[i].priority > configs_[static_cast<std::size_t>(best)].priority) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

void OsScheduler::release_jobs() {
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    Task& t = state_.tasks[i];
    if (t.killed) continue;
    while (t.next_release <= now()) {
      if (t.job.active) {
        // Previous job still running at its next period: the release is
        // skipped (non-queued activation, OSEK "activation limit 1").
        ++t.stats.overruns_dropped;
      } else {
        t.job.active = true;
        t.job.release = t.next_release;
        t.job.absolute_deadline = t.next_release + t.deadline;
        t.job.remaining = Time::from_seconds(configs_[i].wcet.to_seconds() * t.exec_factor);
        if (t.job.remaining == Time::zero()) t.job.remaining = Time::ps(1);
        ++t.stats.activations;
      }
      t.next_release += t.period;
    }
  }
}

// Written in snapshot-replayable form: the in-flight slice (which task,
// when it started) lives in members and its completion is processed at the
// top of the loop, so a fresh coroutine resumed from the body top after
// Kernel::restore behaves exactly like the original resumed at its await.
sim::Coro OsScheduler::run() {
  for (;;) {
    if (state_.slice_armed) {
      state_.slice_armed = false;
      const Time ran = now() - state_.slice_start;
      state_.busy_time += ran;
      Task& t = state_.tasks[state_.slice_task];
      t.job.remaining = t.job.remaining > ran ? t.job.remaining - ran : Time::zero();

      if (t.job.active && t.job.remaining == Time::zero()) {
        // Job completion: functional effect + timing verdict.
        t.job.active = false;
        ++t.stats.completions;
        const Time response = now() - t.job.release;
        t.stats.total_response += response;
        t.stats.max_response = std::max(t.stats.max_response, response);
        if (now() > t.job.absolute_deadline) {
          ++t.stats.deadline_misses;
          ++state_.total_misses;
          deadline_miss_.notify();
        }
        if (const TaskConfig& c = configs_[state_.slice_task]; c.body) c.body();
      }
    }

    release_jobs();
    const int idx = pick_ready();

    // Earliest future release (for idle wait / preemption horizon).
    Time next_release = Time::max();
    for (const Task& t : state_.tasks) {
      if (!t.killed) next_release = std::min(next_release, t.next_release);
    }

    if (idx < 0) {
      state_.running = -1;
      if (next_release == Time::max()) {
        co_await reschedule_;
      } else {
        (void)co_await sim::wait_with_timeout(reschedule_, next_release - now());
      }
      continue;
    }

    Task& t = state_.tasks[static_cast<std::size_t>(idx)];
    if (state_.running >= 0 && state_.running != idx &&
        state_.tasks[static_cast<std::size_t>(state_.running)].job.active) {
      ++state_.tasks[static_cast<std::size_t>(state_.running)].stats.preemptions;
    }
    state_.running = idx;

    Time slice = t.job.remaining;
    if (next_release != Time::max()) slice = std::min(slice, next_release - now());
    state_.slice_task = static_cast<std::size_t>(idx);
    state_.slice_start = now();
    state_.slice_armed = true;
    if (slice > Time::zero()) {
      (void)co_await sim::wait_with_timeout(reschedule_, slice);
    }
  }
}

void OsScheduler::restore(const Snapshot& s) {
  // The assignment would resize a twin with another task set to fit the
  // snapshot, leaving tasks without configs; fail instead.
  ensure(s.tasks.size() == configs_.size(),
         "OsScheduler::restore: task count differs from snapshot");
  state_ = s;
}

}  // namespace vps::ecu
