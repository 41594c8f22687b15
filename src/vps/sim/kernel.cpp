#include "vps/sim/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "vps/support/ensure.hpp"

namespace vps::sim {

using support::ensure;

// ---------------------------------------------------------------------------
// Time
// ---------------------------------------------------------------------------

Time Time::from_seconds(double s) noexcept {
  if (s <= 0.0) return Time::zero();
  const double ps = s * 1e12;
  if (ps >= static_cast<double>(std::numeric_limits<std::uint64_t>::max())) return Time::max();
  return Time::ps(static_cast<std::uint64_t>(std::llround(ps)));
}

std::string Time::to_string() const {
  char buf[48];
  if (ps_ == 0) return "0s";
  if (ps_ % 1000000000000ULL == 0) {
    std::snprintf(buf, sizeof buf, "%llus", static_cast<unsigned long long>(ps_ / 1000000000000ULL));
  } else if (ps_ % 1000000000ULL == 0) {
    std::snprintf(buf, sizeof buf, "%llums", static_cast<unsigned long long>(ps_ / 1000000000ULL));
  } else if (ps_ % 1000000ULL == 0) {
    std::snprintf(buf, sizeof buf, "%lluus", static_cast<unsigned long long>(ps_ / 1000000ULL));
  } else if (ps_ % 1000ULL == 0) {
    std::snprintf(buf, sizeof buf, "%lluns", static_cast<unsigned long long>(ps_ / 1000ULL));
  } else {
    std::snprintf(buf, sizeof buf, "%llups", static_cast<unsigned long long>(ps_));
  }
  return buf;
}

// ---------------------------------------------------------------------------
// Coro
// ---------------------------------------------------------------------------

Coro& Coro::operator=(Coro&& other) noexcept {
  if (this != &other) {
    if (handle_) handle_.destroy();
    handle_ = other.handle_;
    other.handle_ = nullptr;
  }
  return *this;
}

Coro::~Coro() {
  if (handle_) handle_.destroy();
}

// ---------------------------------------------------------------------------
// Event
// ---------------------------------------------------------------------------

Event::Event(Kernel& kernel, std::string name) : kernel_(kernel), name_(std::move(name)) {
  kernel_.register_event(*this);
}

Event::~Event() { kernel_.unregister_event(*this); }

void Event::notify_immediate() {
  ++kernel_.stats_.notifications;
  for (KernelObserver* o : kernel_.observers_) o->on_event_notified(*this, kernel_.now_);
  fire();
}

void Event::notify() {
  ++kernel_.stats_.notifications;
  for (KernelObserver* o : kernel_.observers_) o->on_event_notified(*this, kernel_.now_);
  if (delta_pending_) return;
  delta_pending_ = true;
  kernel_.queue_delta_notification(*this);
}

void Event::notify(Time delay) { notify(delay, Kernel::kDrawSeq); }

void Event::notify(Time delay, std::uint64_t seq) {
  ++kernel_.stats_.notifications;
  for (KernelObserver* o : kernel_.observers_) o->on_event_notified(*this, kernel_.now_);
  // Note: unlike IEEE-1666 (where a later notification at an earlier time
  // overrides a pending one), every timed notification matures unless the
  // event is cancelled. All models in this repository are written against
  // these semantics.
  kernel_.queue_timed_notification(*this, delay, seq);
}

void Event::cancel() noexcept {
  ++notify_generation_;
  delta_pending_ = false;
}

void Event::append_dynamic(Process* p, std::uint64_t gen) {
  std::erase_if(dynamic_waiters_, [p](const DynamicWaiter& w) { return w.process == p; });
  dynamic_waiters_.push_back({p, gen});
}

void Event::fire() {
  ++fire_count_;
  delta_pending_ = false;
  for (Process* p : static_waiters_) {
    if (p->state_ != Process::State::kTerminated) kernel_.make_runnable(*p);
  }
  if (dynamic_waiters_.empty()) return;
  // fire() never nests (waking a waiter only queues it), so one kernel
  // scratch vector serves every event.
  std::vector<DynamicWaiter>& firing = kernel_.firing_;
  firing.swap(dynamic_waiters_);
  for (const DynamicWaiter& w : firing) {
    if (w.process->state_ == Process::State::kWaiting &&
        w.process->wait_generation_ == w.generation) {
      w.process->last_wait_timed_out_ = false;
      kernel_.make_runnable(*w.process);
    }
  }
  firing.clear();
}

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

Process::Process(Kernel& kernel, std::string name, Kind kind)
    : kernel_(kernel), name_(std::move(name)), kind_(kind),
      terminated_(std::make_unique<Event>(kernel, name_ + ".terminated")) {}

void Process::kill() {
  if (state_ == State::kTerminated) return;
  state_ = State::kTerminated;
  ++wait_generation_;  // invalidate pending wakeups
  resume_point_ = nullptr;
  terminated_->notify();
}

// ---------------------------------------------------------------------------
// Awaiters
// ---------------------------------------------------------------------------

bool DelayAwaiter::await_suspend(Coro::Handle h) {
  Process* p = h.promise().process;
  ensure(p != nullptr, "co_await delay() outside of a simulation process");
  return p->kernel_.timed_wait(*p, h, delay, p->bump_generation(), /*timeout_flag=*/false);
}

void EventAwaiter::await_suspend(Coro::Handle h) {
  Process* p = h.promise().process;
  ensure(p != nullptr, "co_await event outside of a simulation process");
  p->resume_point_ = h;
  event.add_dynamic(p, p->bump_generation());
}

bool TimedEventAwaiter::await_suspend(Coro::Handle h) {
  Process* p = h.promise().process;
  ensure(p != nullptr, "co_await wait_with_timeout outside of a simulation process");
  process = p;
  const std::uint64_t gen = p->bump_generation();
  event.add_dynamic(p, gen);
  // The timeout shares the generation of the event wait.
  return p->kernel_.timed_wait(*p, h, timeout, gen, /*timeout_flag=*/true, seq);
}

bool TimedEventAwaiter::await_resume() const noexcept {
  return process != nullptr && !process->last_wait_timed_out();
}

// ---------------------------------------------------------------------------
// Kernel
// ---------------------------------------------------------------------------

const char* to_string(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kIdle: return "idle";
    case StopReason::kTimeLimit: return "time_limit";
    case StopReason::kStopRequested: return "stop_requested";
    case StopReason::kActivationBudget: return "activation_budget";
    case StopReason::kDeltaBudget: return "delta_budget";
    case StopReason::kLivelock: return "livelock";
  }
  return "?";
}

Kernel::Kernel() = default;

Kernel::~Kernel() {
  // Processes own Events whose destructors deregister from the ordinal
  // registry; destroy them while live_events_/events_by_ordinal_ (declared
  // after processes_, hence destroyed first by default) are still alive.
  processes_.clear();
}

// ---------------------------------------------------------------------------
// TimedQueue
// ---------------------------------------------------------------------------

// std::greater on TimedEntry gives the same min-heap the old
// std::priority_queue<TimedEntry, vector, greater<>> maintained.
static constexpr auto timed_greater() noexcept {
  return [](const auto& a, const auto& b) { return a > b; };
}

void Kernel::TimedQueue::push(const TimedEntry& entry) {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), timed_greater());
}

void Kernel::TimedQueue::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), timed_greater());
  heap_.pop_back();
}

void Kernel::TimedQueue::assign(std::vector<TimedEntry> entries) {
  heap_ = std::move(entries);
  std::make_heap(heap_.begin(), heap_.end(), timed_greater());
}

void Kernel::add_observer(KernelObserver& observer) {
  ensure(!has_observer(observer), "Kernel::add_observer: observer already attached");
  observers_.push_back(&observer);
}

void Kernel::remove_observer(KernelObserver& observer) noexcept {
  std::erase(observers_, &observer);
}

bool Kernel::has_observer(const KernelObserver& observer) const noexcept {
  for (const KernelObserver* o : observers_) {
    if (o == &observer) return true;
  }
  return false;
}

Process& Kernel::spawn(std::string name, Coro coro) {
  ensure(coro.valid(), "spawn: coroutine is empty");
  auto process = std::unique_ptr<Process>(new Process(*this, std::move(name), Process::Kind::kThread));
  Process& p = *process;
  p.ordinal_ = static_cast<std::uint32_t>(processes_.size());
  p.coro_ = std::move(coro);
  auto& promise = p.coro_.handle().promise();
  promise.kernel = this;
  promise.process = &p;
  p.resume_point_ = p.coro_.handle();
  processes_.push_back(std::move(process));
  make_runnable(p);
  return p;
}

Process& Kernel::method(std::string name, std::function<void()> body,
                        std::vector<Event*> sensitivity, bool initialize) {
  ensure(static_cast<bool>(body), "method: body is empty");
  auto process = std::unique_ptr<Process>(new Process(*this, std::move(name), Process::Kind::kMethod));
  Process& p = *process;
  p.ordinal_ = static_cast<std::uint32_t>(processes_.size());
  p.body_ = std::move(body);
  for (Event* e : sensitivity) {
    ensure(e != nullptr, "method: null sensitivity event");
    e->add_static(&p);
  }
  processes_.push_back(std::move(process));
  if (initialize) make_runnable(p);
  return p;
}

bool Kernel::has_pending_activity() const noexcept {
  return !runnable_empty() || !update_requests_.empty() || !delta_notifications_.empty() ||
         !timed_.empty();
}

Time Kernel::next_activity_time() const noexcept {
  if (!runnable_empty() || !update_requests_.empty() || !delta_notifications_.empty()) return now_;
  if (!timed_.empty()) return timed_.top().when;
  return Time::max();
}

void Kernel::request_update(UpdateHook& hook) { update_requests_.push_back(&hook); }

void Kernel::queue_delta_notification(Event& event) { delta_notifications_.push_back(&event); }

// The seq of a new timed entry: the allocation counter's next, except for
// the first entry after a restore, which takes the reserved seq.
std::uint64_t Kernel::take_seq() {
  if (seq_phase_ < SeqPhase::kArmed) [[likely]] return next_seq_++;
  ensure(seq_phase_ == SeqPhase::kArmed,
         "Kernel: a second timed entry before the first delta boundary after restore() "
         "(only one process spawned onto a restored kernel may wait or notify then)");
  seq_phase_ = SeqPhase::kTaken;
  return init_seq_mark_;
}

void Kernel::queue_timed_notification(Event& event, Time delay, std::uint64_t seq) {
  TimedEntry entry;
  entry.when = now_ + delay;
  entry.seq = seq == kDrawSeq ? take_seq() : seq;
  entry.event = &event;
  entry.event_generation = event.notify_generation_;
  timed_.push(entry);
}

bool Kernel::timed_wait(Process& process, Coro::Handle h, Time delay, std::uint64_t gen,
                        bool timeout_flag, std::uint64_t seq) {
  const Time when = now_ + delay;
  const bool draw_seq = seq == kDrawSeq;
  if (delay != Time::zero() && inline_step(process, when, timeout_flag, draw_seq)) return false;
  TimedEntry entry;
  entry.when = when;
  entry.seq = draw_seq ? take_seq() : seq;
  entry.process = &process;
  entry.process_generation = gen;
  entry.timeout_flag = timeout_flag;
  timed_.push(entry);
  process.resume_point_ = h;
  return true;
}

// An inline timed step. The current process waits until `when`; if nothing
// else can happen by then, the queued path's next steps are fixed: an
// empty delta boundary, a time advance that pops only this entry (and the
// stale ones ahead of it) and an evaluate phase that runs only this
// process. Apply them here and let the process go on without suspending.
bool Kernel::inline_step(Process& p, Time when, bool timeout_flag, bool draw_seq) {
  if (!quiet_for(p) || !step_fits(when)) return false;
  if (draw_seq) ++next_seq_;  // the entry's seq
  apply_step(p, when, timeout_flag);
  return true;
}

void Kernel::make_runnable(Process& process) {
  if (process.queued_ || process.state_ == Process::State::kTerminated) return;
  process.queued_ = true;
  process.state_ = Process::State::kRunnable;
  runnable_.push_back(&process);
}

void Kernel::run_process(Process& p) {
  p.queued_ = false;
  if (p.state_ == Process::State::kTerminated) return;
  ++stats_.activations;
  ++p.activations_;
  current_ = &p;
  for (KernelObserver* o : observers_) o->on_process_activation(p, now_);
  if (p.kind_ == Process::Kind::kMethod) {
    try {
      p.body_();
    } catch (...) {
      pending_error_ = std::current_exception();
    }
  } else {
    auto h = p.resume_point_;
    p.resume_point_ = nullptr;
    if (h && !h.done()) {
      h.resume();
    }
    if (p.coro_.done()) {
      p.state_ = Process::State::kTerminated;
      p.terminated_->notify();
      if (auto ex = p.coro_.handle().promise().exception) pending_error_ = ex;
    }
  }
  current_ = nullptr;
  if (p.state_ != Process::State::kTerminated) p.state_ = Process::State::kWaiting;
}

bool Kernel::evaluate_phase() {
  const std::uint64_t activation_limit = activation_limit_;  // fixed for the run() call
  while (!runnable_empty()) {
    if (activation_limit != 0 && stats_.activations >= activation_limit) return false;
    Process* p = runnable_[runnable_head_++];
    run_process(*p);
  }
  runnable_.clear();
  runnable_head_ = 0;
  return true;
}

void Kernel::update_phase() {
  if (update_requests_.empty()) return;
  updating_.clear();  // holds entries only if a hook threw in the last phase
  updating_.swap(update_requests_);
  for (UpdateHook* hook : updating_) {
    hook->perform_update();
    ++stats_.updates;
  }
  updating_.clear();
}

void Kernel::delta_notification_phase() {
  if (delta_notifications_.empty()) return;
  notifying_.swap(delta_notifications_);
  for (Event* e : notifying_) {
    if (event_is_live(e) && e->delta_pending_) e->fire();
  }
  notifying_.clear();
}

void Kernel::rethrow_pending_error() {
  if (pending_error_) {
    auto ex = pending_error_;
    pending_error_ = nullptr;
    std::rethrow_exception(ex);
  }
}

bool Kernel::advance_time(Time until) {
  while (!timed_.empty()) {
    const TimedEntry& top = timed_.top();
    if (!entry_valid(top)) {
      timed_.pop();
      continue;
    }
    if (top.when > until) {
      now_ = until;
      return false;
    }
    now_ = top.when;
    ++stats_.timed_steps;
    for (KernelObserver* o : observers_) o->on_time_advance(now_);
    while (!timed_.empty() && timed_.top().when == now_) {
      TimedEntry e = timed_.top();
      timed_.pop();
      if (!entry_valid(e)) continue;
      if (e.event != nullptr) {
        e.event->fire();
      } else {
        e.process->last_wait_timed_out_ = e.timeout_flag;
        make_runnable(*e.process);
      }
    }
    return true;
  }
  return false;
}

RunStatus Kernel::budget_trip(StopReason reason) {
  const RunStatus status{reason, now_};
  for (KernelObserver* o : observers_) o->on_budget_trip(status);
  return status;
}

Time Kernel::run(Time until) { return run(until, RunBudget{}).time; }

RunStatus Kernel::run(Time until, const RunBudget& budget) {
  stop_requested_ = false;
  // Budgets are relative to the state at entry; convert to absolute
  // thresholds once so the hot loop compares against constants. With no
  // budget set this costs one branch per delta cycle (`limited`) and one per
  // activation (inside evaluate_phase) — measured against E3 in E16.
  const bool limited = !budget.unlimited();
  run_until_ = until;
  activation_limit_ =
      budget.max_activations == 0 ? 0 : stats_.activations + budget.max_activations;
  delta_limit_ = budget.max_delta_cycles == 0 ? 0 : stats_.delta_cycles + budget.max_delta_cycles;
  max_deltas_without_advance_ = budget.max_deltas_without_advance;
  deltas_without_advance_ = 0;
  while (true) {
    const bool evaluated_fully = evaluate_phase();
    if (seq_phase_ != SeqPhase::kSteady) [[unlikely]] {
      // End of a fresh kernel's first evaluate phase: every elaboration-time
      // process has taken its initial slice, so the seq reserved here is the
      // one a process spawned last would have drawn after them. A restored
      // kernel stops handing its reserved seq out here.
      if (seq_phase_ == SeqPhase::kElaboration) init_seq_mark_ = next_seq_++;
      seq_phase_ = SeqPhase::kSteady;
    }
    update_phase();
    delta_notification_phase();
    ++stats_.delta_cycles;
    for (KernelObserver* o : observers_) o->on_delta_cycle(now_);
    rethrow_pending_error();
    if (stop_requested_) return RunStatus{StopReason::kStopRequested, now_};
    if (limited) {
      // An evaluate phase cut short means max_activations tripped mid-phase
      // (the only way to bound an immediate-notification livelock, which
      // never reaches a delta boundary).
      if (!evaluated_fully) return budget_trip(StopReason::kActivationBudget);
      if (activation_limit_ != 0 && stats_.activations >= activation_limit_) {
        return budget_trip(StopReason::kActivationBudget);
      }
      if (delta_limit_ != 0 && stats_.delta_cycles >= delta_limit_) {
        return budget_trip(StopReason::kDeltaBudget);
      }
      ++deltas_without_advance_;
      if (max_deltas_without_advance_ != 0 &&
          deltas_without_advance_ >= max_deltas_without_advance_) {
        return budget_trip(StopReason::kLivelock);
      }
    }
    if (!runnable_empty()) continue;  // another delta cycle at the same time
    if (!advance_time(until)) {
      return RunStatus{timed_.empty() ? StopReason::kIdle : StopReason::kTimeLimit, now_};
    }
    deltas_without_advance_ = 0;
  }
}

// ---------------------------------------------------------------------------
// Snapshot / restore
// ---------------------------------------------------------------------------

KernelSnapshot Kernel::snapshot() const {
  ensure(current_ == nullptr && runnable_empty() && update_requests_.empty() &&
             delta_notifications_.empty() && !pending_error_,
         "Kernel::snapshot: kernel is not quiescent (call between run() calls)");
  ensure(seq_phase_ == SeqPhase::kSteady,
         "Kernel::snapshot: the kernel has not passed a delta boundary since construction or "
         "restore(), so its reserved seq is not settled");
  KernelSnapshot s;
  s.now = now_;
  s.next_seq = next_seq_;
  s.init_seq_mark = init_seq_mark_;
  s.stats = stats_;
  s.processes.reserve(processes_.size());
  for (const auto& p : processes_) {
    KernelSnapshot::ProcessImage img;
    img.state = static_cast<std::uint8_t>(p->state_);
    img.activations = p->activations_;
    img.wait_generation = p->wait_generation_;
    img.last_wait_timed_out = p->last_wait_timed_out_;
    s.processes.push_back(img);
  }
  s.events.reserve(events_by_ordinal_.size());
  for (const Event* e : events_by_ordinal_) {
    ensure(e != nullptr, "Kernel::snapshot: an event was destroyed during elaboration");
    KernelSnapshot::EventImage img;
    img.notify_generation = e->notify_generation_;
    img.fire_count = e->fire_count_;
    img.dynamic_waiters.reserve(e->dynamic_waiters_.size());
    for (const Event::DynamicWaiter& w : e->dynamic_waiters_) {
      img.dynamic_waiters.emplace_back(w.process->ordinal_, w.generation);
    }
    s.events.push_back(std::move(img));
  }
  s.timed.reserve(timed_.entries().size());
  for (const TimedEntry& e : timed_.entries()) {
    KernelSnapshot::TimedImage img;
    img.when = e.when;
    img.seq = e.seq;
    if (e.event != nullptr) {
      img.event_ordinal = e.event->ordinal_;
      img.event_generation = e.event_generation;
    } else {
      img.process_ordinal = e.process->ordinal_;
      img.process_generation = e.process_generation;
    }
    img.timeout_flag = e.timeout_flag;
    s.timed.push_back(img);
  }
  return s;
}

void Kernel::restore(const KernelSnapshot& snapshot) {
  ensure(current_ == nullptr, "Kernel::restore: kernel is mid-delta");
  // A never-run system may carry elaboration-time artifacts (initial signal
  // writes, delta notifications fired by module constructors). The snapshot
  // was taken after the source system consumed them, so they are superseded
  // by the overlay — discard rather than commit.
  for (UpdateHook* hook : update_requests_) hook->discard_update();
  update_requests_.clear();
  delta_notifications_.clear();
  ensure(processes_.size() == snapshot.processes.size() &&
             events_by_ordinal_.size() == snapshot.events.size(),
         "Kernel::restore: system shape differs from the snapshot source "
         "(processes/events must be created in the identical order)");
  // Fresh processes sit in the runnable queue awaiting their initial
  // dispatch; the snapshot's prefix already ran it, so park everything and
  // overlay the recorded scheduler state. Thread processes keep their fresh
  // never-started coroutine as the resume point — process bodies are written
  // so that running the body from the top with restored member state is
  // equivalent to resuming after the await the original was parked on.
  runnable_.clear();
  runnable_head_ = 0;
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    Process& p = *processes_[i];
    const KernelSnapshot::ProcessImage& img = snapshot.processes[i];
    p.queued_ = false;
    p.state_ = static_cast<Process::State>(img.state);
    p.activations_ = img.activations;
    p.wait_generation_ = img.wait_generation;
    p.last_wait_timed_out_ = img.last_wait_timed_out;
  }
  for (std::size_t i = 0; i < events_by_ordinal_.size(); ++i) {
    Event* e = events_by_ordinal_[i];
    ensure(e != nullptr, "Kernel::restore: an event was destroyed during elaboration");
    const KernelSnapshot::EventImage& img = snapshot.events[i];
    e->notify_generation_ = img.notify_generation;
    e->fire_count_ = img.fire_count;
    e->delta_pending_ = false;
    e->dynamic_waiters_.clear();
    for (const auto& [ordinal, generation] : img.dynamic_waiters) {
      ensure(ordinal < processes_.size(), "Kernel::restore: waiter ordinal out of range");
      e->dynamic_waiters_.push_back({processes_[ordinal].get(), generation});
    }
  }
  std::vector<TimedEntry> entries;
  entries.reserve(snapshot.timed.size());
  for (const KernelSnapshot::TimedImage& img : snapshot.timed) {
    TimedEntry e;
    e.when = img.when;
    e.seq = img.seq;
    if (img.event_ordinal >= 0) {
      ensure(static_cast<std::size_t>(img.event_ordinal) < events_by_ordinal_.size(),
             "Kernel::restore: event ordinal out of range");
      e.event = events_by_ordinal_[static_cast<std::size_t>(img.event_ordinal)];
      e.event_generation = img.event_generation;
    } else {
      ensure(img.process_ordinal >= 0 &&
                 static_cast<std::size_t>(img.process_ordinal) < processes_.size(),
             "Kernel::restore: process ordinal out of range");
      e.process = processes_[static_cast<std::size_t>(img.process_ordinal)].get();
      e.process_generation = img.process_generation;
    }
    e.timeout_flag = img.timeout_flag;
    entries.push_back(e);
  }
  timed_.assign(std::move(entries));
  now_ = snapshot.now;
  next_seq_ = snapshot.next_seq;
  init_seq_mark_ = snapshot.init_seq_mark;
  seq_phase_ = SeqPhase::kArmed;
  stats_ = snapshot.stats;
  stop_requested_ = false;
}

}  // namespace vps::sim
