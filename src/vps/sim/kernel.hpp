#pragma once

/// Discrete-event simulation kernel with SystemC-equivalent semantics:
/// evaluate / update / delta-notify cycles, timed event queue, method
/// processes (callback + static sensitivity) and thread processes
/// (C++20 coroutines with co_await on delays and events).
///
/// The kernel is the substrate that stands in for an IEEE-1666 SystemC
/// implementation in this reproduction; see DESIGN.md section 2.

#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "vps/sim/time.hpp"

namespace vps::sim {

class Kernel;
class Process;
class Event;

// ---------------------------------------------------------------------------
// Coroutine task type for thread processes.
// ---------------------------------------------------------------------------

/// A lazily-started coroutine owned either by a Process (top level) or by the
/// co_await expression of its caller (nested call). All framework coroutines
/// use this single type so that the kernel/process context propagates through
/// nested co_awaits.
class [[nodiscard]] Coro {
 public:
  class promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  class promise_type {
   public:
    Coro get_return_object() noexcept;
    std::suspend_always initial_suspend() noexcept { return {}; }
    auto final_suspend() noexcept;
    void return_void() noexcept {}
    void unhandled_exception() noexcept { exception = std::current_exception(); }

    Kernel* kernel = nullptr;
    Process* process = nullptr;
    std::coroutine_handle<> continuation;  // caller frame; null for top level
    std::exception_ptr exception;
  };

  Coro() noexcept = default;
  explicit Coro(Handle h) noexcept : handle_(h) {}
  Coro(Coro&& other) noexcept : handle_(other.handle_) { other.handle_ = nullptr; }
  Coro& operator=(Coro&& other) noexcept;
  Coro(const Coro&) = delete;
  Coro& operator=(const Coro&) = delete;
  ~Coro();

  [[nodiscard]] bool valid() const noexcept { return handle_ != nullptr; }
  [[nodiscard]] Handle handle() const noexcept { return handle_; }
  [[nodiscard]] bool done() const noexcept { return !handle_ || handle_.done(); }

  /// Awaiting a Coro runs it to completion within the awaiting process
  /// (symmetric transfer), then resumes the caller; exceptions propagate.
  auto operator co_await() && noexcept;

 private:
  Handle handle_;
};

// ---------------------------------------------------------------------------
// Event
// ---------------------------------------------------------------------------

/// Synchronization primitive equivalent to sc_event. Supports immediate,
/// delta and timed notification; method processes subscribe statically,
/// thread processes wait dynamically via co_await.
class Event {
 public:
  explicit Event(Kernel& kernel, std::string name = {});
  ~Event();
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  /// Triggers waiting processes within the current evaluation phase.
  void notify_immediate();
  /// Triggers at the end of the current delta cycle (after update phase).
  void notify();
  /// Triggers after the given simulated delay.
  void notify(Time delay);
  /// Triggers after `delay`, ordered by a `seq` drawn earlier by
  /// Kernel::reserve_seq instead of one drawn now.
  void notify(Time delay, std::uint64_t seq);
  /// Cancels pending delta/timed notifications.
  void cancel() noexcept;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t fire_count() const noexcept { return fire_count_; }
  [[nodiscard]] Kernel& kernel() const noexcept { return kernel_; }

  /// co_await support for thread processes.
  auto operator co_await() noexcept;

 private:
  friend class Kernel;
  friend class Process;
  friend struct EventAwaiter;
  friend struct TimedEventAwaiter;

  struct DynamicWaiter {
    Process* process;
    std::uint64_t generation;
  };

  void fire();  // called by the kernel when the notification matures
  void add_static(Process* p) { static_waiters_.push_back(p); }
  /// A process waits on one thing at a time, so its earlier entry here is
  /// stale: erasing it before the append keeps the list at one entry per
  /// process and the live waiters in their wake order. A process that
  /// waits on the same event again is usually its last entry already,
  /// and then only the generation changes.
  void add_dynamic(Process* p, std::uint64_t gen) {
    if (!dynamic_waiters_.empty() && dynamic_waiters_.back().process == p) [[likely]] {
      dynamic_waiters_.back().generation = gen;
      return;
    }
    append_dynamic(p, gen);
  }
  void append_dynamic(Process* p, std::uint64_t gen);  ///< add_dynamic's erase and append

  Kernel& kernel_;
  std::string name_;
  std::vector<Process*> static_waiters_;
  std::vector<DynamicWaiter> dynamic_waiters_;
  std::uint64_t notify_generation_ = 0;  // bump to invalidate queued notifications
  bool delta_pending_ = false;
  std::uint64_t fire_count_ = 0;
  std::uint32_t ordinal_ = 0;  // registration order; snapshot identity
};

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

/// A schedulable unit: either a method (callback re-run on sensitivity) or a
/// thread (coroutine resumed at its last suspension point).
class Process {
 public:
  enum class Kind : std::uint8_t { kMethod, kThread };
  enum class State : std::uint8_t { kWaiting, kRunnable, kTerminated };

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] bool done() const noexcept { return state_ == State::kTerminated; }
  /// Number of times this process has been activated by the scheduler.
  [[nodiscard]] std::uint64_t activation_count() const noexcept { return activations_; }
  /// Fired (delta) once when the process terminates; lets parents join forks.
  [[nodiscard]] Event& terminated_event() noexcept { return *terminated_; }
  /// True when the last co_await with a timeout expired before the event.
  [[nodiscard]] bool last_wait_timed_out() const noexcept { return last_wait_timed_out_; }

  /// Invalidates any pending wait so the process never resumes again
  /// (thread) or never re-triggers (method). Used by fault injectors to
  /// model a hung component.
  void kill();

 private:
  friend class Kernel;
  friend class Event;
  friend struct DelayAwaiter;
  friend struct EventAwaiter;
  friend struct TimedEventAwaiter;

  Process(Kernel& kernel, std::string name, Kind kind);

  std::uint64_t bump_generation() noexcept { return ++wait_generation_; }

  Kernel& kernel_;
  std::string name_;
  Kind kind_;
  State state_ = State::kWaiting;
  std::uint64_t activations_ = 0;

  // Method processes.
  std::function<void()> body_;

  // Thread processes.
  Coro coro_;                             // owns the top-level frame
  std::coroutine_handle<> resume_point_;  // innermost suspended frame
  std::uint64_t wait_generation_ = 0;     // invalidates stale wakeups
  bool last_wait_timed_out_ = false;

  std::unique_ptr<Event> terminated_;
  bool queued_ = false;  // already in the runnable queue
  std::uint32_t ordinal_ = 0;  // spawn order; snapshot identity
};

// ---------------------------------------------------------------------------
// Update hook (primitive-channel update phase)
// ---------------------------------------------------------------------------

/// Channels (e.g. Signal<T>) implement this to take part in the update phase.
class UpdateHook {
 public:
  virtual ~UpdateHook() = default;
  virtual void perform_update() = 0;
  /// Drops a requested-but-unperformed update without committing it. Called
  /// by Kernel::restore when a snapshot overlay supersedes pending
  /// elaboration-time writes (the snapshot already contains their consumed
  /// effects — or their restored absence).
  virtual void discard_update() noexcept = 0;
};

// ---------------------------------------------------------------------------
// Kernel
// ---------------------------------------------------------------------------

/// Scheduler statistics exposed for the paper's kernel-overhead experiments
/// (EXPERIMENTS.md E3).
struct KernelStats {
  std::uint64_t activations = 0;       ///< process activations (context switches)
  std::uint64_t delta_cycles = 0;      ///< completed delta cycles
  std::uint64_t timed_steps = 0;       ///< time advances
  std::uint64_t notifications = 0;     ///< event notify() calls
  std::uint64_t updates = 0;           ///< channel updates performed
};

/// Watchdog budget for a single Kernel::run call. Faulted models can spin
/// forever in zero-time activity (a process that keeps re-notifying, a
/// combinational loop, a corrupted scheduler table); a budget bounds the run
/// without reference to wall-clock time so results stay deterministic. All
/// limits are relative to the state at the start of the run call; 0 disables
/// the corresponding limit. With every limit disabled the scheduler pays one
/// branch per delta cycle plus one per activation (measured in E16).
struct RunBudget {
  /// Maximum process activations before the run stops (0 = unlimited).
  /// Catches livelocks that never finish an evaluate phase (immediate
  /// self-notification), which the delta-based limits cannot see.
  std::uint64_t max_activations = 0;
  /// Maximum completed delta cycles before the run stops (0 = unlimited).
  std::uint64_t max_delta_cycles = 0;
  /// Livelock heuristic: stop after this many consecutive delta cycles
  /// without simulated time advancing (0 = disabled). A healthy model
  /// settles in a handful of deltas per instant; a faulted one can delta
  /// forever at the same timestamp.
  std::uint64_t max_deltas_without_advance = 0;

  [[nodiscard]] bool unlimited() const noexcept {
    return max_activations == 0 && max_delta_cycles == 0 && max_deltas_without_advance == 0;
  }
};

/// Why a budgeted run returned.
enum class StopReason : std::uint8_t {
  kIdle,              ///< no activity remains
  kTimeLimit,         ///< simulated time reached `until`
  kStopRequested,     ///< Kernel::stop() was called
  kActivationBudget,  ///< RunBudget::max_activations exhausted
  kDeltaBudget,       ///< RunBudget::max_delta_cycles exhausted
  kLivelock,          ///< RunBudget::max_deltas_without_advance tripped
};

[[nodiscard]] const char* to_string(StopReason reason) noexcept;

/// Structured result of a budgeted run: how it stopped and when.
struct RunStatus {
  StopReason reason = StopReason::kIdle;
  Time time;  ///< simulated time at which the run stopped

  /// True when the run was cut short by its RunBudget (as opposed to
  /// finishing, hitting the time limit, or an orderly stop()).
  [[nodiscard]] bool budget_exhausted() const noexcept {
    return reason == StopReason::kActivationBudget || reason == StopReason::kDeltaBudget ||
           reason == StopReason::kLivelock;
  }
};

/// Passive scheduler observer: the attachment point for the structured
/// observability layer (obs::KernelTracer). Callbacks fire synchronously on
/// the simulation thread; with no observer attached the kernel pays a single
/// empty-vector test per scheduler action, which keeps disabled-tracing
/// overhead within the E15 budget. KernelStats stays the cheap aggregate
/// view; an observer refines it into per-process / per-event attribution.
/// Any number of observers may attach (Kernel::add_observer); callbacks fire
/// in attachment order. An evaluation slice takes no simulated time, so
/// there is no hook for its return: the activation callback marks it whole.
/// An attached observer sees every delta cycle, time advance and
/// activation, so it also turns the kernel's inline timed steps off.
class KernelObserver {
 public:
  virtual ~KernelObserver() = default;
  // Every callback defaults to a no-op: with multiple observers attached,
  // most care about a single hook (a budget watchdog, a delta counter) and
  // should not have to stub out the rest.
  /// A process was dequeued and is about to run its evaluation slice.
  virtual void on_process_activation(const Process& process, Time now) { (void)process, (void)now; }
  /// An event notification was requested (immediate, delta or timed).
  virtual void on_event_notified(const Event& event, Time now) { (void)event, (void)now; }
  /// One evaluate/update/delta-notify cycle completed.
  virtual void on_delta_cycle(Time now) { (void)now; }
  /// Simulated time advanced to `now`.
  virtual void on_time_advance(Time now) { (void)now; }
  /// A RunBudget limit cut the run short.
  virtual void on_budget_trip(const RunStatus& status) { (void)status; }
};

/// Value-type image of the scheduler state at a quiescent instant (between
/// Kernel::run calls). Processes and events are identified by *ordinal* —
/// spawn order and registration order respectively — so an image taken from
/// one kernel can be restored onto a freshly elaborated twin built in the
/// identical construction order. Coroutine frames are NOT captured: restore
/// relies on process bodies being written so that resuming from the top of
/// the body with restored member state is equivalent to resuming after the
/// await the original was parked on (see DESIGN.md "Replay engine").
struct KernelSnapshot {
  struct ProcessImage {
    std::uint8_t state = 0;  // Process::State
    std::uint64_t activations = 0;
    std::uint64_t wait_generation = 0;
    bool last_wait_timed_out = false;
  };
  struct EventImage {
    std::uint64_t notify_generation = 0;
    std::uint64_t fire_count = 0;
    /// (process ordinal, wait generation) of each parked dynamic waiter.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> dynamic_waiters;
  };
  struct TimedImage {
    Time when;
    std::uint64_t seq = 0;
    std::int64_t event_ordinal = -1;    // -1: process entry
    std::uint64_t event_generation = 0;
    std::int64_t process_ordinal = -1;  // -1: event entry
    std::uint64_t process_generation = 0;
    bool timeout_flag = false;
  };

  Time now;
  std::uint64_t next_seq = 0;
  /// The seq the source's first evaluate phase reserved (see restore()).
  std::uint64_t init_seq_mark = 0;
  KernelStats stats;
  std::vector<ProcessImage> processes;
  std::vector<EventImage> events;
  std::vector<TimedImage> timed;
};

class Kernel {
 public:
  Kernel();
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Registers a thread process; it becomes runnable at the current time.
  Process& spawn(std::string name, Coro coro);

  /// Registers a method process with static sensitivity. When initialize is
  /// true the method also runs once at the start of simulation.
  Process& method(std::string name, std::function<void()> body,
                  std::vector<Event*> sensitivity = {}, bool initialize = true);

  [[nodiscard]] Time now() const noexcept { return now_; }
  [[nodiscard]] const KernelStats& stats() const noexcept { return stats_; }

  /// Attaches a scheduler observer; callbacks fire in attachment order. The
  /// observer must outlive its attachment (detach via remove_observer).
  /// ensure()-fails on a duplicate attach — the single-slot set_observer it
  /// replaces silently evicted the previous observer, which lost trace data.
  void add_observer(KernelObserver& observer);
  /// Detaches an observer; no-op when it is not attached.
  void remove_observer(KernelObserver& observer) noexcept;
  [[nodiscard]] bool has_observer(const KernelObserver& observer) const noexcept;
  [[nodiscard]] std::size_t observer_count() const noexcept { return observers_.size(); }

  [[nodiscard]] Process* current_process() const noexcept { return current_; }
  [[nodiscard]] bool has_pending_activity() const noexcept;
  [[nodiscard]] Time next_activity_time() const noexcept;

  /// Runs until no activity remains or simulated time would exceed `until`.
  /// Returns the time at which simulation stopped.
  Time run(Time until = Time::max());
  /// Budgeted run: stops additionally when any RunBudget limit is exhausted
  /// and reports how it stopped. A trip leaves the kernel consistent (no
  /// torn delta cycle is visible to models) but pending activity remains
  /// queued; the campaign layer classifies such runs as Outcome::kTimeout.
  RunStatus run(Time until, const RunBudget& budget);
  /// Runs for a further duration from now().
  Time run_for(Time duration) { return run(now_ + duration); }
  /// Budgeted variant of run_for (saturating, so duration may be Time::max()).
  RunStatus run_for(Time duration, const RunBudget& budget) {
    return run(now_ + duration, budget);
  }
  /// Runs with no time limit until idle, stop() or a budget trip.
  RunStatus run_until_idle(const RunBudget& budget = RunBudget{}) {
    return run(Time::max(), budget);
  }
  /// Requests an orderly stop at the end of the current delta cycle.
  void stop() noexcept { stop_requested_ = true; }
  [[nodiscard]] bool stop_requested() const noexcept { return stop_requested_; }

  // --- cloneable scheduler state (snapshot-and-fork replay) -----------------

  /// Captures the scheduler state at a quiescent instant (no runnable
  /// processes, no pending update/delta phases — i.e. between run() calls).
  /// ensure()-fails when called mid-delta.
  [[nodiscard]] KernelSnapshot snapshot() const;
  /// Overlays a snapshot onto a freshly elaborated kernel whose processes
  /// and events were created in the identical order as the snapshot source.
  /// All pending timed entries, waiter registrations and generations are
  /// recreated; fresh never-started coroutines stand in for the original
  /// frames (see KernelSnapshot). ensure()-fails on a shape mismatch.
  ///
  /// The end of every kernel's first evaluate phase reserves one seq, the
  /// one a process spawned last at elaboration would have drawn after all
  /// the others. restore() hands it out once: the first timed entry made
  /// before the next delta boundary takes it and is never applied inline,
  /// and a second one throws. A process spawned onto the restored kernel
  /// (a forked fault injection) thus orders its first wait exactly as if
  /// it had been spawned last at elaboration of the uncut run.
  void restore(const KernelSnapshot& snapshot);
  /// Timed waits applied in place (see DESIGN.md "Inline timed steps"): a
  /// diagnostic, outside KernelStats and KernelSnapshot, that restore()
  /// leaves alone.
  [[nodiscard]] std::uint64_t inline_steps() const noexcept { return inline_steps_; }

  /// One wait of a run inline_waits() applies: the wait's delay, and how
  /// many seqs the process draws (reserve_seq) in the slice before it.
  struct InlineWait {
    Time delay;
    std::uint64_t seqs = 0;
  };
  /// Applies in place a run of timed waits of the current thread process:
  /// wait i lasts cycle[i % n].delay and follows the slice that draws
  /// cycle[i % n].seqs seqs. Each is a `co_await delay(...)`, or with
  /// `event` a `co_await wait_with_timeout(*event, ...)` that times out.
  /// At each applied wait's end, with now() there, `land(now())` runs the
  /// slice after it and returns false to end the run. Each wait must pass
  /// every condition an inline timed step checks (DESIGN.md §11), checked
  /// after the slice before it; the first that does not ends the run, and
  /// the caller makes that wait for real. Each applied wait moves what its
  /// inline step would: the seqs, the stats, the process's activations,
  /// wait generation and timeout flag, its registration on `event`, the
  /// stale timed entries due by its end and inline_steps(). Returns the
  /// number of waits applied (DESIGN.md §13, §14).
  template <typename Land>
  [[nodiscard]] std::uint64_t inline_waits(std::span<const InlineWait> cycle, Land&& land,
                                           Event* event = nullptr);
  /// The seq the next timed entry or reserve_seq() draws.
  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }

  /// Marks a timed wait that draws its seq when it is made.
  static constexpr std::uint64_t kDrawSeq = ~std::uint64_t{0};
  /// Draws now the seq of a timed entry made later by wait_with_timeout
  /// or Event::notify with that seq: the entry orders among the entries
  /// due at its instant as one made now would. Only one valid entry may
  /// hold a seq at a time; such an entry leaves restore()'s reserved seq
  /// to the next drawing one.
  [[nodiscard]] std::uint64_t reserve_seq() noexcept { return next_seq_++; }

  // --- internal scheduling interface (used by Event / awaiters / channels) --
  void request_update(UpdateHook& hook);
  void queue_delta_notification(Event& event);
  void queue_timed_notification(Event& event, Time delay, std::uint64_t seq);
  /// A timed wait of the current process `process` for `delay`, whose
  /// generation `gen` the caller has bumped: queues its resume entry (a
  /// timeout for wait_with_timeout when `timeout_flag`) under `seq`, or a
  /// fresh one for kDrawSeq, and parks the process at `h`, or, when the
  /// entry would be the next and only activation, applies the steps the
  /// queued path would take in place. Returns true when the awaiter must
  /// suspend.
  [[nodiscard]] bool timed_wait(Process& process, Coro::Handle h, Time delay, std::uint64_t gen,
                                bool timeout_flag, std::uint64_t seq = kDrawSeq);
  void make_runnable(Process& process);
  [[nodiscard]] bool event_is_live(const Event* e) const {
    return live_events_.contains(e);
  }

 private:
  friend class Event;

  struct TimedEntry {
    Time when;
    std::uint64_t seq;  // insertion order for deterministic FIFO at same time
    Event* event = nullptr;
    std::uint64_t event_generation = 0;
    Process* process = nullptr;
    std::uint64_t process_generation = 0;
    bool timeout_flag = false;

    bool operator>(const TimedEntry& other) const noexcept {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  /// Min-heap over TimedEntry with the same pop order as the
  /// std::priority_queue it replaces, but with the backing vector readable
  /// (snapshot()) and assignable (restore()). The valid entries' (when, seq)
  /// keys are unique (a reserved seq may also key stale entries of the
  /// same wait), so heap layout never affects the order they pop in.
  class TimedQueue {
   public:
    [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
    [[nodiscard]] const TimedEntry& top() const noexcept { return heap_.front(); }
    void push(const TimedEntry& entry);
    void pop();
    [[nodiscard]] const std::vector<TimedEntry>& entries() const noexcept { return heap_; }
    void assign(std::vector<TimedEntry> entries);

   private:
    std::vector<TimedEntry> heap_;
  };

  void register_event(Event& e) {
    e.ordinal_ = static_cast<std::uint32_t>(events_by_ordinal_.size());
    events_by_ordinal_.push_back(&e);
    live_events_.insert(&e);
  }
  void unregister_event(Event& e) {
    if (e.ordinal_ < events_by_ordinal_.size() && events_by_ordinal_[e.ordinal_] == &e) {
      events_by_ordinal_[e.ordinal_] = nullptr;
    }
    live_events_.erase(&e);
  }

  void run_process(Process& p);
  /// Runs runnable processes until the queue drains or activation_limit_
  /// is reached. Returns false when the limit cut the phase short.
  bool evaluate_phase();
  void update_phase();
  void delta_notification_phase();
  // Inline: all of these sit on the per-wait path, and the in-place ones
  // are forced inline, into timed_wait and into every inline_waits
  // caller. The first four are defined below the class; the others in
  // kernel.cpp.
  [[nodiscard, gnu::always_inline]] inline bool entry_valid(const TimedEntry& e) const;
  [[nodiscard, gnu::always_inline]] inline bool quiet_for(const Process& p) const;
  [[nodiscard, gnu::always_inline]] inline bool step_fits(Time when);
  [[gnu::always_inline]] inline void apply_step(Process& p, Time when, bool timeout_flag);
  [[nodiscard]] inline std::uint64_t take_seq();
  bool advance_time(Time until);
  [[nodiscard, gnu::always_inline]] inline bool inline_step(Process& p, Time when,
                                                            bool timeout_flag, bool draw_seq);
  void rethrow_pending_error();
  RunStatus budget_trip(StopReason reason);

  Time now_ = Time::zero();
  bool stop_requested_ = false;
  Process* current_ = nullptr;
  std::vector<KernelObserver*> observers_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t init_seq_mark_ = 0;  // the reserved seq (see restore())
  // Until the first delta boundary of a fresh or restored kernel, no wait is
  // applied inline, and after a restore the next timed entry takes
  // init_seq_mark_ (kArmed) and a further one throws (kTaken). take_seq()
  // relies on the order: below kArmed, entries take next_seq_.
  enum class SeqPhase : std::uint8_t { kSteady, kElaboration, kArmed, kTaken };
  SeqPhase seq_phase_ = SeqPhase::kElaboration;
  KernelStats stats_;
  std::exception_ptr pending_error_;
  std::uint64_t inline_steps_ = 0;

  // The current run() call: its time limit, its RunBudget as absolute
  // thresholds (0 = none) and its livelock counter. Members, not locals,
  // so an inline timed step can tell whether the delta boundary it skips
  // would trip a limit.
  Time run_until_ = Time::max();
  std::uint64_t activation_limit_ = 0;
  std::uint64_t delta_limit_ = 0;
  std::uint64_t max_deltas_without_advance_ = 0;
  std::uint64_t deltas_without_advance_ = 0;

  std::vector<std::unique_ptr<Process>> processes_;
  /// Runnable FIFO: [runnable_head_, end) is queued. A vector that is
  /// cleared once drained keeps its capacity, where a deque allocates a
  /// block every few dozen activations.
  std::vector<Process*> runnable_;
  std::size_t runnable_head_ = 0;
  [[nodiscard]] bool runnable_empty() const noexcept { return runnable_head_ == runnable_.size(); }
  std::vector<UpdateHook*> update_requests_;
  std::vector<Event*> delta_notifications_;
  // Scratch vectors the three dispatch loops swap their queue into, so no
  // queue loses its capacity; each is empty outside its loop.
  std::vector<Event::DynamicWaiter> firing_;  // Event::fire()
  std::vector<UpdateHook*> updating_;         // update_phase()
  std::vector<Event*> notifying_;             // delta_notification_phase()
  TimedQueue timed_;
  std::unordered_set<const Event*> live_events_;
  std::vector<Event*> events_by_ordinal_;  // registration order; null = destroyed
};

// ---------------------------------------------------------------------------
// Awaiters
// ---------------------------------------------------------------------------

/// co_await delay(t): suspends the current thread process for t, or goes
/// on in place when its resume would be the next and only activation.
struct DelayAwaiter {
  Time delay;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  bool await_suspend(Coro::Handle h);
  void await_resume() const noexcept {}
};

[[nodiscard]] inline DelayAwaiter delay(Time t) noexcept { return DelayAwaiter{t}; }

/// co_await event: suspends until the event fires.
struct EventAwaiter {
  Event& event;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(Coro::Handle h);
  void await_resume() const noexcept {}
};

inline auto Event::operator co_await() noexcept { return EventAwaiter{*this}; }

/// co_await wait_with_timeout(event, t): resumes on whichever comes first;
/// await_resume returns true when the event fired, false on timeout. A
/// `seq` drawn earlier by Kernel::reserve_seq keys the timeout entry, so it
/// orders as an entry made at that draw would.
struct TimedEventAwaiter {
  Event& event;
  Time timeout;
  std::uint64_t seq = Kernel::kDrawSeq;  ///< the timeout entry's seq
  Process* process = nullptr;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  bool await_suspend(Coro::Handle h);
  [[nodiscard]] bool await_resume() const noexcept;
};

[[nodiscard]] inline TimedEventAwaiter wait_with_timeout(
    Event& e, Time t, std::uint64_t seq = Kernel::kDrawSeq) noexcept {
  return TimedEventAwaiter{e, t, seq};
}

// --- inline implementations needing complete types -------------------------

inline bool Kernel::entry_valid(const TimedEntry& e) const {
  if (e.event != nullptr) {
    return event_is_live(e.event) && e.event->notify_generation_ == e.event_generation;
  }
  return e.process->state_ == Process::State::kWaiting &&
         e.process->wait_generation_ == e.process_generation;
}

// The conditions of an inline timed step that only the process's own slice
// can move: nothing but the current process `p` is due at the next delta
// boundary, and nothing must see that boundary.
inline bool Kernel::quiet_for(const Process& p) const {
  return runnable_empty() && delta_notifications_.empty() && update_requests_.empty() &&
         observers_.empty() && seq_phase_ == SeqPhase::kSteady && current_ == &p &&
         p.state_ != Process::State::kTerminated && !stop_requested_ && !pending_error_;
}

// The conditions of an inline step whose wait ends at `when`: it ends
// within the run, the delta boundary and the activation it skips trip no
// limit, and no valid timed entry is due by `when`. A valid entry due by
// then pops first on the queued path. The stale ones due by then are
// exactly those advance_time would pop; popping them here changes nothing
// the queued path would not.
inline bool Kernel::step_fits(Time when) {
  if (when > run_until_) return false;
  if ((activation_limit_ != 0 && stats_.activations >= activation_limit_) ||
      (delta_limit_ != 0 && stats_.delta_cycles + 1 >= delta_limit_) ||
      (max_deltas_without_advance_ != 0 &&
       deltas_without_advance_ + 1 >= max_deltas_without_advance_)) {
    return false;
  }
  while (!timed_.empty() && timed_.top().when <= when) {
    if (entry_valid(timed_.top())) return false;
    timed_.pop();
  }
  return true;
}

// What an inline step of process `p`, ending at `when`, leaves: a delta
// cycle, a time advance and an activation.
inline void Kernel::apply_step(Process& p, Time when, bool timeout_flag) {
  ++stats_.delta_cycles;
  deltas_without_advance_ = 0;
  now_ = when;
  ++stats_.timed_steps;
  ++stats_.activations;
  ++p.activations_;
  p.last_wait_timed_out_ = timeout_flag;
  ++inline_steps_;
}

// A run of inline steps, each checked as inline_step checks one, after the
// slice before it: that slice may have made another process runnable,
// notified, or stopped the kernel.
template <typename Land>
std::uint64_t Kernel::inline_waits(std::span<const InlineWait> cycle, Land&& land, Event* event) {
  Process* p = current_;
  if (p == nullptr || p->kind_ != Process::Kind::kThread || cycle.empty()) return 0;
  std::uint64_t applied = 0;
  for (std::size_t i = 0; quiet_for(*p); i = i + 1 == cycle.size() ? 0 : i + 1) {
    const InlineWait& wait = cycle[i];
    const Time when = now_ + wait.delay;
    if (wait.delay == Time::zero() || !step_fits(when)) break;
    next_seq_ += wait.seqs + 1;  // the slice's draws and the wait entry's own seq
    const std::uint64_t gen = p->bump_generation();
    if (event != nullptr) event->add_dynamic(p, gen);
    apply_step(*p, when, /*timeout_flag=*/event != nullptr);
    ++applied;
    if (!land(when)) break;
  }
  return applied;
}

inline Coro Coro::promise_type::get_return_object() noexcept {
  return Coro(Handle::from_promise(*this));
}

inline auto Coro::promise_type::final_suspend() noexcept {
  struct FinalAwaiter {
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(Coro::Handle h) noexcept {
      auto& p = h.promise();
      if (p.continuation) return p.continuation;
      return std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };
  return FinalAwaiter{};
}

inline auto Coro::operator co_await() && noexcept {
  struct CoroAwaiter {
    Coro::Handle callee;
    [[nodiscard]] bool await_ready() const noexcept { return !callee || callee.done(); }
    std::coroutine_handle<> await_suspend(Coro::Handle caller) noexcept {
      auto& cp = callee.promise();
      cp.continuation = caller;
      cp.kernel = caller.promise().kernel;
      cp.process = caller.promise().process;
      return callee;  // symmetric transfer into the child coroutine
    }
    void await_resume() const {
      if (callee && callee.promise().exception) {
        std::rethrow_exception(callee.promise().exception);
      }
    }
  };
  return CoroAwaiter{handle_};
}

}  // namespace vps::sim
