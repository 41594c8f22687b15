#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "vps/sim/kernel.hpp"

namespace vps::sim {

/// Handle returned by Signal<T>::add_commit_hook; never reused per signal.
using CommitHookId = std::uint64_t;

/// Primitive channel with sc_signal semantics: writes during the evaluation
/// phase become visible in the next delta cycle; the value-changed event
/// fires only when the committed value actually differs.
template <typename T>
class Signal final : public UpdateHook {
 public:
  Signal(Kernel& kernel, std::string name, T initial = T{})
      : kernel_(kernel),
        name_(std::move(name)),
        state_{.value = initial},
        next_(initial),
        changed_(kernel, name_ + ".changed") {}

  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;

  [[nodiscard]] const T& read() const noexcept { return state_.value; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Event& changed() noexcept { return changed_; }
  [[nodiscard]] Kernel& kernel() noexcept { return kernel_; }
  [[nodiscard]] std::uint64_t change_count() const noexcept { return state_.change_count; }

  /// Schedules the value for commit at the next update phase. The last write
  /// within one evaluation phase wins.
  void write(const T& value) {
    next_ = value;
    if (!update_pending_) {
      update_pending_ = true;
      kernel_.request_update(*this);
    }
  }

  /// Bypasses the delta protocol: sets the value immediately and fires the
  /// changed event as an immediate notification. Used by fault injectors to
  /// model asynchronous upsets that do not respect the design's clocking.
  void force(const T& value) {
    if (value == state_.value) return;
    state_.value = value;
    next_ = value;
    ++state_.change_count;
    run_commit_hooks();
    changed_.notify_immediate();
  }

  /// force() plus a provenance tag: the committed value is marked as carrying
  /// fault `fault_id` until the next clean commit overwrites it. The sim
  /// layer cannot depend on obs, so the tag is a dumb integer here;
  /// obs::ProvenanceTracker::watch_signal turns tagged commits into
  /// propagation observations.
  void force_poisoned(const T& value, std::uint64_t fault_id) {
    state_.poison_id = fault_id;
    force(value);
  }

  /// Fault id of the last poisoned force, or 0 once a clean write committed.
  [[nodiscard]] std::uint64_t poison_id() const noexcept { return state_.poison_id; }

  /// Registers an observation hook (tracer, monitor, scoreboard); every
  /// registered hook runs in registration order after each commit. Returns a
  /// handle for remove_commit_hook, so independent observers can attach and
  /// detach without evicting each other (the old single-slot set_commit_hook
  /// silently dropped whichever observer attached first).
  CommitHookId add_commit_hook(std::function<void(const T&)> hook) {
    const CommitHookId id = next_hook_id_++;
    hooks_.push_back({id, std::move(hook)});
    return id;
  }

  /// Detaches a hook; unknown handles are ignored.
  void remove_commit_hook(CommitHookId id) {
    std::erase_if(hooks_, [id](const Hook& h) { return h.id == id; });
  }

  [[nodiscard]] std::size_t commit_hook_count() const noexcept { return hooks_.size(); }

  /// Value-type image for snapshot-and-fork replay, and the committed
  /// state itself. Taken at a quiescent instant (no update pending), so
  /// current == next by construction.
  struct Snapshot {
    T value{};  ///< the committed (current) value
    std::uint64_t poison_id = 0;
    std::uint64_t change_count = 0;
  };

  [[nodiscard]] Snapshot snapshot() const { return state_; }

  /// Silently overlays a snapshot: no commit hooks run and no changed event
  /// fires (the changed event's scheduler state is restored by
  /// Kernel::restore, keyed by event ordinal).
  void restore(const Snapshot& s) {
    state_ = s;
    // The pending write is not state: a snapshot holds none, and the
    // twin's own (an elaboration-time write) is superseded by the overlay.
    next_ = s.value;
    update_pending_ = false;
  }

  void discard_update() noexcept override {
    update_pending_ = false;
    next_ = state_.value;
  }

  void perform_update() override {
    update_pending_ = false;
    if (next_ == state_.value) return;
    state_.value = next_;
    state_.poison_id = 0;  // a clean delta-protocol commit overwrites the fault value
    ++state_.change_count;
    run_commit_hooks();
    changed_.notify();
  }

 private:
  struct Hook {
    CommitHookId id;
    std::function<void(const T&)> fn;
  };

  void run_commit_hooks() {
    for (const Hook& hook : hooks_) hook.fn(state_.value);
  }

  Kernel& kernel_;
  std::string name_;
  Snapshot state_;
  T next_;
  Event changed_;
  bool update_pending_ = false;
  std::vector<Hook> hooks_;
  CommitHookId next_hook_id_ = 1;
};

}  // namespace vps::sim
