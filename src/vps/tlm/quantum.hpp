#pragma once

#include "vps/sim/kernel.hpp"
#include "vps/sim/time.hpp"

namespace vps::tlm {

/// Temporal-decoupling helper (tlm_quantumkeeper analogue). An initiator
/// accumulates local time ahead of the kernel and only synchronizes when the
/// quantum is exhausted — the acceleration technique the paper names as a
/// research lever for making VP-based stress tests tractable (Sec. 3.4).
class QuantumKeeper {
 public:
  QuantumKeeper(sim::Kernel& kernel, sim::Time quantum) : kernel_(kernel), quantum_(quantum) {}

  [[nodiscard]] sim::Time quantum() const noexcept { return quantum_; }
  void set_quantum(sim::Time q) noexcept { quantum_ = q; }

  /// Local offset ahead of kernel time.
  [[nodiscard]] sim::Time local_time() const noexcept { return state_.local; }
  /// Effective simulated time as seen by the decoupled initiator.
  [[nodiscard]] sim::Time current_time() const noexcept { return kernel_.now() + state_.local; }

  void inc(sim::Time t) noexcept { state_.local += t; }
  void set(sim::Time t) noexcept { state_.local = t; }
  void reset() noexcept { state_.local = sim::Time::zero(); }

  [[nodiscard]] bool need_sync() const noexcept {
    return quantum_ != sim::Time::zero() && state_.local >= quantum_;
  }

  /// Awaitable behind sync(): no coroutine frame, so a sync allocates
  /// nothing. It waits exactly like `co_await sim::delay(t)`, inline timed
  /// step included, so a run of syncs the kernel would apply in place can
  /// be applied as `sim::Kernel::inline_waits` with add_syncs(). `co_await`
  /// yields true when the sync let no other process run: it had nothing to
  /// flush, or the kernel applied its wait in place (hw::Cpu's quantum
  /// replay, DESIGN.md §14).
  class SyncAwaiter {
   public:
    explicit SyncAwaiter(QuantumKeeper& qk) noexcept : qk_(qk) {}
    [[nodiscard]] bool await_ready() noexcept {
      pending_.delay = qk_.state_.local;
      qk_.state_.local = sim::Time::zero();
      if (pending_.delay == sim::Time::zero()) return true;
      ++qk_.state_.sync_count;
      return false;
    }
    bool await_suspend(sim::Coro::Handle h) {
      suspended_ = pending_.await_suspend(h);
      return suspended_;
    }
    bool await_resume() const noexcept { return !suspended_; }

   private:
    QuantumKeeper& qk_;
    sim::DelayAwaiter pending_{sim::Time::zero()};
    bool suspended_ = false;
  };

  /// Yields to the kernel for the accumulated local time. A zero quantum
  /// means "sync on every call" (fully coupled reference behaviour). A call
  /// with no accumulated local time performs no kernel yield and is not
  /// counted: sync_count() reports actual yields only, so the E4 decoupling
  /// stats are not skewed by flush calls that had nothing to flush.
  [[nodiscard]] SyncAwaiter sync() noexcept { return SyncAwaiter(*this); }

  /// Syncs only when the quantum is exhausted.
  [[nodiscard]] sim::Coro sync_if_needed() {
    if (need_sync()) co_await sync();
  }

  /// Number of actual kernel yields performed by sync().
  [[nodiscard]] std::uint64_t sync_count() const noexcept { return state_.sync_count; }
  /// Counts `n` syncs the kernel applied in place in one run
  /// (sim::Kernel::inline_waits, hw::Cpu's bulk replay, DESIGN.md §14).
  void add_syncs(std::uint64_t n) noexcept { state_.sync_count += n; }

  /// Value-type image for snapshot-and-fork replay, and the keeper's state.
  struct Snapshot {
    sim::Time local = sim::Time::zero();
    std::uint64_t sync_count = 0;
  };

  [[nodiscard]] Snapshot snapshot() const noexcept { return state_; }
  void restore(const Snapshot& s) noexcept { state_ = s; }

 private:
  sim::Kernel& kernel_;
  sim::Time quantum_;
  Snapshot state_;
};

}  // namespace vps::tlm
