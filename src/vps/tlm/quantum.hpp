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
  [[nodiscard]] sim::Time local_time() const noexcept { return local_; }
  /// Effective simulated time as seen by the decoupled initiator.
  [[nodiscard]] sim::Time current_time() const noexcept { return kernel_.now() + local_; }

  void inc(sim::Time t) noexcept { local_ += t; }
  void set(sim::Time t) noexcept { local_ = t; }
  void reset() noexcept { local_ = sim::Time::zero(); }

  [[nodiscard]] bool need_sync() const noexcept { return quantum_ != sim::Time::zero() && local_ >= quantum_; }

  /// Awaitable behind sync(): no coroutine frame, so a sync allocates
  /// nothing. It waits exactly like `co_await sim::delay(t)`, inline timed
  /// step included.
  class SyncAwaiter {
   public:
    explicit SyncAwaiter(QuantumKeeper& qk) noexcept : qk_(qk) {}
    [[nodiscard]] bool await_ready() noexcept {
      pending_.delay = qk_.local_;
      qk_.local_ = sim::Time::zero();
      if (pending_.delay == sim::Time::zero()) return true;
      ++qk_.sync_count_;
      return false;
    }
    bool await_suspend(sim::Coro::Handle h) { return pending_.await_suspend(h); }
    void await_resume() const noexcept {}

   private:
    QuantumKeeper& qk_;
    sim::DelayAwaiter pending_{sim::Time::zero()};
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
  [[nodiscard]] std::uint64_t sync_count() const noexcept { return sync_count_; }

  /// Value-type image for snapshot-and-fork replay.
  struct Snapshot {
    sim::Time local;
    std::uint64_t sync_count = 0;
  };

  [[nodiscard]] Snapshot snapshot() const noexcept { return Snapshot{local_, sync_count_}; }
  void restore(const Snapshot& s) noexcept {
    local_ = s.local;
    sync_count_ = s.sync_count;
  }

 private:
  sim::Kernel& kernel_;
  sim::Time quantum_;
  sim::Time local_ = sim::Time::zero();
  std::uint64_t sync_count_ = 0;
};

}  // namespace vps::tlm
