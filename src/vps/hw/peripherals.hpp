#pragma once

/// Memory-mapped ECU peripherals: interrupt controller, periodic timer,
/// window-less watchdog, GPIO, and an ADC sampling an analog source.
/// All are loosely-timed TLM targets with 32-bit register access.

#include <cstdint>
#include <functional>
#include <string>

#include "vps/sim/kernel.hpp"
#include "vps/sim/module.hpp"
#include "vps/sim/signal.hpp"
#include "vps/tlm/payload.hpp"
#include "vps/tlm/sockets.hpp"

namespace vps::hw {

/// Base class for register-file peripherals: handles the TLM plumbing and
/// alignment checks, concrete devices implement word read/write.
class RegisterDevice : public sim::Module, public tlm::BlockingTransport {
 public:
  /// `pure_reads`: no register read changes device state, so every read
  /// answers Effect::kStatistics (see Cpu loop fast-forward). A device
  /// with a read side effect (a conversion, a pop, clear-on-read) passes
  /// false.
  RegisterDevice(sim::Kernel& kernel, std::string name, sim::Time access_latency,
                 bool pure_reads = false);

  [[nodiscard]] tlm::TargetSocket& socket() noexcept { return socket_; }

  /// Answers pure reads with Effect::kStatistics, and a write with the
  /// write_effect() asked before it.
  void b_transport(tlm::GenericPayload& payload, sim::Time& delay) final;
  /// A pure register access moves no statistic, so its repeats move none.
  void repeat(tlm::GenericPayload& payload, std::uint64_t k) final {
    (void)payload, (void)k;
  }

 protected:
  /// Word-aligned register access; offset is a multiple of 4.
  virtual std::uint32_t read_register(std::uint32_t offset, sim::Time& delay) = 0;
  virtual void write_register(std::uint32_t offset, std::uint32_t value, sim::Time& delay) = 0;
  /// Highest valid register offset + 4.
  [[nodiscard]] virtual std::uint32_t register_space() const = 0;
  /// What a write to `offset`, made now, would do: kStatistics when it
  /// would change no device state and no statistic, kRearm for a re-arm
  /// write (tlm::Effect). Asked before the write. Default: kState.
  [[nodiscard]] virtual tlm::Effect write_effect(std::uint32_t offset) const {
    (void)offset;
    return tlm::Effect::kState;
  }

 private:
  sim::Time access_latency_;
  bool pure_reads_;
  tlm::TargetSocket socket_;
};

/// 32-line level-triggered interrupt controller. Drives a single CPU IRQ
/// signal with (pending & enable) != 0.
///
/// Registers: 0x00 PENDING (RO), 0x04 ENABLE (RW),
///            0x08 CLAIM (RO: lowest pending enabled line + 1; 0 = none),
///            0x0C COMPLETE (WO: line number to clear).
class InterruptController final : public RegisterDevice {
 public:
  static constexpr std::uint32_t kPending = 0x00;
  static constexpr std::uint32_t kEnable = 0x04;
  static constexpr std::uint32_t kClaim = 0x08;
  static constexpr std::uint32_t kComplete = 0x0C;

  InterruptController(sim::Kernel& kernel, std::string name);

  /// Peripheral-side: asserts a pending line.
  void raise(unsigned line);
  /// Peripheral-side: deasserts a pending line (level sources).
  void clear(unsigned line);

  [[nodiscard]] sim::Signal<bool>& irq_out() noexcept { return irq_out_; }
  [[nodiscard]] std::uint32_t pending() const noexcept { return regs_.pending; }
  [[nodiscard]] std::uint32_t enabled() const noexcept { return regs_.enable; }

  /// The controller's own state; its output line's lives in the signal.
  struct Registers {
    std::uint32_t pending = 0;
    std::uint32_t enable = 0;
  };
  struct Snapshot : Registers {
    sim::Signal<bool>::Snapshot irq_out;
  };
  [[nodiscard]] Snapshot snapshot() const { return Snapshot{regs_, irq_out_.snapshot()}; }
  void restore(const Snapshot& s) {
    regs_ = s;
    irq_out_.restore(s.irq_out);
  }

 protected:
  std::uint32_t read_register(std::uint32_t offset, sim::Time& delay) override;
  void write_register(std::uint32_t offset, std::uint32_t value, sim::Time& delay) override;
  [[nodiscard]] std::uint32_t register_space() const override { return 0x10; }

 private:
  void update_output();

  Registers regs_;
  sim::Signal<bool> irq_out_;
};

/// Periodic / one-shot down-counting timer.
///
/// Registers: 0x00 CTRL (bit0 enable, bit1 periodic), 0x04 PERIOD_US,
///            0x08 STATUS (bit0 expired; write-1-to-clear), 0x0C EXPIRY_COUNT.
class Timer final : public RegisterDevice {
 public:
  static constexpr std::uint32_t kCtrl = 0x00;
  static constexpr std::uint32_t kPeriodUs = 0x04;
  static constexpr std::uint32_t kStatus = 0x08;
  static constexpr std::uint32_t kExpiryCount = 0x0C;

  Timer(sim::Kernel& kernel, std::string name);

  /// Called on each expiry — typically InterruptController::raise.
  void set_on_expire(std::function<void()> fn) { on_expire_ = std::move(fn); }

  [[nodiscard]] std::uint32_t expiry_count() const noexcept { return state_.expiries; }

  struct Snapshot {
    std::uint32_t ctrl = 0;
    std::uint32_t period_us = 1000;
    std::uint32_t status = 0;
    std::uint32_t expiries = 0;
    std::uint64_t config_generation = 0;  ///< restart the wait when reconfigured
    bool armed = false;                   ///< a wait_with_timeout is outstanding
    std::uint64_t armed_generation = 0;   ///< config_generation when armed
  };
  [[nodiscard]] Snapshot snapshot() const { return state_; }
  void restore(const Snapshot& s) { state_ = s; }

 protected:
  std::uint32_t read_register(std::uint32_t offset, sim::Time& delay) override;
  void write_register(std::uint32_t offset, std::uint32_t value, sim::Time& delay) override;
  [[nodiscard]] std::uint32_t register_space() const override { return 0x10; }

 private:
  [[nodiscard]] sim::Coro run();

  Snapshot state_;
  sim::Event reconfigured_;
  std::function<void()> on_expire_;
};

/// Watchdog: fires unless kicked within the period. The paper's safety
/// architectures lean on exactly this recovery path for hung software.
///
/// Registers: 0x00 CTRL (bit0 enable), 0x04 PERIOD_US, 0x08 KICK (WO),
///            0x0C TIMEOUT_COUNT (RO).
///
/// A deadline (DESIGN.md §12): a kick moves `deadline` in place, and the
/// `guard` process sleeps until it, so a kick costs no delta notification
/// and no activation. It times out where a guard that re-armed on a kick
/// event, in the delta after each kick, would; see DESIGN for the seq rule
/// and its residual cases.
class Watchdog final : public RegisterDevice {
 public:
  static constexpr std::uint32_t kCtrl = 0x00;
  static constexpr std::uint32_t kPeriodUs = 0x04;
  static constexpr std::uint32_t kKick = 0x08;
  static constexpr std::uint32_t kTimeoutCount = 0x0C;
  /// Snapshot::kick_delta when no kick awaits its phase's end.
  static constexpr std::uint64_t kNoKick = ~std::uint64_t{0};

  Watchdog(sim::Kernel& kernel, std::string name);

  /// Invoked on timeout — typically a platform reset handler.
  void set_on_timeout(std::function<void()> fn) { on_timeout_ = std::move(fn); }

  [[nodiscard]] std::uint32_t timeout_count() const noexcept { return state_.timeouts; }
  [[nodiscard]] bool enabled() const noexcept { return (state_.ctrl & 1u) != 0; }
  /// Direct kick for C++-level software models; the KICK register's path.
  void kick();

  struct Snapshot {
    std::uint32_t ctrl = 0;
    std::uint32_t period_us = 10000;
    std::uint32_t timeouts = 0;
    bool sleeping = false;                   ///< the guard's wait is outstanding
    sim::Time deadline = sim::Time::max();   ///< the timeout instant; max() = disarmed
    std::uint64_t deadline_seq = 0;          ///< the seq of the deadline's timed entry
    std::uint64_t kick_delta = kNoKick;      ///< KernelStats::delta_cycles at the last kick
  };
  [[nodiscard]] Snapshot snapshot() const { return state_; }
  void restore(const Snapshot& s) { state_ = s; }

 protected:
  std::uint32_t read_register(std::uint32_t offset, sim::Time& delay) override;
  void write_register(std::uint32_t offset, std::uint32_t value, sim::Time& delay) override;
  [[nodiscard]] std::uint32_t register_space() const override { return 0x10; }
  /// A kick that moves nothing (disarmed, at or past the deadline, or a
  /// repeat within the phase of the last kick) changes no state; one that
  /// moves an enabled deadline later is a re-arm: it sets the deadline,
  /// its seq and kick_delta from now, the delta count, the seq counter and
  /// PERIOD_US, which no register read returns.
  [[nodiscard]] tlm::Effect write_effect(std::uint32_t offset) const override;

 private:
  [[nodiscard]] sim::Coro run();
  [[nodiscard]] bool armed() const noexcept { return state_.deadline != sim::Time::max(); }
  void arm();
  void resolve_kick();

  Snapshot state_;
  sim::Event reconfigured_;
  std::function<void()> on_timeout_;
};

/// 32-bit GPIO port: OUT drives a signal, IN samples one.
///
/// Registers: 0x00 OUT (RW), 0x04 IN (RO).
class Gpio final : public RegisterDevice {
 public:
  static constexpr std::uint32_t kOut = 0x00;
  static constexpr std::uint32_t kIn = 0x04;

  Gpio(sim::Kernel& kernel, std::string name);

  [[nodiscard]] sim::Signal<std::uint32_t>& out() noexcept { return out_; }
  [[nodiscard]] sim::Signal<std::uint32_t>& in() noexcept { return in_; }

  struct Snapshot {
    sim::Signal<std::uint32_t>::Snapshot out;
    sim::Signal<std::uint32_t>::Snapshot in;
  };
  [[nodiscard]] Snapshot snapshot() const { return Snapshot{out_.snapshot(), in_.snapshot()}; }
  void restore(const Snapshot& s) {
    out_.restore(s.out);
    in_.restore(s.in);
  }

 protected:
  std::uint32_t read_register(std::uint32_t offset, sim::Time& delay) override;
  void write_register(std::uint32_t offset, std::uint32_t value, sim::Time& delay) override;
  [[nodiscard]] std::uint32_t register_space() const override { return 0x08; }

 private:
  sim::Signal<std::uint32_t> out_;
  sim::Signal<std::uint32_t> in_;
};

/// 12-bit ADC with a blocking conversion: reading DATA samples the attached
/// analog source and charges the conversion time to the access.
///
/// Registers: 0x00 DATA (RO, 0..4095), 0x04 RAW_MILLIVOLTS (RO).
class Adc final : public RegisterDevice {
 public:
  static constexpr std::uint32_t kData = 0x00;
  static constexpr std::uint32_t kRawMillivolts = 0x04;

  Adc(sim::Kernel& kernel, std::string name, double vref_volts = 5.0,
      sim::Time conversion_time = sim::Time::us(2));

  /// Analog input; sampled at conversion time. Volts.
  void set_source(std::function<double()> source) { source_ = std::move(source); }

  [[nodiscard]] std::uint32_t conversions() const noexcept { return state_.conversions; }

  struct Snapshot {
    std::uint32_t conversions = 0;
  };
  [[nodiscard]] Snapshot snapshot() const { return state_; }
  void restore(const Snapshot& s) { state_ = s; }

 protected:
  std::uint32_t read_register(std::uint32_t offset, sim::Time& delay) override;
  void write_register(std::uint32_t offset, std::uint32_t value, sim::Time& delay) override;
  [[nodiscard]] std::uint32_t register_space() const override { return 0x08; }

 private:
  [[nodiscard]] double sample();

  double vref_;
  sim::Time conversion_time_;
  std::function<double()> source_;
  Snapshot state_;
};

}  // namespace vps::hw
