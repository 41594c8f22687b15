#include "vps/hw/peripherals.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace vps::hw {

using sim::Time;

// ---------------------------------------------------------------------------
// RegisterDevice
// ---------------------------------------------------------------------------

RegisterDevice::RegisterDevice(sim::Kernel& kernel, std::string name, Time access_latency,
                               bool pure_reads)
    : Module(kernel, std::move(name)),
      access_latency_(access_latency),
      pure_reads_(pure_reads),
      socket_(this->name() + ".tsock") {
  socket_.set_blocking(*this);
}

void RegisterDevice::b_transport(tlm::GenericPayload& payload, Time& delay) {
  delay += access_latency_;
  const std::uint64_t addr = payload.address();
  if (payload.size() != 4 || addr % 4 != 0 || addr + 4 > register_space()) {
    payload.set_response(tlm::Response::kAddressError);
    return;
  }
  const auto offset = static_cast<std::uint32_t>(addr);
  tlm::Effect effect = tlm::Effect::kState;
  if (payload.command() == tlm::Command::kRead) {
    if (pure_reads_) effect = tlm::Effect::kStatistics;
    payload.set_value_le(read_register(offset, delay));
  } else if (payload.command() == tlm::Command::kWrite) {
    effect = write_effect(offset);
    write_register(offset, static_cast<std::uint32_t>(payload.value_le()), delay);
  }
  payload.set_response(tlm::Response::kOk);
  payload.set_effect(effect);
}

// ---------------------------------------------------------------------------
// InterruptController
// ---------------------------------------------------------------------------

InterruptController::InterruptController(sim::Kernel& kernel, std::string name)
    : RegisterDevice(kernel, std::move(name), Time::ns(20), /*pure_reads=*/true),
      irq_out_(kernel, this->name() + ".irq", false) {}

void InterruptController::raise(unsigned line) {
  regs_.pending |= 1u << (line & 31u);
  update_output();
}

void InterruptController::clear(unsigned line) {
  regs_.pending &= ~(1u << (line & 31u));
  update_output();
}

void InterruptController::update_output() {
  // force() rather than write(): the IRQ level must be visible to the CPU
  // in the same evaluation slice, like a wired interrupt line.
  irq_out_.force((regs_.pending & regs_.enable) != 0);
}

std::uint32_t InterruptController::read_register(std::uint32_t offset, Time& /*delay*/) {
  switch (offset) {
    case kPending: return regs_.pending;
    case kEnable: return regs_.enable;
    case kClaim: {
      const std::uint32_t active = regs_.pending & regs_.enable;
      if (active == 0) return 0;
      return static_cast<std::uint32_t>(std::countr_zero(active)) + 1;
    }
    default: return 0;
  }
}

void InterruptController::write_register(std::uint32_t offset, std::uint32_t value,
                                         Time& /*delay*/) {
  switch (offset) {
    case kEnable:
      regs_.enable = value;
      update_output();
      break;
    case kComplete:
      clear(value);
      break;
    default: break;
  }
}

// ---------------------------------------------------------------------------
// Timer
// ---------------------------------------------------------------------------

Timer::Timer(sim::Kernel& kernel, std::string name)
    : RegisterDevice(kernel, std::move(name), Time::ns(20), /*pure_reads=*/true),
      reconfigured_(kernel, this->name() + ".reconfig") {
  spawn("tick", run());
}

// Written in snapshot-replayable form: all state lives in members and the
// completed wait is handled at the top of the loop, so a fresh coroutine
// resumed from the body top after Kernel::restore behaves exactly like the
// original resumed at its await (see DESIGN.md "Replay engine").
sim::Coro Timer::run() {
  for (;;) {
    if (state_.armed) {
      state_.armed = false;
      const bool expired = kernel().current_process()->last_wait_timed_out();
      if (expired && state_.armed_generation == state_.config_generation) {
        ++state_.expiries;
        state_.status |= 1u;
        if (on_expire_) on_expire_();
        if ((state_.ctrl & 2u) == 0) state_.ctrl &= ~1u;  // one-shot: disable
      }
    }
    while ((state_.ctrl & 1u) == 0) co_await reconfigured_;
    state_.armed_generation = state_.config_generation;
    state_.armed = true;
    (void)co_await sim::wait_with_timeout(reconfigured_, Time::us(state_.period_us));
  }
}

std::uint32_t Timer::read_register(std::uint32_t offset, Time& /*delay*/) {
  switch (offset) {
    case kCtrl: return state_.ctrl;
    case kPeriodUs: return state_.period_us;
    case kStatus: return state_.status;
    case kExpiryCount: return state_.expiries;
    default: return 0;
  }
}

void Timer::write_register(std::uint32_t offset, std::uint32_t value, Time& /*delay*/) {
  switch (offset) {
    case kCtrl:
      state_.ctrl = value;
      ++state_.config_generation;
      reconfigured_.notify();
      break;
    case kPeriodUs:
      state_.period_us = std::max(1u, value);
      ++state_.config_generation;
      reconfigured_.notify();
      break;
    case kStatus:
      state_.status &= ~value;  // write-1-to-clear
      break;
    default: break;
  }
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

Watchdog::Watchdog(sim::Kernel& kernel, std::string name)
    : RegisterDevice(kernel, std::move(name), Time::ns(20), /*pure_reads=*/true),
      reconfigured_(kernel, this->name() + ".reconfig") {
  spawn("guard", run());
}

// Snapshot-replayable form; see Timer::run. The guard mirrors one that
// waited on a kick event with the period as timeout: that guard re-armed in
// the delta after each kick's phase, reading CTRL and PERIOD_US there, and
// while disabled waited on reconfigured_ alone. Here the kick resolves that
// re-arm itself (resolve_kick), and the guard wakes only at the deadline,
// at an earlier deadline it slept towards, or on a reconfiguration.
sim::Coro Watchdog::run() {
  for (;;) {
    bool test_enable = true;  // whether the mirrored guard tests CTRL now
    if (state_.sleeping) {
      state_.sleeping = false;
      if (armed() && kernel().now() >= state_.deadline) {
        state_.deadline = Time::max();
        if (enabled()) {
          ++state_.timeouts;
          // A watchdog reset returns the chip to its power-on state, where
          // the watchdog is disarmed until boot software re-enables it.
          state_.ctrl &= ~1u;
          if (on_timeout_) on_timeout_();
        }
      } else if (!armed() && kernel().current_process()->last_wait_timed_out()) {
        // A kick found the watchdog disabled and disarmed it; the mirrored
        // guard tested CTRL then and waits for a reconfiguration.
        test_enable = false;
      }
    }
    if (!armed() && test_enable && enabled()) arm();
    state_.sleeping = true;
    if (armed()) {
      (void)co_await sim::wait_with_timeout(reconfigured_, state_.deadline - kernel().now(),
                                            state_.deadline_seq);
    } else {
      co_await reconfigured_;
    }
  }
}

void Watchdog::arm() {
  state_.deadline = kernel().now() + Time::us(state_.period_us);
  state_.deadline_seq = kernel().reserve_seq();
  state_.kick_delta = kNoKick;  // a kick after this arm re-arms again
}

tlm::Effect Watchdog::write_effect(std::uint32_t offset) const {
  if (offset != kKick) return tlm::Effect::kState;
  const Time now = kernel().now();
  if (!armed() || now >= state_.deadline || kernel().stats().delta_cycles == state_.kick_delta) {
    return tlm::Effect::kStatistics;
  }
  // resolve_kick() moves the deadline later and notifies nothing.
  return enabled() && now + Time::us(state_.period_us) > state_.deadline ? tlm::Effect::kRearm
                                                                          : tlm::Effect::kState;
}

void Watchdog::kick() {
  // The mirrored guard's timeout entry pops before any process runs at the
  // deadline, so a kick then is too late; disarmed, it hears no kick.
  if (!armed() || kernel().now() >= state_.deadline) return;
  const std::uint64_t delta = kernel().stats().delta_cycles;
  if (delta == state_.kick_delta) return;  // one re-arm per phase
  state_.kick_delta = delta;
  state_.deadline_seq = kernel().reserve_seq();
  resolve_kick();
}

// The re-arm of the kick's phase, from CTRL and PERIOD_US as they stand; a
// write later in that phase resolves it again.
void Watchdog::resolve_kick() {
  if (!enabled()) {
    state_.deadline = Time::max();
    return;
  }
  const Time deadline = kernel().now() + Time::us(state_.period_us);
  // The guard sleeps towards the old deadline or an earlier one: a deadline
  // that does not move later, or newly armed, must wake it to sleep again.
  if (deadline <= state_.deadline) reconfigured_.notify();
  state_.deadline = deadline;
}

std::uint32_t Watchdog::read_register(std::uint32_t offset, Time& /*delay*/) {
  switch (offset) {
    case kCtrl: return state_.ctrl;
    case kPeriodUs: return state_.period_us;
    case kTimeoutCount: return state_.timeouts;
    default: return 0;
  }
}

void Watchdog::write_register(std::uint32_t offset, std::uint32_t value, Time& /*delay*/) {
  switch (offset) {
    case kCtrl: state_.ctrl = value; break;
    case kPeriodUs: state_.period_us = std::max(1u, value); break;
    case kKick: kick(); return;
    default: return;
  }
  reconfigured_.notify();
  if (kernel().stats().delta_cycles == state_.kick_delta) resolve_kick();
}

// ---------------------------------------------------------------------------
// Gpio
// ---------------------------------------------------------------------------

Gpio::Gpio(sim::Kernel& kernel, std::string name)
    : RegisterDevice(kernel, std::move(name), Time::ns(20), /*pure_reads=*/true),
      out_(kernel, this->name() + ".out", 0),
      in_(kernel, this->name() + ".in", 0) {}

std::uint32_t Gpio::read_register(std::uint32_t offset, Time& /*delay*/) {
  switch (offset) {
    case kOut: return out_.read();
    case kIn: return in_.read();
    default: return 0;
  }
}

void Gpio::write_register(std::uint32_t offset, std::uint32_t value, Time& /*delay*/) {
  if (offset == kOut) out_.force(value);
}

// ---------------------------------------------------------------------------
// Adc
// ---------------------------------------------------------------------------

Adc::Adc(sim::Kernel& kernel, std::string name, double vref_volts, Time conversion_time)
    : RegisterDevice(kernel, std::move(name), Time::ns(20)),
      vref_(vref_volts),
      conversion_time_(conversion_time) {}

double Adc::sample() {
  ++state_.conversions;
  return source_ ? source_() : 0.0;
}

std::uint32_t Adc::read_register(std::uint32_t offset, Time& delay) {
  switch (offset) {
    case kData: {
      delay += conversion_time_;
      const double v = std::clamp(sample(), 0.0, vref_);
      return static_cast<std::uint32_t>(std::lround(v / vref_ * 4095.0));
    }
    case kRawMillivolts: {
      delay += conversion_time_;
      return static_cast<std::uint32_t>(std::lround(std::max(0.0, sample()) * 1000.0));
    }
    default: return 0;
  }
}

void Adc::write_register(std::uint32_t /*offset*/, std::uint32_t /*value*/, Time& /*delay*/) {}

}  // namespace vps::hw
