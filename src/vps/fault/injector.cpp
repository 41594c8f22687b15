#include "vps/fault/injector.hpp"

#include "vps/hw/uart.hpp"

namespace vps::fault {

using sim::Time;

void InjectorHub::revert_later(std::function<void()> revert, Time delay) {
  kernel_.spawn("fault.revert", [](std::function<void()> revert, Time delay) -> sim::Coro {
    co_await sim::delay(delay);
    revert();
  }(std::move(revert), delay));
}

bool InjectorHub::apply(const FaultDescriptor& fault) {
  if (provenance_ != nullptr) {
    // Mint the token before the effect runs so effect-side touch points
    // (sensor reads, poisoned signal commits) already see the fault.
    provenance_->begin_fault(provenance_token(fault),
                             std::string(to_string(fault.type)) + "#" + std::to_string(fault.id),
                             std::string("inject:") + to_string(fault.type));
  }
  const bool applied = apply_effect(fault);
  if (applied) {
    ++applied_;
  } else {
    ++skipped_;
    if (provenance_ != nullptr) provenance_->abandon(provenance_token(fault));
  }
  if (tracer_ != nullptr) {
    const std::string name = std::string(to_string(fault.type)) + "#" + std::to_string(fault.id);
    std::vector<obs::TraceArg> args = {
        obs::TraceArg::str("persistence", to_string(fault.persistence)),
        obs::TraceArg::number("address", static_cast<double>(fault.address)),
        obs::TraceArg::number("magnitude", fault.magnitude),
        obs::TraceArg::number("bit", fault.bit)};
    if (!fault.location.empty()) args.push_back(obs::TraceArg::str("location", fault.location));
    if (applied) {
      tracer_->complete("fault", name, kernel_.now(), fault.duration, "faults", std::move(args));
    } else {
      tracer_->instant("fault", "skipped:" + name, kernel_.now(), "faults", std::move(args));
    }
  }
  return applied;
}

bool InjectorHub::apply_effect(const FaultDescriptor& fault) {
  // 0 while provenance is off: effects then skip all poison bookkeeping.
  const std::uint64_t token = provenance_ != nullptr ? provenance_token(fault) : 0;
  switch (fault.type) {
    case FaultType::kMemoryBitFlip: {
      if (platform_ == nullptr) break;
      const auto addr = fault.address % platform_->ram().size();
      platform_->ram().flip_bit(addr, fault.bit % 8, token);
      return true;
    }
    case FaultType::kMemoryCodewordFlip: {
      if (platform_ == nullptr) break;
      if (platform_->ram().ecc_mode() != hw::EccMode::kSecded) {
        const auto addr = fault.address % platform_->ram().size();
        platform_->ram().flip_bit(addr, fault.bit % 8, token);
      } else {
        const auto word = (fault.address / 4) % (platform_->ram().size() / 4);
        platform_->ram().flip_codeword_bit(word, fault.bit % hw::kCodewordBits, token);
      }
      return true;
    }
    case FaultType::kRegisterBitFlip: {
      if (platform_ == nullptr) break;
      const int reg = 1 + static_cast<int>(fault.address % (hw::kRegisterCount - 1));
      platform_->cpu().corrupt_register(reg, 1u << (fault.bit % 32), token);
      return true;
    }
    case FaultType::kPcCorruption: {
      if (platform_ == nullptr) break;
      platform_->cpu().corrupt_pc(1u << (fault.bit % 16), token);
      return true;
    }
    case FaultType::kSignalStuck: {
      if (platform_ == nullptr) break;
      // Stuck GPIO input (short to VCC: all-ones, short to ground: 0).
      const auto value = fault.magnitude > 0.0 ? 0xFFFFFFFFu : 0u;
      if (token != 0) {
        platform_->gpio().in().force_poisoned(value, token);
      } else {
        platform_->gpio().in().force(value);
      }
      if (fault.persistence == Persistence::kIntermittent && fault.duration > Time::zero()) {
        auto* gpio = &platform_->gpio();
        revert_later([gpio] { gpio->in().force(0); }, fault.duration);
      }
      return true;
    }
    case FaultType::kBusErrorInjection: {
      if (uart_ != nullptr) {
        // A burst of line noise on the serial link: the next 1..10 wire bits
        // invert, hitting start/data/parity/stop bits as they come.
        uart_->corrupt_bits(1 + static_cast<std::uint32_t>(fault.bit % 10), token);
        return true;
      }
      if (platform_ == nullptr) break;
      // A corrupted bus transaction: the payload reached memory poisoned.
      const auto addr = (fault.address % platform_->ram().size()) & ~3ULL;
      platform_->ram().flip_bit(addr, fault.bit % 8, token);
      return true;
    }
    case FaultType::kCanFrameCorruption: {
      if (can_bus_ == nullptr) break;
      if (fault.persistence == Persistence::kTransient) {
        can_bus_->force_error_on_next_frame(token);
      } else {
        can_bus_->set_error_rate(fault.magnitude > 0.0 ? fault.magnitude : 0.5, fault.id + 1,
                                 token);
        if (fault.duration > Time::zero()) {
          auto* bus = can_bus_;
          revert_later([bus] { bus->set_error_rate(0.0); }, fault.duration);
        }
      }
      return true;
    }
    case FaultType::kSensorOffset:
    case FaultType::kSensorStuck: {
      if (sensors_.empty()) break;
      AnalogChannel& ch = *sensors_[fault.address % sensors_.size()];
      if (fault.type == FaultType::kSensorOffset) {
        ch.set_offset(fault.magnitude, token);
      } else {
        ch.set_stuck(fault.magnitude, token);
      }
      if (fault.persistence != Persistence::kPermanent && fault.duration > Time::zero()) {
        revert_later([&ch] { ch.clear_faults(); }, fault.duration);
      }
      return true;
    }
    case FaultType::kSupplyBrownout: {
      if (platform_ == nullptr) break;
      // Undervoltage transient: the supply monitor forces a cold reset.
      platform_->reset();
      return true;
    }
    case FaultType::kTaskKill: {
      if (os_ == nullptr || os_->task_count() == 0) break;
      const auto task = fault.address % os_->task_count();
      os_->kill_task(task);
      if (fault.persistence != Persistence::kPermanent && fault.duration > Time::zero()) {
        auto* os = os_;
        revert_later([os, task] { os->revive_task(task); }, fault.duration);
      }
      return true;
    }
    case FaultType::kExecutionSlowdown: {
      if (os_ == nullptr || os_->task_count() == 0) break;
      const auto task = fault.address % os_->task_count();
      const double factor = fault.magnitude > 1.0 ? fault.magnitude : 2.0;
      os_->set_execution_factor(task, factor);
      if (fault.persistence != Persistence::kPermanent && fault.duration > Time::zero()) {
        auto* os = os_;
        revert_later([os, task] { os->set_execution_factor(task, 1.0); }, fault.duration);
      }
      return true;
    }
  }
  return false;
}

void InjectorHub::schedule(const FaultDescriptor& fault) {
  const Time delay =
      fault.inject_at > kernel_.now() ? fault.inject_at - kernel_.now() : Time::zero();
  kernel_.spawn("fault.schedule",
                [](InjectorHub& hub, FaultDescriptor fault, Time delay) -> sim::Coro {
                  co_await sim::delay(delay);
                  (void)hub.apply(fault);
                }(*this, fault, delay));
}

std::vector<FaultType> InjectorHub::supported_types() const {
  std::vector<FaultType> types;
  if (platform_ != nullptr) {
    types = {FaultType::kMemoryBitFlip,  FaultType::kMemoryCodewordFlip,
             FaultType::kRegisterBitFlip, FaultType::kPcCorruption,
             FaultType::kSignalStuck,     FaultType::kBusErrorInjection,
             FaultType::kSupplyBrownout};
  }
  if (can_bus_ != nullptr) types.push_back(FaultType::kCanFrameCorruption);
  if (uart_ != nullptr && platform_ == nullptr) types.push_back(FaultType::kBusErrorInjection);
  if (!sensors_.empty()) {
    types.push_back(FaultType::kSensorOffset);
    types.push_back(FaultType::kSensorStuck);
  }
  if (os_ != nullptr) {
    types.push_back(FaultType::kTaskKill);
    types.push_back(FaultType::kExecutionSlowdown);
  }
  return types;
}

}  // namespace vps::fault
