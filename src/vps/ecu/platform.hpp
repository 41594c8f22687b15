#pragma once

/// EcuPlatform: the reusable virtual prototype of one ECU — AR32 core, RAM
/// (optionally SEC-DED protected), bus, interrupt controller, timer,
/// watchdog, GPIO, ADC, and optionally a CAN controller. Multiple platforms
/// share one kernel (and one CAN bus) to form a networked system VP.

#include <memory>
#include <optional>
#include <string>

#include "vps/can/bus.hpp"
#include "vps/ecu/can_controller.hpp"
#include "vps/hw/assembler.hpp"
#include "vps/hw/cpu.hpp"
#include "vps/hw/memory.hpp"
#include "vps/hw/peripherals.hpp"
#include "vps/tlm/router.hpp"

namespace vps::ecu {

/// Fixed ECU memory map.
struct EcuMemoryMap {
  static constexpr std::uint32_t kRamBase = 0x00000000;
  static constexpr std::uint32_t kIntcBase = 0x40000000;
  static constexpr std::uint32_t kTimerBase = 0x40001000;
  static constexpr std::uint32_t kWatchdogBase = 0x40002000;
  static constexpr std::uint32_t kGpioBase = 0x40003000;
  static constexpr std::uint32_t kAdcBase = 0x40004000;
  static constexpr std::uint32_t kCanBase = 0x40005000;
};

/// Interrupt line assignment on the platform's controller.
struct EcuIrqLines {
  static constexpr unsigned kTimer = 0;
  static constexpr unsigned kCanRx = 1;
};

class EcuPlatform {
 public:
  struct Config {
    std::size_t ram_size = 64 * 1024;
    hw::EccMode ecc = hw::EccMode::kNone;
    hw::Cpu::Config cpu{};
    sim::Time ram_latency = sim::Time::ns(10);
    sim::Time bus_latency = sim::Time::ns(5);
  };

  EcuPlatform(sim::Kernel& kernel, std::string name, Config config);
  EcuPlatform(sim::Kernel& kernel, std::string name)
      : EcuPlatform(kernel, std::move(name), Config{}) {}

  /// Adds a CAN controller bound to the given bus (IRQ line kCanRx).
  void attach_can(can::CanBus& bus);

  /// Assembles and loads a program into RAM at its origin.
  void load_program(const std::string& source);
  /// Loads an assembled program into RAM at its origin.
  void load_program(const hw::Program& program);

  /// Power-on/watchdog/brownout reset of the core (RAM contents survive).
  void reset() {
    ++resets_;
    cpu_->reset();
  }
  [[nodiscard]] std::uint32_t reset_count() const noexcept { return resets_; }

  [[nodiscard]] sim::Kernel& kernel() noexcept { return kernel_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] hw::Cpu& cpu() noexcept { return *cpu_; }
  [[nodiscard]] hw::Memory& ram() noexcept { return *ram_; }
  [[nodiscard]] tlm::Router& bus() noexcept { return *bus_; }
  [[nodiscard]] hw::InterruptController& intc() noexcept { return *intc_; }
  [[nodiscard]] hw::Timer& timer() noexcept { return *timer_; }
  [[nodiscard]] hw::Watchdog& watchdog() noexcept { return *watchdog_; }
  [[nodiscard]] hw::Gpio& gpio() noexcept { return *gpio_; }
  [[nodiscard]] hw::Adc& adc() noexcept { return *adc_; }
  [[nodiscard]] bool has_can() const noexcept { return can_ != nullptr; }
  [[nodiscard]] CanController& can() {
    support::ensure(can_ != nullptr, "EcuPlatform: no CAN controller attached");
    return *can_;
  }

  // --- snapshot-and-fork replay -------------------------------------------
  /// Aggregate image of the whole ECU. RAM is restored before the CPU so the
  /// CPU's DMI re-acquire lands in the restored backing store.
  struct Snapshot {
    hw::Memory::Snapshot ram;
    tlm::Router::Snapshot bus;
    hw::InterruptController::Snapshot intc;
    hw::Timer::Snapshot timer;
    hw::Watchdog::Snapshot watchdog;
    hw::Gpio::Snapshot gpio;
    hw::Adc::Snapshot adc;
    hw::Cpu::Snapshot cpu;
    std::optional<CanController::Snapshot> can;
    std::uint32_t resets = 0;
  };

  [[nodiscard]] Snapshot snapshot() const {
    Snapshot s{ram_->snapshot(),      bus_->snapshot(),  intc_->snapshot(),
               timer_->snapshot(),    watchdog_->snapshot(), gpio_->snapshot(),
               adc_->snapshot(),      cpu_->snapshot(),  std::nullopt,
               resets_};
    if (can_ != nullptr) s.can = can_->snapshot();
    return s;
  }

  void restore(const Snapshot& s) {
    // A CAN image needs a controller to land in, and a controller an image.
    support::ensure(s.can.has_value() == (can_ != nullptr),
                    "EcuPlatform::restore: CAN attachment differs from snapshot");
    ram_->restore(s.ram);
    bus_->restore(s.bus);
    intc_->restore(s.intc);
    timer_->restore(s.timer);
    watchdog_->restore(s.watchdog);
    gpio_->restore(s.gpio);
    adc_->restore(s.adc);
    cpu_->restore(s.cpu);
    if (can_ != nullptr) can_->restore(*s.can);
    resets_ = s.resets;
  }

 private:
  sim::Kernel& kernel_;
  std::string name_;
  Config config_;
  std::unique_ptr<hw::Memory> ram_;
  std::unique_ptr<tlm::Router> bus_;
  std::unique_ptr<hw::InterruptController> intc_;
  std::unique_ptr<hw::Timer> timer_;
  std::unique_ptr<hw::Watchdog> watchdog_;
  std::unique_ptr<hw::Gpio> gpio_;
  std::unique_ptr<hw::Adc> adc_;
  std::unique_ptr<hw::Cpu> cpu_;
  std::unique_ptr<CanController> can_;
  std::uint32_t resets_ = 0;
};

}  // namespace vps::ecu
