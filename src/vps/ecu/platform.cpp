#include "vps/ecu/platform.hpp"

namespace vps::ecu {

EcuPlatform::EcuPlatform(sim::Kernel& kernel, std::string name, Config config)
    : kernel_(kernel), name_(std::move(name)), config_(config) {
  ram_ = std::make_unique<hw::Memory>(name_ + ".ram", config_.ram_size, config_.ram_latency,
                                      config_.ecc);
  bus_ = std::make_unique<tlm::Router>(name_ + ".bus", config_.bus_latency);
  intc_ = std::make_unique<hw::InterruptController>(kernel_, name_ + ".intc");
  timer_ = std::make_unique<hw::Timer>(kernel_, name_ + ".timer");
  watchdog_ = std::make_unique<hw::Watchdog>(kernel_, name_ + ".wdg");
  gpio_ = std::make_unique<hw::Gpio>(kernel_, name_ + ".gpio");
  adc_ = std::make_unique<hw::Adc>(kernel_, name_ + ".adc");
  cpu_ = std::make_unique<hw::Cpu>(kernel_, name_ + ".cpu", config_.cpu);

  bus_->map(EcuMemoryMap::kRamBase, config_.ram_size, ram_->socket());
  bus_->map(EcuMemoryMap::kIntcBase, 0x10, intc_->socket());
  bus_->map(EcuMemoryMap::kTimerBase, 0x10, timer_->socket());
  bus_->map(EcuMemoryMap::kWatchdogBase, 0x10, watchdog_->socket());
  bus_->map(EcuMemoryMap::kGpioBase, 0x08, gpio_->socket());
  bus_->map(EcuMemoryMap::kAdcBase, 0x08, adc_->socket());
  cpu_->socket().bind(bus_->target_socket());
  cpu_->connect_irq(intc_->irq_out());

  timer_->set_on_expire([this] { intc_->raise(EcuIrqLines::kTimer); });
  watchdog_->set_on_timeout([this] { reset(); });
}

void EcuPlatform::attach_can(can::CanBus& bus) {
  support::ensure(can_ == nullptr, "EcuPlatform: CAN controller already attached");
  can_ = std::make_unique<CanController>(kernel_, name_ + ".can", bus);
  bus_->map(EcuMemoryMap::kCanBase, 0x30, can_->socket());
  can_->set_on_rx([this] { intc_->raise(EcuIrqLines::kCanRx); });
}

void EcuPlatform::load_program(const std::string& source) { load_program(hw::assemble(source)); }

void EcuPlatform::load_program(const hw::Program& program) {
  ram_->load(program.origin, program.image);
}

}  // namespace vps::ecu
