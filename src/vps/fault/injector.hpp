#pragma once

/// Injectors: the "interfaces to change the stimuli or modify state at
/// different positions in the DUT" of paper Sec. 3.3. InjectorHub binds the
/// abstract FaultDescriptor vocabulary to one concrete EcuPlatform (and its
/// optional CAN bus / OS scheduler / analog sources) without modifying the
/// design itself.

#include <functional>
#include <optional>
#include <vector>

#include "vps/ecu/os.hpp"
#include "vps/ecu/platform.hpp"
#include "vps/fault/descriptor.hpp"
#include "vps/obs/provenance.hpp"
#include "vps/obs/trace.hpp"

namespace vps::hw {
class Uart;
}

namespace vps::fault {

/// A mutable analog source wrapper so sensor faults can be injected between
/// the physical model and the ADC.
class AnalogChannel {
 public:
  explicit AnalogChannel(std::function<double()> physical)
      : physical_(std::move(physical)) {}

  /// The function to hand to Adc::set_source.
  [[nodiscard]] std::function<double()> source() {
    return [this] { return read(); };
  }

  [[nodiscard]] double read() const {
    if (provenance_ != nullptr && state_.fault_id != 0 && !state_.touched) {
      // First consumption of the faulty value: the corrupted reading left
      // the sensor and entered the acquisition chain.
      state_.touched = true;
      provenance_->touch(state_.fault_id, "sensor");
    }
    if (state_.stuck.has_value()) return *state_.stuck;
    return physical_() + state_.offset;
  }

  /// A non-zero fault_id attributes the corruption for provenance tracking.
  void set_offset(double volts, std::uint64_t fault_id = 0) {
    state_.offset = volts;
    tag(fault_id);
  }
  void set_stuck(double volts, std::uint64_t fault_id = 0) {
    state_.stuck = volts;
    tag(fault_id);
  }
  void clear_faults() {
    state_.offset = 0.0;
    state_.stuck.reset();
    state_.fault_id = 0;
  }

  /// nullptr detaches.
  void set_provenance(obs::ProvenanceTracker* tracker) noexcept { provenance_ = tracker; }

  // --- snapshot-and-fork replay -------------------------------------------
  struct Snapshot {
    double offset = 0.0;
    std::optional<double> stuck;
    std::uint64_t fault_id = 0;
    mutable bool touched = false;  ///< set by the const read()
  };
  [[nodiscard]] Snapshot snapshot() const { return state_; }
  void restore(const Snapshot& s) { state_ = s; }

 private:
  void tag(std::uint64_t fault_id) {
    state_.fault_id = fault_id;
    state_.touched = false;
  }

  std::function<double()> physical_;
  obs::ProvenanceTracker* provenance_ = nullptr;
  Snapshot state_;
};

/// Applies FaultDescriptors to a system. Duration-limited faults schedule
/// their own reversion processes on the kernel. Every binding is optional;
/// fault types without a binding are counted as skipped.
class InjectorHub {
 public:
  explicit InjectorHub(sim::Kernel& kernel) : kernel_(kernel) {}
  explicit InjectorHub(ecu::EcuPlatform& platform)
      : kernel_(platform.kernel()), platform_(&platform) {}

  /// Optional bindings (required only for the respective fault types).
  void bind_platform(ecu::EcuPlatform& platform) noexcept { platform_ = &platform; }
  void bind_can(can::CanBus& bus) noexcept { can_bus_ = &bus; }
  void bind_os(ecu::OsScheduler& os) noexcept { os_ = &os; }
  /// kBusErrorInjection becomes a serial-line noise burst on this UART
  /// (takes precedence over the platform RAM interpretation).
  void bind_uart(hw::Uart& uart) noexcept { uart_ = &uart; }
  void bind_sensor(AnalogChannel& channel) noexcept {
    if (provenance_ != nullptr) channel.set_provenance(provenance_);
    sensors_.push_back(&channel);
  }

  /// Immediately applies the fault's effect. For kIntermittent faults with a
  /// duration, a reversion process restores nominal behaviour afterwards.
  /// Returns false when the descriptor's type has no binding on this hub.
  bool apply(const FaultDescriptor& fault);

  /// Schedules apply() at fault.inject_at (absolute simulation time must be
  /// in the future); used by the Stressor.
  void schedule(const FaultDescriptor& fault);

  [[nodiscard]] sim::Kernel& kernel() noexcept { return kernel_; }
  [[nodiscard]] std::uint64_t applied_count() const noexcept { return applied_; }
  [[nodiscard]] std::uint64_t skipped_count() const noexcept { return skipped_; }

  /// Attaches a tracer: applied faults become complete spans on the "faults"
  /// track (span length = the fault's active window; transient faults are
  /// zero-length), skipped descriptors become instants. nullptr detaches.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

  /// Attaches a provenance tracker: apply() mints a token (root node at
  /// "inject:<type>") before the effect runs, so effect-side touch points
  /// see the fault, and abandons it again when the effect was skipped.
  /// Propagates to bound sensor channels. nullptr detaches.
  void set_provenance(obs::ProvenanceTracker* tracker) noexcept {
    provenance_ = tracker;
    for (AnalogChannel* channel : sensors_) channel->set_provenance(tracker);
  }
  [[nodiscard]] obs::ProvenanceTracker* provenance() const noexcept { return provenance_; }

  /// Sites available on this hub (used by campaigns to build fault spaces).
  [[nodiscard]] std::vector<FaultType> supported_types() const;

 private:
  /// Pure effect application; returns false when the type has no binding.
  /// Accounting and tracing live in apply().
  bool apply_effect(const FaultDescriptor& fault);
  void revert_later(std::function<void()> revert, sim::Time delay);

  sim::Kernel& kernel_;
  ecu::EcuPlatform* platform_ = nullptr;
  can::CanBus* can_bus_ = nullptr;
  ecu::OsScheduler* os_ = nullptr;
  hw::Uart* uart_ = nullptr;
  std::vector<AnalogChannel*> sensors_;
  obs::Tracer* tracer_ = nullptr;
  obs::ProvenanceTracker* provenance_ = nullptr;
  std::uint64_t applied_ = 0;
  std::uint64_t skipped_ = 0;
};

}  // namespace vps::fault
