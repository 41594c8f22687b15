#pragma once

#include <cstdint>
#include <string>

#include "vps/sim/time.hpp"
#include "vps/support/ensure.hpp"
#include "vps/tlm/payload.hpp"

namespace vps::tlm {

/// Loosely-timed transport interface (b_transport). The callee annotates the
/// accumulated delay instead of consuming simulated time, which is what
/// enables temporal decoupling (DESIGN.md E4).
class BlockingTransport {
 public:
  virtual ~BlockingTransport() = default;
  virtual void b_transport(GenericPayload& payload, sim::Time& delay) = 0;
  /// Applies k further repetitions of an access this target answered with
  /// Effect::kStatistics or Effect::kRearm: only the statistics such an
  /// access moves advance, k times over. For a re-arm write that is all a
  /// repetition does here: its state is set again by the same write made
  /// later through b_transport (hw::Cpu's bulk replay, DESIGN.md §14). A
  /// target that never sets either effect keeps this default, which
  /// reports the misuse.
  virtual void repeat(GenericPayload& payload, std::uint64_t k) {
    (void)k;
    support::fail("repeat of an access the target never flagged repeatable: " +
                  payload.to_string());
  }
};

/// Approximately-timed protocol phases (TLM-2.0 base protocol subset).
enum class Phase : std::uint8_t { kBeginReq, kEndReq, kBeginResp, kEndResp };
enum class Sync : std::uint8_t { kAccepted, kUpdated, kCompleted };

class NbTransportFw {
 public:
  virtual ~NbTransportFw() = default;
  virtual Sync nb_transport_fw(GenericPayload& payload, Phase& phase, sim::Time& delay) = 0;
};

class NbTransportBw {
 public:
  virtual ~NbTransportBw() = default;
  virtual Sync nb_transport_bw(GenericPayload& payload, Phase& phase, sim::Time& delay) = 0;
};

/// Direct memory interface grant: a raw window into the target's backing
/// store, bypassing transport for LT fast paths.
struct DmiRegion {
  std::uint8_t* base = nullptr;
  std::uint64_t start = 0;
  std::uint64_t end = 0;  // inclusive
  sim::Time read_latency = sim::Time::zero();
  sim::Time write_latency = sim::Time::zero();
  bool allows_read = false;
  bool allows_write = false;

  [[nodiscard]] bool covers(std::uint64_t address, std::size_t size) const noexcept {
    return base != nullptr && address >= start && address + size - 1 <= end;
  }
};

class DmiProvider {
 public:
  virtual ~DmiProvider() = default;
  /// Returns true and fills `region` when DMI is granted for the address.
  virtual bool get_direct_mem_ptr(std::uint64_t address, DmiRegion& region) = 0;
};

class InitiatorSocket;

/// Target-side socket: the owning model registers the interfaces it
/// implements. Unset optional interfaces are reported as misuse when called.
class TargetSocket {
 public:
  explicit TargetSocket(std::string name) : name_(std::move(name)) {}

  void set_blocking(BlockingTransport& ifc) noexcept { blocking_ = &ifc; }
  void set_nonblocking(NbTransportFw& ifc) noexcept { nonblocking_ = &ifc; }
  void set_dmi(DmiProvider& ifc) noexcept { dmi_ = &ifc; }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] bool has_blocking() const noexcept { return blocking_ != nullptr; }
  [[nodiscard]] bool has_nonblocking() const noexcept { return nonblocking_ != nullptr; }
  /// Backward path to the bound initiator (AT responses).
  [[nodiscard]] NbTransportBw* backward() const noexcept { return bound_bw_; }

 private:
  friend class InitiatorSocket;
  std::string name_;
  BlockingTransport* blocking_ = nullptr;
  NbTransportFw* nonblocking_ = nullptr;
  DmiProvider* dmi_ = nullptr;
  NbTransportBw* bound_bw_ = nullptr;  // backward path to the bound initiator
};

/// Initiator-side socket: forwards transactions to the bound target.
class InitiatorSocket {
 public:
  explicit InitiatorSocket(std::string name) : name_(std::move(name)) {}

  void bind(TargetSocket& target) noexcept {
    target_ = &target;
    target.bound_bw_ = bw_;
  }
  /// Registers the initiator's backward interface (AT responses).
  void set_bw(NbTransportBw& bw) noexcept {
    bw_ = &bw;
    if (target_ != nullptr) target_->bound_bw_ = &bw;
  }

  [[nodiscard]] bool bound() const noexcept { return target_ != nullptr; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  void b_transport(GenericPayload& payload, sim::Time& delay) {
    if (target_ == nullptr || target_->blocking_ == nullptr) [[unlikely]] {
      support::fail("b_transport on unbound socket " + name_);
    }
    payload.set_effect(Effect::kState);
    target_->blocking_->b_transport(payload, delay);
  }

  /// Forwards BlockingTransport::repeat to the bound target.
  void repeat(GenericPayload& payload, std::uint64_t k) {
    if (target_ == nullptr || target_->blocking_ == nullptr) [[unlikely]] {
      support::fail("repeat on unbound socket " + name_);
    }
    target_->blocking_->repeat(payload, k);
  }

  Sync nb_transport_fw(GenericPayload& payload, Phase& phase, sim::Time& delay) {
    if (target_ == nullptr || target_->nonblocking_ == nullptr) [[unlikely]] {
      support::fail("nb_transport_fw on unbound socket " + name_);
    }
    return target_->nonblocking_->nb_transport_fw(payload, phase, delay);
  }

  bool get_direct_mem_ptr(std::uint64_t address, DmiRegion& region) {
    if (target_ == nullptr || target_->dmi_ == nullptr) return false;
    return target_->dmi_->get_direct_mem_ptr(address, region);
  }

 private:
  std::string name_;
  TargetSocket* target_ = nullptr;
  NbTransportBw* bw_ = nullptr;
};

}  // namespace vps::tlm
