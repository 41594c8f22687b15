#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "vps/support/ensure.hpp"

namespace vps::tlm {

/// Transaction command (TLM-2.0 generic payload subset).
enum class Command : std::uint8_t { kRead, kWrite, kIgnore };

/// Transaction completion status.
enum class Response : std::uint8_t {
  kIncomplete,
  kOk,
  kAddressError,
  kCommandError,
  kBurstError,
  kGenericError,
};

/// What an access did to its target, as far as an initiator may repeat it
/// without making it again (GenericPayload::effect()).
enum class Effect : std::uint8_t {
  /// Changed target state, or nothing is promised: each access is made.
  kState,
  /// Changed nothing but statistics, so the identical access made again
  /// returns the identical data with the identical delay: repeatable().
  kStatistics,
  /// A re-arm write: it set state only from the kernel's now, delta count
  /// and seq counter and from configuration it leaves alone, and no
  /// kStatistics access reads that state. Made again at a later instant,
  /// after nothing but kStatistics and re-arm accesses, it re-arms again.
  kRearm,
};

[[nodiscard]] constexpr const char* to_string(Response r) noexcept {
  switch (r) {
    case Response::kIncomplete: return "INCOMPLETE";
    case Response::kOk: return "OK";
    case Response::kAddressError: return "ADDRESS_ERROR";
    case Response::kCommandError: return "COMMAND_ERROR";
    case Response::kBurstError: return "BURST_ERROR";
    case Response::kGenericError: return "GENERIC_ERROR";
  }
  return "?";
}

/// Memory-mapped transaction payload. Owns its data buffer (unlike TLM-2.0's
/// raw pointer) so fault injectors can corrupt payloads without lifetime
/// hazards, and carries injection metadata for fault-effect tracking. The
/// bytes live inline: every bus access in the framework is a 1-4 byte
/// scalar, so a payload never touches the heap.
class GenericPayload {
 public:
  /// Largest payload in bytes (one 64-bit scalar).
  static constexpr std::size_t kMaxSize = 8;

  GenericPayload() = default;
  GenericPayload(Command cmd, std::uint64_t address, std::size_t size)
      : command_(cmd), address_(address), size_(size) {
    support::ensure(size <= kMaxSize, "GenericPayload: size exceeds kMaxSize (8 bytes)");
  }

  [[nodiscard]] Command command() const noexcept { return command_; }
  void set_command(Command c) noexcept { command_ = c; }

  [[nodiscard]] std::uint64_t address() const noexcept { return address_; }
  void set_address(std::uint64_t a) noexcept { address_ = a; }

  [[nodiscard]] std::span<const std::uint8_t> data() const noexcept {
    return {data_.data(), size_};
  }
  [[nodiscard]] std::span<std::uint8_t> data() noexcept { return {data_.data(), size_}; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] Response response() const noexcept { return response_; }
  void set_response(Response r) noexcept { response_ = r; }
  [[nodiscard]] bool ok() const noexcept { return response_ == Response::kOk; }

  [[nodiscard]] bool dmi_allowed() const noexcept { return dmi_allowed_; }
  void set_dmi_allowed(bool v) noexcept { dmi_allowed_ = v; }

  /// Set by the target that answered (see Effect).
  /// InitiatorSocket::b_transport resets it to kState before each call, so
  /// only that target can set it. An initiator may apply further
  /// repetitions of a kStatistics access in bulk through
  /// BlockingTransport::repeat. It must make a kRearm write again through
  /// b_transport, but may apply the statistics of repetitions whose state
  /// that later write supersedes through repeat (hw::Cpu's quantum replay
  /// and bulk replay, DESIGN.md §14).
  [[nodiscard]] Effect effect() const noexcept { return effect_; }
  void set_effect(Effect e) noexcept { effect_ = e; }
  [[nodiscard]] bool repeatable() const noexcept { return effect_ == Effect::kStatistics; }

  /// Fault-injection metadata: marks the payload as corrupted by an injector
  /// with the given campaign fault id; monitors use it for fault-to-failure
  /// attribution in error-effect analysis.
  [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }
  [[nodiscard]] std::uint64_t poison_id() const noexcept { return poison_id_; }
  void poison(std::uint64_t fault_id) noexcept {
    poisoned_ = true;
    poison_id_ = fault_id;
  }
  void clear_poison() noexcept {
    poisoned_ = false;
    poison_id_ = 0;
  }

  /// Little-endian scalar access helpers (the AR32 substrate is LE).
  [[nodiscard]] std::uint64_t value_le() const noexcept {
    std::uint64_t v = 0;
    for (std::size_t i = size_; i-- > 0;) v = (v << 8) | data_[i];
    return v;
  }
  void set_value_le(std::uint64_t v) noexcept {
    for (auto& byte : data()) {
      byte = static_cast<std::uint8_t>(v);
      v >>= 8;
    }
  }

  [[nodiscard]] std::string to_string() const;

 private:
  Command command_ = Command::kIgnore;
  std::uint64_t address_ = 0;
  std::array<std::uint8_t, kMaxSize> data_{};
  std::size_t size_ = 0;
  Response response_ = Response::kIncomplete;
  bool dmi_allowed_ = false;
  Effect effect_ = Effect::kState;
  bool poisoned_ = false;
  std::uint64_t poison_id_ = 0;
};

}  // namespace vps::tlm
