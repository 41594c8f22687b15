#pragma once

/// End-to-end protection of signal data, modeled after AUTOSAR E2E
/// Profile 1: CRC-8 (SAE J1850) over data id + payload + alive counter.
/// The receiver-side checker implements the profile's state machine
/// (ok / repeated / wrong sequence / CRC error) plus a timeout monitor.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "vps/obs/provenance.hpp"

namespace vps::ecu {

/// Wire layout: [0] = CRC, [1] = alive counter (low nibble), [2..] = payload.
inline constexpr std::size_t kE2eHeaderSize = 2;
inline constexpr std::uint8_t kAliveCounterMax = 14;  ///< 4-bit counter, 15 reserved

struct E2eConfig {
  std::uint16_t data_id = 0;          ///< unique per protected signal group
  std::uint8_t max_delta_counter = 2; ///< tolerated gap before kWrongSequence
};

enum class E2eStatus : std::uint8_t {
  kOk,
  kOkSomeLost,     ///< counter jumped but within max_delta (tolerated loss)
  kRepeated,       ///< same counter as last accepted message
  kWrongSequence,  ///< counter gap beyond max_delta
  kWrongCrc,       ///< corrupted payload/header
  kNoNewData,      ///< checker invoked without a message (timeout path)
};

[[nodiscard]] const char* to_string(E2eStatus s) noexcept;

/// Sender side: wraps payloads with CRC + alive counter.
class E2eProtector {
 public:
  explicit E2eProtector(E2eConfig config) : config_(config) {}

  /// Returns header + payload; increments the alive counter.
  [[nodiscard]] std::vector<std::uint8_t> protect(std::span<const std::uint8_t> payload);

  [[nodiscard]] std::uint8_t counter() const noexcept { return counter_; }

 private:
  E2eConfig config_;
  std::uint8_t counter_ = 0;
};

/// Receiver side: validates protected messages and tracks the counter.
class E2eChecker {
 public:
  explicit E2eChecker(E2eConfig config) : config_(config) {}

  /// Validates a received message; on success returns the payload view.
  [[nodiscard]] E2eStatus check(std::span<const std::uint8_t> message);
  [[nodiscard]] std::span<const std::uint8_t> last_payload() const noexcept {
    return last_payload_;
  }

  struct Stats {
    std::uint64_t ok = 0;
    std::uint64_t ok_some_lost = 0;
    std::uint64_t repeated = 0;
    std::uint64_t wrong_sequence = 0;
    std::uint64_t wrong_crc = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Attaches a provenance tracker: every bad-status verdict (CRC error,
  /// repetition, sequence break) is recorded as an ambient detection at
  /// "e2e:<data_id>". The checker cannot name the fault that corrupted the
  /// message, so the detection attaches to all in-flight faults — campaign
  /// runs inject exactly one. nullptr detaches.
  void set_provenance(obs::ProvenanceTracker* tracker) noexcept { provenance_ = tracker; }

 private:
  void report_detection();

  E2eConfig config_;
  std::optional<std::uint8_t> last_counter_;
  std::vector<std::uint8_t> last_payload_;
  Stats stats_;
  obs::ProvenanceTracker* provenance_ = nullptr;
};

/// Computes the Profile-1 CRC over data id, counter and payload.
[[nodiscard]] std::uint8_t e2e_crc(std::uint16_t data_id, std::uint8_t counter,
                                   std::span<const std::uint8_t> payload);

}  // namespace vps::ecu
