#pragma once

/// LIN 2.x bus model: a master-driven schedule table polls frame slots;
/// the publisher of each slot (master or a slave node) supplies the
/// response, protected by the enhanced checksum over PID + data. LIN has
/// no retransmission — a corrupted or missing response simply loses the
/// slot, which is why LIN signals are typically also guarded by timeout
/// monitors at the application layer (exactly the kind of protection the
/// error-effect simulation evaluates).

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "vps/obs/probe.hpp"
#include "vps/obs/provenance.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/sim/module.hpp"
#include "vps/support/rng.hpp"

namespace vps::can {

inline constexpr std::uint8_t kMaxLinId = 59;  // 0x3C+ reserved for diagnostics

/// Protected identifier: 6-bit id plus the two standard parity bits.
[[nodiscard]] std::uint8_t lin_pid(std::uint8_t id);
/// Checks PID parity; returns the bare id or nullopt on parity error.
[[nodiscard]] std::optional<std::uint8_t> lin_check_pid(std::uint8_t pid);

/// Enhanced checksum (LIN 2.x): inverted carry-sum over PID and data.
[[nodiscard]] std::uint8_t lin_checksum(std::uint8_t pid, std::span<const std::uint8_t> data);

class LinBus;

/// A node on the LIN bus (the master's application side is also a node).
class LinNode {
 public:
  virtual ~LinNode() = default;
  /// Called when this node publishes the given frame slot; return the
  /// response bytes (1..8) or nullopt to stay silent (fault/no update).
  virtual std::optional<std::vector<std::uint8_t>> publish(std::uint8_t frame_id) = 0;
  /// Called with every checksum-clean response on the bus (all nodes
  /// listen; subscribers filter by id).
  virtual void on_frame(std::uint8_t frame_id, std::span<const std::uint8_t> data) = 0;
};

class LinBus final : public sim::Module {
 public:
  struct Slot {
    std::uint8_t frame_id = 0;
    LinNode* publisher = nullptr;
    std::size_t expected_bytes = 2;
  };

  struct Stats {
    std::uint64_t headers_sent = 0;
    std::uint64_t responses_delivered = 0;
    std::uint64_t silent_slots = 0;     ///< publisher gave no response
    std::uint64_t checksum_errors = 0;  ///< corrupted responses dropped
  };

  LinBus(sim::Kernel& kernel, std::string name, std::uint64_t bitrate_bps = 19200);

  void attach(LinNode& node);
  /// Appends a slot to the schedule table (processed round-robin).
  void add_slot(std::uint8_t frame_id, LinNode& publisher, std::size_t bytes);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] sim::Time slot_time(const Slot& slot) const;

  /// Attaches a frame probe: delivered responses become spans over the slot
  /// time; checksum errors and silent slots become marks. nullptr detaches.
  void set_probe(obs::TransactionProbe* probe) noexcept { probe_ = probe; }
  [[nodiscard]] obs::TransactionProbe* probe() const noexcept { return probe_; }
  /// Attaches a provenance tracker: injected response corruption becomes a
  /// contact plus a checksum detection. nullptr detaches.
  void set_provenance(obs::ProvenanceTracker* tracker) noexcept { provenance_ = tracker; }

  // --- fault injection -----------------------------------------------------
  /// Corrupts each response independently with this probability. A non-zero
  /// fault_id attributes the corruption for provenance tracking.
  void set_error_rate(double probability, std::uint64_t seed = 1, std::uint64_t fault_id = 0);

 private:
  [[nodiscard]] sim::Coro master_loop();
  void process_response(const Slot& slot);

  std::uint64_t bitrate_;
  sim::Time bit_time_;
  std::vector<LinNode*> nodes_;
  std::vector<Slot> schedule_;
  sim::Event schedule_changed_;
  obs::TransactionProbe* probe_ = nullptr;
  obs::ProvenanceTracker* provenance_ = nullptr;
  Stats stats_;
  double error_rate_ = 0.0;
  std::uint64_t error_fault_id_ = 0;
  support::Xorshift rng_;
  std::size_t slot_index_ = 0;   ///< next schedule slot to poll
  bool slot_pending_ = false;    ///< a header was sent; response wait outstanding
};

}  // namespace vps::can
