#pragma once

/// Transaction-level CAN bus: exact frame timing (bit count / bitrate),
/// priority arbitration at frame boundaries, CRC-detected corruption with
/// automatic retransmission, and the standard fault-confinement state
/// machine (TEC/REC counters, error-passive, bus-off with recovery).

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "vps/can/frame.hpp"
#include "vps/obs/probe.hpp"
#include "vps/obs/provenance.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/sim/module.hpp"
#include "vps/support/rng.hpp"

namespace vps::can {

/// Fault-confinement state per node (ISO 11898 fault confinement).
enum class NodeState : std::uint8_t { kErrorActive, kErrorPassive, kBusOff };

class CanBus;

/// Attachment point for controllers/software models.
class CanNode {
 public:
  virtual ~CanNode() = default;
  /// Delivered, CRC-clean frame (not called for the transmitter itself).
  virtual void on_frame(const CanFrame& frame) = 0;

  [[nodiscard]] NodeState state() const noexcept { return image_.state; }
  [[nodiscard]] unsigned tec() const noexcept { return image_.tec; }
  [[nodiscard]] unsigned rec() const noexcept { return image_.rec; }
  [[nodiscard]] std::size_t node_index() const noexcept { return index_; }

  /// The node's replayable state, imaged by CanBus::Snapshot.
  struct Image {
    NodeState state = NodeState::kErrorActive;
    unsigned tec = 0;  ///< transmit error counter
    unsigned rec = 0;  ///< receive error counter
    std::deque<CanFrame> tx_queue;
  };

 private:
  friend class CanBus;
  Image image_;
  std::size_t index_ = 0;
  CanBus* bus_ = nullptr;
};

class CanBus final : public sim::Module {
 public:
  struct Stats {
    std::uint64_t frames_delivered = 0;
    std::uint64_t arbitration_contests = 0;  ///< rounds with >1 competing node
    std::uint64_t corrupted_frames = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t dropped_bus_off = 0;
    std::uint64_t bus_off_events = 0;
  };

  CanBus(sim::Kernel& kernel, std::string name, std::uint64_t bitrate_bps = 500000);

  void attach(CanNode& node);
  /// Queues a frame for transmission by `node`; arbitration happens at the
  /// next bus-idle point. Frames from bus-off nodes are dropped.
  void submit(CanNode& node, const CanFrame& frame);

  [[nodiscard]] sim::Time bit_time() const noexcept { return bit_time_; }
  [[nodiscard]] sim::Time frame_time(const CanFrame& frame) const {
    return bit_time_ * frame_bit_count(frame);
  }
  [[nodiscard]] const Stats& stats() const noexcept { return state_.stats; }
  [[nodiscard]] std::size_t pending_frames() const noexcept;

  /// Attaches a frame probe: each delivered frame becomes a latency sample
  /// and trace span covering its wire time; corruption and bus-off events
  /// become instant marks. nullptr detaches.
  void set_probe(obs::TransactionProbe* probe) noexcept { probe_ = probe; }
  [[nodiscard]] obs::TransactionProbe* probe() const noexcept { return probe_; }
  /// Attaches a provenance tracker: wire corruption becomes a contact plus a
  /// CRC detection; delivered frames carrying a poison_id (corrupted before
  /// protection) become contacts. nullptr detaches.
  void set_provenance(obs::ProvenanceTracker* tracker) noexcept { provenance_ = tracker; }
  /// Fired after every completed (delivered or failed) frame slot.
  [[nodiscard]] sim::Event& frame_done_event() noexcept { return frame_done_; }

  // --- fault-injection interface -----------------------------------------
  /// Each transmitted frame is independently corrupted with this probability
  /// (models EMI bursts on the harness; a corrupted frame fails CRC at every
  /// receiver and is retransmitted by the sender). A non-zero fault_id
  /// attributes the corruption for provenance tracking.
  void set_error_rate(double probability, std::uint64_t seed = 1, std::uint64_t fault_id = 0);
  /// Corrupts exactly the next transmitted frame.
  void force_error_on_next_frame(std::uint64_t fault_id = 0) noexcept {
    state_.force_error = true;
    if (fault_id != 0) state_.error_fault_id = fault_id;
  }

  /// Starts bus-off recovery for a node (ISO 11898 requires a software
  /// request; the node rejoins after 128 x 11 recessive bit times).
  void request_recovery(CanNode& node);

  // --- snapshot-and-fork replay -------------------------------------------
  /// Transmit state machine phase; exposed for snapshotting. The arbiter
  /// process is written so its entire suspension state is (tx_phase,
  /// tx_node) plus the node queues — see run() in bus.cpp.
  enum class TxPhase : std::uint8_t { kIdle, kTransmitting, kBackoff };

  /// The bus's own state; each node holds its own CanNode::Image.
  struct State {
    Stats stats;
    double error_rate = 0.0;
    bool force_error = false;
    std::uint64_t error_fault_id = 0;  ///< fault attributed for injected corruption
    support::Xorshift rng{1};
    TxPhase tx_phase = TxPhase::kIdle;
    std::size_t tx_node = 0;  ///< index of the node whose frame is on the wire
  };
  struct Snapshot : State {
    std::vector<CanNode::Image> nodes;  ///< in attach order
  };
  [[nodiscard]] Snapshot snapshot() const;
  void restore(const Snapshot& s);

 private:
  [[nodiscard]] sim::Coro run();
  [[nodiscard]] sim::Coro recover(CanNode& node);
  [[nodiscard]] CanNode* arbitrate();
  void bump_tx_error(CanNode& node);

  std::uint64_t bitrate_;
  sim::Time bit_time_;
  std::vector<CanNode*> nodes_;
  sim::Event submitted_;
  sim::Event frame_done_;
  obs::TransactionProbe* probe_ = nullptr;
  obs::ProvenanceTracker* provenance_ = nullptr;
  State state_;
};

}  // namespace vps::can
