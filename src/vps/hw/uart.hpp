#pragma once

/// Point-to-point UART with shift-register timing: bytes queue in a TX
/// FIFO and are serialized bit by bit at the configured baud rate (start
/// bit, 8 data bits LSB-first, optional even parity, stop bit). The
/// receiving end of the wire reassembles the frame and checks framing
/// (start/stop levels) and parity, so line corruption is *detectable* at
/// this layer — and a double bit flip inside the data bits passes parity
/// silently, which is exactly the residual-error behaviour an end-to-end
/// checksum above the UART must catch. corrupt_bits() is the injectable
/// fault site: it inverts the next N line bits, modelling an EMI burst.
///
/// Bit i of a frame shifts at the frame's start plus i + 1 bit times, but
/// only a line fault can observe a bit before the frame is delivered. A
/// clean frame (no corruption pending) therefore takes one timed wait, to
/// its last bit, and lands whole there; the byte is delivered at the same
/// instant as bit by bit. corrupt_bits() during a clean frame shifts the
/// bits already due clean and wakes the shift process at the next bit,
/// from where it shifts bit by bit until no corruption is pending, then
/// owes the frame's clean rest at its end again (DESIGN.md sec. 13, which
/// also names the two orderings that differ from a bit-level UART). When a
/// clean frame lands, the clean frames queued behind it land in the same
/// activation, each at its own end, while each one's wait would be an
/// inline timed step (Kernel::inline_waits).
///
/// The shift process is written restore-safe (DESIGN.md sec. 6): what is
/// owed at the next resume — one bit or the rest of the frame — is named
/// by a flag and settled at the top of the loop, so a coroutine recreated
/// by Kernel::restore continues mid-frame exactly where the snapshotted
/// original was parked.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "vps/obs/provenance.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/sim/module.hpp"

namespace vps::hw {

struct UartConfig {
  std::uint32_t baud = 115200;
  bool parity = true;  ///< even parity bit between data and stop
};

class Uart final : public sim::Module {
 public:
  Uart(sim::Kernel& kernel, std::string name, UartConfig config = {});

  /// Queues `n` bytes for transmission (the TX FIFO is unbounded — flow
  /// control is the caller's problem at this abstraction level).
  void transmit(const std::uint8_t* data, std::size_t n);

  /// Delivery callback for correctly framed, parity-clean bytes.
  void set_on_byte(std::function<void(std::uint8_t)> on_byte) {
    on_byte_ = std::move(on_byte);
  }

  /// Fault site: inverts the next `count` bits on the wire (start/data/
  /// parity/stop alike). A non-zero poison_id attributes the corruption
  /// for provenance tracking. Called from a process at a bit's instant,
  /// the burst starts with that bit; called between run() calls, with the
  /// first bit not yet due. During a clean frame it makes a timed entry
  /// keyed by a reserved seq, so right after Kernel::restore it leaves the
  /// seq restore() hands out to the process spawned next.
  void corrupt_bits(std::uint32_t count, std::uint64_t poison_id = 0);

  /// nullptr detaches.
  void set_provenance(obs::ProvenanceTracker* tracker) noexcept { provenance_ = tracker; }

  [[nodiscard]] sim::Time bit_time() const noexcept { return bit_time_; }
  [[nodiscard]] sim::Time byte_time() const noexcept { return bit_time_ * frame_bits(); }
  [[nodiscard]] bool idle() const noexcept { return !state_.shifting && !queued(); }

  [[nodiscard]] std::uint64_t bytes_enqueued() const noexcept { return state_.bytes_enqueued; }
  [[nodiscard]] std::uint64_t bytes_delivered() const noexcept { return state_.bytes_delivered; }
  /// Line bits due by now, the ones a clean frame still owes included.
  [[nodiscard]] std::uint64_t bits_shifted() const noexcept;
  [[nodiscard]] std::uint64_t parity_errors() const noexcept { return state_.parity_errors; }
  [[nodiscard]] std::uint64_t framing_errors() const noexcept { return state_.framing_errors; }
  [[nodiscard]] std::uint64_t frames_corrupted() const noexcept { return state_.frames_corrupted; }
  /// Bytes landed in place behind another frame in the same activation: a
  /// diagnostic, outside Snapshot, that restore() leaves alone.
  [[nodiscard]] std::uint64_t bytes_in_place() const noexcept { return bytes_in_place_; }

  // --- snapshot-and-fork replay -------------------------------------------
  struct Snapshot {
    std::vector<std::uint8_t> tx_fifo;  ///< bytes from tx_head on are queued
    std::size_t tx_head = 0;
    bool shifting = false;
    bool bit_pending = false;  ///< a line bit is owed at the next resume
    bool frame_owed = false;   ///< the frame's clean rest is owed at its last bit
    sim::Time frame_start;     ///< the instant the current frame was loaded
    std::uint32_t bit_index = 0;
    std::uint16_t tx_frame = 0;  ///< frame as driven by the transmitter
    std::uint16_t rx_frame = 0;  ///< frame as sampled off the (possibly corrupted) wire
    bool frame_corrupted = false;
    std::uint32_t corrupt_remaining = 0;
    std::uint64_t corrupt_poison = 0;
    bool corrupt_touched = false;
    std::uint64_t bytes_enqueued = 0;
    std::uint64_t bytes_delivered = 0;
    std::uint64_t bits_shifted = 0;
    std::uint64_t parity_errors = 0;
    std::uint64_t framing_errors = 0;
    std::uint64_t frames_corrupted = 0;
  };
  [[nodiscard]] Snapshot snapshot() const { return state_; }
  void restore(const Snapshot& s) { state_ = s; }

 private:
  [[nodiscard]] std::uint32_t frame_bits() const noexcept { return config_.parity ? 11 : 10; }
  [[nodiscard]] sim::Time frame_end() const noexcept { return state_.frame_start + byte_time(); }
  [[nodiscard]] bool queued() const noexcept { return state_.tx_head != state_.tx_fifo.size(); }
  [[nodiscard]] bool clean_frame_queued() const noexcept {
    return queued() && state_.corrupt_remaining == 0;
  }
  [[nodiscard]] std::uint32_t bits_due(bool before_now) const noexcept;
  [[nodiscard]] sim::Coro shift_loop();
  void load_frame();
  void land_queued_frames();
  void shift_clean(std::uint32_t end);
  void shift_bit();
  void finish_frame();
  void resume_bitwise();

  UartConfig config_;
  sim::Time bit_time_;
  sim::Event tx_enqueued_;
  sim::Event wake_;  ///< wakes a clean frame's wait at the first corrupted bit
  std::function<void(std::uint8_t)> on_byte_;
  obs::ProvenanceTracker* provenance_ = nullptr;
  Snapshot state_;
  std::uint64_t bytes_in_place_ = 0;
};

}  // namespace vps::hw
