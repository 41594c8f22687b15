#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "vps/hw/ecc.hpp"
#include "vps/obs/provenance.hpp"
#include "vps/sim/time.hpp"
#include "vps/tlm/payload.hpp"
#include "vps/tlm/sockets.hpp"

namespace vps::hw {

/// Error-protection mode of a memory instance.
enum class EccMode : std::uint8_t {
  kNone,    ///< raw SRAM; bit flips silently corrupt data
  kSecded,  ///< Hamming(39,32): corrects 1-bit, detects 2-bit errors
};

/// Byte-addressable memory as a loosely-timed TLM target. Supports DMI for
/// unprotected instances (an ECC memory cannot legally bypass the decoder),
/// and exposes the raw storage to fault injectors in both modes.
class Memory final : public tlm::BlockingTransport, public tlm::DmiProvider {
 public:
  Memory(std::string name, std::size_t size, sim::Time latency, EccMode ecc = EccMode::kNone);

  [[nodiscard]] tlm::TargetSocket& socket() noexcept { return socket_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] EccMode ecc_mode() const noexcept { return ecc_; }

  /// Loads an image at the given offset (e.g. an assembled program).
  void load(std::uint64_t offset, std::span<const std::uint8_t> bytes);

  /// Debug access without latency, ECC decode or statistics.
  [[nodiscard]] std::uint8_t peek(std::uint64_t address) const;
  void poke(std::uint64_t address, std::uint8_t value);
  [[nodiscard]] std::uint32_t peek32(std::uint64_t address) const;
  void poke32(std::uint64_t address, std::uint32_t value);

  // --- fault-injection interface -----------------------------------------
  /// Flips one data bit (byte view). In SEC-DED mode this flips the
  /// corresponding data bit inside the stored codeword. A non-zero fault_id
  /// marks the containing word as carrying that fault for provenance
  /// tracking (first read re-tags the outgoing payload; an ECC
  /// correction/uncorrectable on the word counts as detection).
  void flip_bit(std::uint64_t byte_address, int bit, std::uint64_t fault_id = 0);
  /// SEC-DED mode only: flips a raw codeword bit (0..38) of a 32-bit word,
  /// allowing injection into the check bits as well.
  void flip_codeword_bit(std::uint64_t word_index, int raw_bit, std::uint64_t fault_id = 0);

  /// Attaches a provenance tracker. While attached, DMI is declined (and
  /// pre-existing grants should be invalidated by the caller) so every
  /// access stays visible to the tracker; disabled cost is one pointer test
  /// per b_transport. nullptr detaches.
  void set_provenance(obs::ProvenanceTracker* tracker) noexcept { provenance_ = tracker; }

  /// Registers a callback fired after a bus write lands in the given
  /// word-aligned address (value = the full word after the write). DMI
  /// writes bypass the watch, so pair it with set_provenance (which declines
  /// DMI) when every store must be observed. Scenarios use this to timestamp
  /// firmware-level detections, e.g. an error-counter word the firmware
  /// increments when a link check fails.
  void add_write_watch(std::uint64_t address, std::function<void(std::uint32_t)> callback);

  // --- snapshot-and-fork replay -------------------------------------------
  /// Value-type image of the backing store, poison map and statistics: the
  /// memory's state. Structural configuration (size, ECC mode, watches,
  /// provenance) is not captured: restore targets a twin built with the
  /// same configuration.
  struct Snapshot {
    std::vector<std::uint8_t> plain;       ///< kNone backing store
    std::vector<std::uint64_t> codewords;  ///< kSecded backing store (one per word)
    std::unordered_map<std::uint64_t, std::uint64_t> word_poison;  ///< word index -> fault id
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t corrected = 0;
    std::uint64_t uncorrectable = 0;
  };

  [[nodiscard]] Snapshot snapshot() const { return state_; }
  void restore(const Snapshot& s) { state_ = s; }

  // --- statistics ---------------------------------------------------------
  [[nodiscard]] std::uint64_t reads() const noexcept { return state_.reads; }
  [[nodiscard]] std::uint64_t writes() const noexcept { return state_.writes; }
  [[nodiscard]] std::uint64_t corrected_errors() const noexcept { return state_.corrected; }
  [[nodiscard]] std::uint64_t uncorrectable_errors() const noexcept { return state_.uncorrectable; }

  /// A read that decodes clean (ECC included) with no tracker attached
  /// answers Effect::kStatistics: it changed nothing but reads().
  void b_transport(tlm::GenericPayload& payload, sim::Time& delay) override;
  /// Counts k more reads; only reads are ever flagged.
  void repeat(tlm::GenericPayload& payload, std::uint64_t k) override;
  bool get_direct_mem_ptr(std::uint64_t address, tlm::DmiRegion& region) override;

 private:
  /// Decodes a word; kCorrected scrubs it, kUncorrectable returns 0.
  [[nodiscard]] std::uint32_t read_word(std::uint64_t word_index, EccStatus& status);
  void write_word(std::uint64_t word_index, std::uint32_t value);
  // Cold provenance paths, entered only when a tracker is attached.
  void provenance_read(std::uint64_t word_index, tlm::GenericPayload& payload,
                       EccStatus status);
  void provenance_write(std::uint64_t word_index, std::size_t n,
                        const tlm::GenericPayload& payload);

  std::string name_;
  std::size_t size_;
  sim::Time latency_;
  EccMode ecc_;
  tlm::TargetSocket socket_;
  Snapshot state_;
  obs::ProvenanceTracker* provenance_ = nullptr;
  std::vector<std::pair<std::uint64_t, std::function<void(std::uint32_t)>>> write_watches_;
};

}  // namespace vps::hw
