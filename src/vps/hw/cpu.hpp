#pragma once

/// AR32 instruction-set simulator as a loosely-timed TLM initiator with
/// temporal decoupling. The core executes batches of instructions against a
/// local time offset and synchronizes with the kernel once per quantum —
/// the VP acceleration pattern whose cost/accuracy trade-off E4 measures.
/// Loop fast-forward (DESIGN.md §10) and quantum replay (§14) apply the
/// iterations and quanta that repeat exactly instead of interpreting them;
/// a run of quanta that goes round a cycle of records is applied in bulk.

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "vps/hw/isa.hpp"
#include "vps/obs/provenance.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/sim/module.hpp"
#include "vps/sim/signal.hpp"
#include "vps/tlm/quantum.hpp"
#include "vps/tlm/sockets.hpp"

namespace vps::hw {

class Cpu final : public sim::Module {
 public:
  enum class State : std::uint8_t { kRunning, kSleeping, kHalted, kFaulted };
  enum class FaultCause : std::uint8_t { kNone, kIllegalInstruction, kBusError, kMisaligned };

  struct Config {
    sim::Time cycle_time = sim::Time::ns(10);  ///< 100 MHz core clock
    sim::Time quantum = sim::Time::us(10);     ///< temporal-decoupling quantum
    std::uint32_t reset_pc = 0;
    std::uint32_t irq_vector = 0x10;
    bool use_dmi = true;  ///< fast path into unprotected memories
  };

  struct Stats {
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches_taken = 0;
    std::uint64_t irqs_taken = 0;
    std::uint64_t dmi_accesses = 0;
    std::uint64_t bus_accesses = 0;
  };

  Cpu(sim::Kernel& kernel, std::string name, Config config);

  [[nodiscard]] tlm::InitiatorSocket& socket() noexcept { return socket_; }
  /// Level-sensitive interrupt request input.
  void connect_irq(sim::Signal<bool>& line) noexcept { irq_line_ = &line; }

  [[nodiscard]] State state() const noexcept { return core_.state; }
  [[nodiscard]] FaultCause fault_cause() const noexcept { return core_.fault_cause; }
  [[nodiscard]] std::uint32_t fault_address() const noexcept { return core_.fault_address; }
  [[nodiscard]] const Stats& stats() const noexcept { return core_.stats; }
  [[nodiscard]] tlm::QuantumKeeper& quantum_keeper() noexcept { return qk_; }
  /// Diagnostic: instructions retired by loop fast-forward or quantum
  /// replay rather than interpreted (see main_loop). Included in
  /// stats().instructions; not part of a Snapshot.
  [[nodiscard]] std::uint64_t fast_forwarded() const noexcept { return fast_forwarded_; }
  /// Diagnostic: quanta replayed from a chained record (DESIGN.md §14),
  /// that is, not interpreted; their instructions count in
  /// fast_forwarded(). Not part of a Snapshot.
  [[nodiscard]] std::uint64_t replayed_quanta() const noexcept { return replayed_quanta_; }
  /// Diagnostic: the replayed quanta applied in bulk, a run of a record
  /// cycle at once, rather than one by one. Not part of a Snapshot.
  [[nodiscard]] std::uint64_t bulk_quanta() const noexcept { return bulk_quanta_; }

  [[nodiscard]] std::uint32_t pc() const noexcept { return core_.pc; }
  void set_pc(std::uint32_t pc) noexcept { core_.pc = pc; }
  [[nodiscard]] std::uint32_t reg(int i) const { return core_.regs.at(static_cast<std::size_t>(i)); }
  void set_reg(int i, std::uint32_t v) {
    if (i != 0) core_.regs.at(static_cast<std::size_t>(i)) = v;
  }

  /// Returns the core to reset state and resumes execution if halted.
  void reset();

  /// Fired whenever the core stops executing (halt or fault) — monitors use
  /// this to detect hangs and HW-detected faults.
  [[nodiscard]] sim::Event& stopped_event() noexcept { return stopped_event_; }

  // --- fault-injection interface -----------------------------------------
  /// XORs a mask into a register file entry (SEU in the register file). A
  /// non-zero fault_id taints the register for provenance tracking: the
  /// first instruction consuming it records the contact, stores forward the
  /// taint onto the outgoing payload, and clean overwrites clear it.
  void corrupt_register(int i, std::uint32_t xor_mask, std::uint64_t fault_id = 0);
  /// XORs a mask into the program counter (control-flow upset).
  void corrupt_pc(std::uint32_t xor_mask, std::uint64_t fault_id = 0);

  /// Attaches a provenance tracker. Disabled cost: one branch per executed
  /// instruction (taint mask test) plus one per bus access, mirroring the
  /// trace-hook pattern. nullptr detaches and drops all taint. An attached
  /// tracker turns loop fast-forward off.
  void set_provenance(obs::ProvenanceTracker* tracker) noexcept {
    provenance_ = tracker;
    if (tracker == nullptr) {
      core_.taint_mask = 0;
      store_poison_ = 0;
      load_poison_ = 0;
    }
  }

  /// Optional per-instruction hook (pc, decoded instruction). Used by
  /// coverage collectors; adds one branch to the hot loop when unset. A set
  /// hook sees every instruction, so it turns loop fast-forward off.
  void set_trace_hook(std::function<void(std::uint32_t, const Decoded&)> hook) {
    trace_hook_ = std::move(hook);
  }

  // --- snapshot-and-fork replay -------------------------------------------
  /// The architectural and micro-architectural state the core holds.
  struct Core {
    State state = State::kRunning;
    FaultCause fault_cause = FaultCause::kNone;
    std::uint32_t fault_address = 0;
    std::uint32_t pc = 0;
    std::array<std::uint32_t, kRegisterCount> regs{};
    bool irq_enabled = false;
    bool in_irq = false;
    std::uint32_t saved_pc = 0;
    Stats stats{};
    // Provenance: register-file taint (bit i of taint_mask set = regs[i]
    // carries fault reg_taint[i]).
    std::uint32_t taint_mask = 0;
    std::array<std::uint64_t, kRegisterCount> reg_taint{};
  };
  /// Value-type image of the core, its quantum keeper and its DMI grant.
  /// The grant is captured as its address window only: restore
  /// re-acquires the pointer from the bound target so it lands in the
  /// twin's backing store, never the snapshot source's.
  struct Snapshot : Core {
    tlm::QuantumKeeper::Snapshot qk;
    bool dmi_held = false;
    std::uint64_t dmi_start = 0;
  };

  [[nodiscard]] Snapshot snapshot() const {
    return Snapshot{core_, qk_.snapshot(), dmi_.base != nullptr, dmi_.start};
  }
  void restore(const Snapshot& s);

 private:
  [[nodiscard]] sim::Coro main_loop();
  /// Steps until the quantum is used up or execution pauses. kFastForward
  /// records loop iterations and applies the repeats of a fixed point, until
  /// kMaxLoopMisses iterations in a row were none.
  template <bool kFastForward>
  void run_quantum();
  /// Executes one instruction; returns false when execution must pause
  /// (halt/fault/sleep). Accumulates local time into the quantum keeper.
  template <bool kFastForward>
  bool step();
  /// Cold taint bookkeeping, entered only while registers are tainted:
  /// records first consumption of a corrupted register, forwards taint to
  /// written registers and store payloads, clears it on clean overwrites.
  void track_taint(const Decoded& d);
  void enter_irq();
  void fault(FaultCause cause, std::uint32_t address);

  template <bool kFastForward>
  bool bus_read(std::uint32_t address, std::size_t size, std::uint32_t& value);
  template <bool kFastForward>
  bool bus_write(std::uint32_t address, std::size_t size, std::uint32_t value);

  /// Notes a bus access of the iteration and of the quantum being recorded.
  void record_access(const tlm::GenericPayload& payload) noexcept;
  /// Aggregates a bus access into the quantum being recorded; returns its
  /// slot there, or kNoSlot when the access disqualifies the quantum.
  std::uint8_t record_quantum_access(const tlm::GenericPayload& payload) noexcept;
  /// At a control transfer to pc <= the transferring instruction: applies
  /// the further iterations that fit in the quantum when the one since the
  /// anchor was a fixed point, then re-anchors at pc.
  void close_iteration();
  /// Applies the k repeats of the fixed-point iteration just closed that
  /// end before the quantum does.
  void fast_forward();

  /// At a quantum's start: applies the chained record the core state
  /// matches, as a replay, after applying in bulk the run of quanta from
  /// that record on whose syncs the kernel would apply in place; false when
  /// no record matches.
  bool replay_quantum();
  /// Applies in bulk the quanta from the record in `slot` on, when that
  /// record lies in a closed cycle of the ring whose records all make the
  /// same re-arm writes; returns the slot of the record that starts the
  /// quantum after them (`slot` when none was applied).
  std::size_t apply_cycle(std::size_t slot);
  /// Starts recording the quantum about to be interpreted.
  void begin_record() noexcept;
  /// Adds the quantum just interpreted to the chain, or breaks the chain
  /// when it does not qualify.
  void close_record() noexcept;
  void break_chain() noexcept { chain_size_ = chain_head_ = chain_hint_ = 0; }

  Config config_;
  tlm::InitiatorSocket socket_;
  tlm::QuantumKeeper qk_;
  sim::Signal<bool>* irq_line_ = nullptr;
  sim::Event reset_event_;
  sim::Event stopped_event_;

  Core core_;
  tlm::DmiRegion dmi_;
  std::function<void(std::uint32_t, const Decoded&)> trace_hook_;

  // Provenance: register-file taint lives in core_; store_poison_/
  // load_poison_ hand fault ids across the bus_write/bus_read boundary
  // within one instruction.
  obs::ProvenanceTracker* provenance_ = nullptr;
  std::uint64_t store_poison_ = 0;
  std::uint64_t load_poison_ = 0;

  // Loop fast-forward. The anchor lives for one activation only and never
  // enters a Snapshot: it is the state at backward-branch target pc, and
  // `fixed` stays true while the iteration since then wrote only values
  // registers already held, changed no IRQ state, wrote and acquired no
  // DMI, and made only accesses its targets flagged repeatable.
  struct LoopAccess {
    std::uint32_t address = 0;
    std::uint8_t size = 0;
    tlm::Command command = tlm::Command::kIgnore;
    std::uint8_t slot = 0;  ///< its aggregate in the quantum record, or kNoSlot
  };
  static constexpr std::size_t kMaxLoopAccesses = 32;
  /// Consecutive iterations that were no fixed point after which the rest
  /// of the activation steps without recording: such a loop computes.
  static constexpr std::uint32_t kMaxLoopMisses = 8;
  struct LoopAnchor {
    bool fixed = false;
    std::uint32_t misses = 0;
    std::uint32_t pc = 0;
    Stats stats;
    sim::Time local;
    std::size_t accesses = 0;
    std::array<LoopAccess, kMaxLoopAccesses> access{};
  };
  LoopAnchor anchor_;
  std::uint64_t fast_forwarded_ = 0;

  // Quantum replay (DESIGN.md §14). A chain is a run of quanta joined by
  // syncs the kernel applied in place, so nothing but this core ran in
  // it. The ring holds the records of the chain's last quanta; each made
  // only kStatistics and kRearm accesses (a bounded number, kStatistics
  // ones aggregated by address, size and command), wrote and acquired no
  // DMI, took no IRQ, changed no IRQ state, never fell back to stepping,
  // and ran from local time 0 to need_sync(). A quantum of the chain that
  // starts in the core state (pc, registers, IRQ flags, saved pc) a record
  // started in repeats it, so it is replayed instead of interpreted. When
  // its record lies in a closed cycle of the ring whose records make the
  // same re-arm writes, the quanta of the cycle whose syncs the kernel
  // would apply in place are applied in bulk first (apply_cycle). Like
  // the anchor, none of this enters a Snapshot.
  struct QuantumAccess {
    std::uint32_t address = 0;
    std::uint8_t size = 0;
    tlm::Command command = tlm::Command::kIgnore;
    tlm::Effect effect = tlm::Effect::kStatistics;
    std::uint32_t value = 0;  ///< a re-arm write's data
    std::uint64_t count = 0;  ///< kStatistics accesses aggregated here
    bool operator==(const QuantumAccess&) const = default;
  };
  static constexpr std::size_t kMaxQuantumAccesses = 16;
  static constexpr std::uint8_t kNoSlot = kMaxQuantumAccesses;
  /// A 10 us quantum is no multiple of the CAPS loop's period, so its
  /// quanta start at three loop positions in turn: a cycle of three.
  static constexpr std::size_t kChainRecords = 4;
  /// The core state a quantum's execution depends on.
  struct CoreKey {
    std::uint32_t pc = 0;
    std::array<std::uint32_t, kRegisterCount> regs{};
    bool irq_enabled = false;
    bool in_irq = false;
    std::uint32_t saved_pc = 0;
    bool operator==(const CoreKey&) const = default;
  };
  [[nodiscard]] CoreKey core_key() const noexcept {
    return {core_.pc, core_.regs, core_.irq_enabled, core_.in_irq, core_.saved_pc};
  }
  struct QuantumRecord {
    bool ok = false;  ///< cleared by the first event that disqualifies it
    CoreKey start;    ///< the record's key
    CoreKey end;
    Stats stats;  ///< at the start while recording, then the delta
    sim::Time length;
    std::uint64_t seqs = 0;  ///< kernel seqs the quantum drew (its re-arm writes')
    std::size_t accesses = 0;
    std::array<QuantumAccess, kMaxQuantumAccesses> access{};
  };
  /// Whether two records make the same re-arm writes, in the same order.
  [[nodiscard]] static bool same_rearms(const QuantumRecord& a, const QuantumRecord& b) noexcept;
  std::array<QuantumRecord, kChainRecords> chain_{};
  std::size_t chain_size_ = 0;  ///< records of the current chain, in slots [0, size)
  std::size_t chain_head_ = 0;  ///< the slot an interpreted quantum records into
  std::size_t chain_hint_ = 0;  ///< where matching starts
  std::uint64_t replayed_quanta_ = 0;
  std::uint64_t bulk_quanta_ = 0;
};

[[nodiscard]] const char* to_string(Cpu::State s) noexcept;
[[nodiscard]] const char* to_string(Cpu::FaultCause c) noexcept;

}  // namespace vps::hw
