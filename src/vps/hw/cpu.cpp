#include "vps/hw/cpu.hpp"

#include <algorithm>

#include "vps/tlm/payload.hpp"

namespace vps::hw {

namespace {

/// Every Cpu::Stats field, for the fast-forward and the quantum replay.
constexpr std::uint64_t Cpu::Stats::*kStatsFields[] = {
    &Cpu::Stats::instructions,   &Cpu::Stats::loads,        &Cpu::Stats::stores,
    &Cpu::Stats::branches_taken, &Cpu::Stats::irqs_taken,   &Cpu::Stats::dmi_accesses,
    &Cpu::Stats::bus_accesses};

}  // namespace

const char* to_string(Cpu::State s) noexcept {
  switch (s) {
    case Cpu::State::kRunning: return "RUNNING";
    case Cpu::State::kSleeping: return "SLEEPING";
    case Cpu::State::kHalted: return "HALTED";
    case Cpu::State::kFaulted: return "FAULTED";
  }
  return "?";
}

const char* to_string(Cpu::FaultCause c) noexcept {
  switch (c) {
    case Cpu::FaultCause::kNone: return "NONE";
    case Cpu::FaultCause::kIllegalInstruction: return "ILLEGAL_INSTRUCTION";
    case Cpu::FaultCause::kBusError: return "BUS_ERROR";
    case Cpu::FaultCause::kMisaligned: return "MISALIGNED";
  }
  return "?";
}

Cpu::Cpu(sim::Kernel& kernel, std::string name, Config config)
    : Module(kernel, std::move(name)),
      config_(config),
      socket_(this->name() + ".isock"),
      qk_(kernel, config.quantum),
      reset_event_(kernel, this->name() + ".reset"),
      stopped_event_(kernel, this->name() + ".stopped"),
      core_{.pc = config.reset_pc} {
  spawn("core", main_loop());
}

void Cpu::reset() {
  core_.regs.fill(0);
  core_.taint_mask = 0;
  store_poison_ = 0;
  load_poison_ = 0;
  core_.pc = config_.reset_pc;
  core_.irq_enabled = false;
  core_.in_irq = false;
  core_.saved_pc = 0;
  core_.fault_cause = FaultCause::kNone;
  core_.fault_address = 0;
  core_.state = State::kRunning;
  reset_event_.notify();
}

void Cpu::corrupt_register(int i, std::uint32_t xor_mask, std::uint64_t fault_id) {
  if (i > 0 && i < kRegisterCount) {
    core_.regs[static_cast<std::size_t>(i)] ^= xor_mask;
    if (provenance_ != nullptr && fault_id != 0) {
      core_.taint_mask |= 1u << i;
      core_.reg_taint[static_cast<std::size_t>(i)] = fault_id;
    }
  }
}

void Cpu::corrupt_pc(std::uint32_t xor_mask, std::uint64_t fault_id) {
  core_.pc ^= xor_mask;
  // A corrupted PC takes effect at the very next fetch; record the contact
  // immediately rather than waiting for a value to flow anywhere.
  if (provenance_ != nullptr && fault_id != 0) provenance_->touch(fault_id, "cpu:" + name() + ".pc");
}

void Cpu::track_taint(const Decoded& d) {
  bool reads_rs1 = false;   // 'a' operand
  bool reads_rs2 = false;   // 'b' operand
  bool reads_rd = false;    // rdv operand (stores, branches)
  bool writes_rd = false;
  const Format format = operand_format(d.opcode);
  switch (format) {
    case Format::kNone: break;
    case Format::kReg: reads_rs1 = reads_rs2 = writes_rd = true; break;
    case Format::kSignedImm:
    case Format::kUnsignedImm:
    case Format::kLoad:  // a load's address register feeds the result
      reads_rs1 = writes_rd = true;
      break;
    case Format::kUpperImm:
    case Format::kJump: writes_rd = true; break;
    case Format::kStore:   // address + data registers
    case Format::kBranch:  // branches compare rd with rs1
      reads_rs1 = reads_rd = true;
      break;
  }

  // First tainted operand this instruction consumes defines the contact.
  std::uint64_t fault_id = 0;
  int source = -1;
  if (reads_rs1 && (core_.taint_mask & (1u << d.rs1)) != 0) {
    fault_id = core_.reg_taint[d.rs1];
    source = d.rs1;
  } else if (reads_rs2 && (core_.taint_mask & (1u << d.rs2)) != 0) {
    fault_id = core_.reg_taint[d.rs2];
    source = d.rs2;
  } else if (reads_rd && (core_.taint_mask & (1u << d.rd)) != 0) {
    fault_id = core_.reg_taint[d.rd];
    source = d.rd;
  }
  if (fault_id != 0 && provenance_ != nullptr) {
    provenance_->touch(fault_id, "cpu:" + name() + ".r" + std::to_string(source));
  }
  // Stores forward the data register's taint onto the outgoing payload.
  if (format == Format::kStore && (core_.taint_mask & (1u << d.rd)) != 0) {
    store_poison_ = core_.reg_taint[d.rd];
  }
  // Writes either propagate the consumed taint or clean the destination.
  if (writes_rd && d.rd != 0) {
    if (fault_id != 0) {
      core_.taint_mask |= 1u << d.rd;
      core_.reg_taint[d.rd] = fault_id;
    } else {
      core_.taint_mask &= ~(1u << d.rd);
    }
  }
}

void Cpu::fault(FaultCause cause, std::uint32_t address) {
  core_.state = State::kFaulted;
  core_.fault_cause = cause;
  core_.fault_address = address;
  stopped_event_.notify();
}

template <bool kFastForward>
bool Cpu::bus_read(std::uint32_t address, std::size_t size, std::uint32_t& value) {
  if (config_.use_dmi && dmi_.allows_read && dmi_.covers(address, size)) {
    ++core_.stats.dmi_accesses;
    value = 0;
    const std::uint8_t* p = dmi_.base + (address - dmi_.start);
    for (std::size_t i = size; i-- > 0;) value = (value << 8) | p[i];
    qk_.inc(dmi_.read_latency);
    return true;
  }
  ++core_.stats.bus_accesses;
  tlm::GenericPayload payload(tlm::Command::kRead, address, size);
  sim::Time delay = sim::Time::zero();
  socket_.b_transport(payload, delay);
  qk_.inc(delay);
  if constexpr (kFastForward) record_access(payload);
  if (!payload.ok()) return false;
  if (provenance_ != nullptr && payload.poisoned()) load_poison_ = payload.poison_id();
  value = static_cast<std::uint32_t>(payload.value_le());
  if (config_.use_dmi && payload.dmi_allowed() && !dmi_.covers(address, size)) {
    (void)socket_.get_direct_mem_ptr(address, dmi_);
    anchor_.fixed = false;  // later iterations take the DMI path instead
    chain_[chain_head_].ok = false;
  }
  return true;
}

template <bool kFastForward>
bool Cpu::bus_write(std::uint32_t address, std::size_t size, std::uint32_t value) {
  if (config_.use_dmi && dmi_.allows_write && dmi_.covers(address, size)) {
    ++core_.stats.dmi_accesses;
    std::uint8_t* p = dmi_.base + (address - dmi_.start);
    for (std::size_t i = 0; i < size; ++i) p[i] = static_cast<std::uint8_t>(value >> (8 * i));
    qk_.inc(dmi_.write_latency);
    if (store_poison_ != 0) store_poison_ = 0;  // DMI bypasses the payload
    if constexpr (kFastForward) anchor_.fixed = chain_[chain_head_].ok = false;
    return true;
  }
  ++core_.stats.bus_accesses;
  tlm::GenericPayload payload(tlm::Command::kWrite, address, size);
  payload.set_value_le(value);
  if (store_poison_ != 0) {
    payload.poison(store_poison_);
    store_poison_ = 0;
  }
  sim::Time delay = sim::Time::zero();
  socket_.b_transport(payload, delay);
  qk_.inc(delay);
  if constexpr (kFastForward) record_access(payload);
  return payload.ok();
}

void Cpu::record_access(const tlm::GenericPayload& payload) noexcept {
  const std::uint8_t slot = record_quantum_access(payload);
  if (!payload.repeatable() || anchor_.accesses == kMaxLoopAccesses) {
    anchor_.fixed = false;
    return;
  }
  anchor_.access[anchor_.accesses++] = {static_cast<std::uint32_t>(payload.address()),
                                        static_cast<std::uint8_t>(payload.size()),
                                        payload.command(), slot};
}

std::uint8_t Cpu::record_quantum_access(const tlm::GenericPayload& payload) noexcept {
  QuantumRecord& r = chain_[chain_head_];
  const tlm::Effect effect = payload.ok() ? payload.effect() : tlm::Effect::kState;
  if (!r.ok || effect == tlm::Effect::kState) {
    r.ok = false;
    return kNoSlot;
  }
  const auto address = static_cast<std::uint32_t>(payload.address());
  const auto size = static_cast<std::uint8_t>(payload.size());
  if (effect == tlm::Effect::kStatistics) {
    for (std::size_t i = 0; i < r.accesses; ++i) {
      QuantumAccess& a = r.access[i];
      if (a.effect == effect && a.address == address && a.size == size &&
          a.command == payload.command()) {
        ++a.count;
        return static_cast<std::uint8_t>(i);
      }
    }
  }
  if (r.accesses == kMaxQuantumAccesses) {
    r.ok = false;
    return kNoSlot;
  }
  r.access[r.accesses] = {address, size, payload.command(), effect,
                          static_cast<std::uint32_t>(payload.value_le()), 1};
  return static_cast<std::uint8_t>(r.accesses++);
}

void Cpu::close_iteration() {
  if (anchor_.fixed && anchor_.pc == core_.pc) {
    anchor_.misses = 0;
    fast_forward();
  } else {
    ++anchor_.misses;
  }
  anchor_.fixed = true;
  anchor_.pc = core_.pc;
  anchor_.stats = core_.stats;
  anchor_.local = qk_.local_time();
  anchor_.accesses = 0;
}

void Cpu::fast_forward() {
  // The system is back in the state it had at the anchor, except for
  // counters, and nothing else runs or advances time during this
  // activation. So every further iteration repeats this one exactly, and
  // the k that still end before the quantum (which per-instruction
  // stepping would also run) can be applied at once.
  const sim::Time local = qk_.local_time();
  const sim::Time period = local - anchor_.local;
  if (period == sim::Time::zero() || local >= config_.quantum) return;
  const std::uint64_t k = (config_.quantum - local - sim::Time::ps(1)) / period;
  if (k == 0) return;
  fast_forwarded_ += k * (core_.stats.instructions - anchor_.stats.instructions);
  for (const auto field : kStatsFields) {
    core_.stats.*field += k * (core_.stats.*field - anchor_.stats.*field);
  }
  qk_.inc(period * k);
  QuantumRecord& record = chain_[chain_head_];
  for (std::size_t i = 0; i < anchor_.accesses; ++i) {
    const LoopAccess& access = anchor_.access[i];
    tlm::GenericPayload payload(access.command, access.address, access.size);
    socket_.repeat(payload, k);
    if (access.slot != kNoSlot) record.access[access.slot].count += k;
  }
}

bool Cpu::replay_quantum() {
  if (chain_size_ == 0 || qk_.local_time() != sim::Time::zero() || core_.taint_mask != 0) {
    return false;
  }
  const CoreKey key = core_key();
  std::size_t slot = kChainRecords;
  for (std::size_t i = 0; i < chain_size_ && slot == kChainRecords; ++i) {
    const std::size_t s = (chain_hint_ + i) % chain_size_;
    if (chain_[s].start == key) slot = s;
  }
  if (slot == kChainRecords) return false;
  slot = apply_cycle(slot);
  chain_hint_ = slot + 1;
  const QuantumRecord& record = chain_[slot];
  // Nothing but this core ran since the record's quantum started, and it
  // left every target as that quantum found it but for statistics and
  // re-arm state, so this quantum repeats it (DESIGN.md §14).
  for (std::size_t i = 0; i < record.accesses; ++i) {
    const QuantumAccess& access = record.access[i];
    tlm::GenericPayload payload(access.command, access.address, access.size);
    if (access.effect == tlm::Effect::kStatistics) {
      socket_.repeat(payload, access.count);
      continue;
    }
    payload.set_value_le(access.value);
    sim::Time delay = sim::Time::zero();
    socket_.b_transport(payload, delay);
    if (!payload.ok() || payload.effect() != tlm::Effect::kRearm) [[unlikely]] {
      support::fail("Cpu " + name() + ": a replayed re-arm write did not re-arm: " +
                    payload.to_string());
    }
  }
  for (const auto field : kStatsFields) core_.stats.*field += record.stats.*field;
  fast_forwarded_ += record.stats.instructions;
  ++replayed_quanta_;
  core_.pc = record.end.pc;
  core_.regs = record.end.regs;
  qk_.inc(record.length);
  return true;
}

bool Cpu::same_rearms(const QuantumRecord& a, const QuantumRecord& b) noexcept {
  const auto next = [](const QuantumRecord& r, std::size_t i) {
    while (i < r.accesses && r.access[i].effect != tlm::Effect::kRearm) ++i;
    return i;
  };
  std::size_t i = next(a, 0);
  std::size_t j = next(b, 0);
  for (; i < a.accesses && j < b.accesses; i = next(a, i + 1), j = next(b, j + 1)) {
    if (!(a.access[i] == b.access[j])) return false;
  }
  return i == a.accesses && j == b.accesses;
}

std::size_t Cpu::apply_cycle(std::size_t slot) {
  // Follow each record to the one that starts where it ends (start keys
  // are unique in a chain) until the links lead back to `slot`. Every
  // record of the cycle must make `slot`'s re-arm writes: the quantum
  // after the run then makes each one a skipped quantum would have made
  // again, for real, before anything can read the state it sets.
  std::array<std::size_t, kChainRecords> cycle{};
  std::array<sim::Kernel::InlineWait, kChainRecords> waits{};
  std::size_t n = 0;
  std::size_t s = slot;
  do {
    if (n == chain_size_ || !same_rearms(chain_[s], chain_[slot])) return slot;
    cycle[n] = s;
    waits[n] = {chain_[s].length, chain_[s].seqs};
    ++n;
    const std::size_t from = s;
    s = kChainRecords;
    for (std::size_t i = 0; i < chain_size_; ++i) {
      if (chain_[i].start == chain_[from].end) s = i;
    }
    if (s == kChainRecords) return slot;
  } while (s != slot);
  // The kernel applies the syncs of the quanta the cycle repeats while
  // each would be an inline step; nothing lands at their ends. Those
  // quanta make their accesses' statistics only: a skipped re-arm write's
  // state is set again by the real quantum after them.
  const std::uint64_t applied =
      kernel().inline_waits({waits.data(), n}, [](sim::Time) { return true; });
  if (applied == 0) return slot;
  for (std::size_t i = 0; i < n && i < applied; ++i) {
    const std::uint64_t times = applied / n + (i < applied % n ? 1 : 0);
    const QuantumRecord& record = chain_[cycle[i]];
    for (const auto field : kStatsFields) core_.stats.*field += times * record.stats.*field;
    fast_forwarded_ += times * record.stats.instructions;
    for (std::size_t a = 0; a < record.accesses; ++a) {
      const QuantumAccess& access = record.access[a];
      tlm::GenericPayload payload(access.command, access.address, access.size);
      socket_.repeat(payload, access.count * times);  // a re-arm write's count is 1
    }
  }
  replayed_quanta_ += applied;
  bulk_quanta_ += applied;
  qk_.add_syncs(applied);
  const std::size_t next = cycle[applied % n];
  core_.pc = chain_[next].start.pc;
  core_.regs = chain_[next].start.regs;
  return next;
}

void Cpu::begin_record() noexcept {
  QuantumRecord& r = chain_[chain_head_];
  r.ok = qk_.local_time() == sim::Time::zero() && core_.taint_mask == 0;
  r.start = core_key();
  r.stats = core_.stats;
  r.seqs = kernel().next_seq();
  r.accesses = 0;
}

void Cpu::close_record() noexcept {
  QuantumRecord& r = chain_[chain_head_];
  r.end = core_key();
  if (!r.ok || core_.state != State::kRunning || !qk_.need_sync() ||
      core_.stats.irqs_taken != r.stats.irqs_taken || r.end.irq_enabled != r.start.irq_enabled ||
      r.end.in_irq != r.start.in_irq || r.end.saved_pc != r.start.saved_pc) {
    break_chain();
    return;
  }
  for (const auto field : kStatsFields) r.stats.*field = core_.stats.*field - r.stats.*field;
  r.seqs = kernel().next_seq() - r.seqs;
  r.length = qk_.local_time();
  chain_head_ = (chain_head_ + 1) % kChainRecords;
  chain_size_ = std::min(chain_size_ + 1, kChainRecords);
  chain_hint_ = chain_head_;
}

void Cpu::enter_irq() {
  anchor_.fixed = false;
  ++core_.stats.irqs_taken;
  core_.saved_pc = core_.pc;
  core_.pc = config_.irq_vector;
  core_.irq_enabled = false;
  core_.in_irq = true;
  qk_.inc(config_.cycle_time * 4);  // pipeline flush + vector fetch cost
}

template <bool kFastForward>
bool Cpu::step() {
  // Interrupt check between instructions (level-sensitive).
  if (core_.irq_enabled && irq_line_ != nullptr && irq_line_->read()) enter_irq();

  std::uint32_t word = 0;
  if ((core_.pc & 3u) != 0) {
    fault(FaultCause::kMisaligned, core_.pc);
    return false;
  }
  if (!bus_read<kFastForward>(core_.pc, 4, word)) {
    fault(FaultCause::kBusError, core_.pc);
    return false;
  }
  if (!is_valid_opcode(static_cast<std::uint8_t>(word >> 24))) {
    fault(FaultCause::kIllegalInstruction, core_.pc);
    return false;
  }
  const Decoded d = decode(word);
  if (trace_hook_) trace_hook_(core_.pc, d);
  if (core_.taint_mask != 0) track_taint(d);
  ++core_.stats.instructions;

  std::uint32_t next_pc = core_.pc + 4;
  std::uint64_t cycles = 1;
  const std::uint32_t a = core_.regs[d.rs1];
  const std::uint32_t b = core_.regs[d.rs2];
  const std::uint32_t rdv = core_.regs[d.rd];
  auto wr = [&](std::uint32_t v) {
    if (d.rd == 0) return;
    if constexpr (kFastForward) anchor_.fixed = anchor_.fixed && core_.regs[d.rd] == v;
    core_.regs[d.rd] = v;
  };

  switch (d.opcode) {
    case Opcode::kNop: break;
    case Opcode::kHalt:
      core_.state = State::kHalted;
      stopped_event_.notify();
      return false;
    case Opcode::kWfi:
      core_.pc += 4;  // resume after the WFI once an interrupt arrives
      qk_.inc(config_.cycle_time);
      core_.state = State::kSleeping;
      return false;
    case Opcode::kEi:
      core_.irq_enabled = true;
      anchor_.fixed = false;
      break;
    case Opcode::kDi:
      core_.irq_enabled = false;
      anchor_.fixed = false;
      break;
    case Opcode::kReti:
      next_pc = core_.saved_pc;
      core_.irq_enabled = true;
      core_.in_irq = false;
      anchor_.fixed = false;
      cycles = 2;
      break;

    case Opcode::kAdd: wr(a + b); break;
    case Opcode::kSub: wr(a - b); break;
    case Opcode::kAnd: wr(a & b); break;
    case Opcode::kOr: wr(a | b); break;
    case Opcode::kXor: wr(a ^ b); break;
    case Opcode::kShl: wr(a << (b & 31u)); break;
    case Opcode::kShr: wr(a >> (b & 31u)); break;
    case Opcode::kSra: wr(static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >> (b & 31u))); break;
    case Opcode::kMul:
      wr(a * b);
      cycles = 3;
      break;
    case Opcode::kSlt: wr(static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b) ? 1 : 0); break;
    case Opcode::kSltu: wr(a < b ? 1 : 0); break;

    case Opcode::kAddi: wr(a + static_cast<std::uint32_t>(d.simm())); break;
    case Opcode::kAndi: wr(a & d.uimm()); break;
    case Opcode::kOri: wr(a | d.uimm()); break;
    case Opcode::kXori: wr(a ^ d.uimm()); break;
    case Opcode::kShli: wr(a << (d.uimm() & 31u)); break;
    case Opcode::kShri: wr(a >> (d.uimm() & 31u)); break;
    case Opcode::kLui: wr(d.uimm() << 16); break;
    case Opcode::kSlti: wr(static_cast<std::int32_t>(a) < d.simm() ? 1 : 0); break;

    case Opcode::kLw:
    case Opcode::kLh:
    case Opcode::kLhu:
    case Opcode::kLb:
    case Opcode::kLbu: {
      ++core_.stats.loads;
      const std::uint32_t addr = a + static_cast<std::uint32_t>(d.simm());
      const std::size_t size = d.opcode == Opcode::kLw ? 4
                               : (d.opcode == Opcode::kLh || d.opcode == Opcode::kLhu) ? 2
                                                                                       : 1;
      std::uint32_t v = 0;
      if (!bus_read<kFastForward>(addr, size, v)) {
        fault(FaultCause::kBusError, addr);
        return false;
      }
      if (d.opcode == Opcode::kLb) v = static_cast<std::uint32_t>(static_cast<std::int8_t>(v));
      if (d.opcode == Opcode::kLh) v = static_cast<std::uint32_t>(static_cast<std::int16_t>(v));
      wr(v);
      cycles = 2;
      break;
    }
    case Opcode::kSw:
    case Opcode::kSh:
    case Opcode::kSb: {
      ++core_.stats.stores;
      const std::uint32_t addr = a + static_cast<std::uint32_t>(d.simm());
      const std::size_t size = d.opcode == Opcode::kSw ? 4 : d.opcode == Opcode::kSh ? 2 : 1;
      if (!bus_write<kFastForward>(addr, size, rdv)) {
        fault(FaultCause::kBusError, addr);
        return false;
      }
      cycles = 2;
      break;
    }

    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBltu:
    case Opcode::kBgeu: {
      bool taken = false;
      switch (d.opcode) {
        case Opcode::kBeq: taken = rdv == a; break;
        case Opcode::kBne: taken = rdv != a; break;
        case Opcode::kBlt: taken = static_cast<std::int32_t>(rdv) < static_cast<std::int32_t>(a); break;
        case Opcode::kBge: taken = static_cast<std::int32_t>(rdv) >= static_cast<std::int32_t>(a); break;
        case Opcode::kBltu: taken = rdv < a; break;
        case Opcode::kBgeu: taken = rdv >= a; break;
        default: break;
      }
      if (taken) {
        next_pc = core_.pc + static_cast<std::uint32_t>(d.simm());
        ++core_.stats.branches_taken;
        cycles = 2;
      }
      break;
    }

    case Opcode::kJal:
      wr(core_.pc + 4);
      next_pc = core_.pc + static_cast<std::uint32_t>(d.simm());
      cycles = 2;
      break;
    case Opcode::kJalr:
      wr(core_.pc + 4);
      next_pc = a + static_cast<std::uint32_t>(d.simm());
      cycles = 2;
      break;
  }

  // A load that pulled a poisoned value taints its destination register
  // (set in bus_read; also covers a fetch from a poisoned word, which makes
  // the produced result suspect).
  if (load_poison_ != 0) {
    if (d.rd != 0) {
      core_.taint_mask |= 1u << d.rd;
      core_.reg_taint[d.rd] = load_poison_;
    }
    load_poison_ = 0;
  }

  const bool backward = next_pc <= core_.pc;
  core_.pc = next_pc;
  qk_.inc(config_.cycle_time * cycles);
  if constexpr (kFastForward) {
    if (backward) close_iteration();
  }
  return core_.state == State::kRunning;
}

void Cpu::restore(const Snapshot& s) {
  core_ = s;
  qk_.restore(s.qk);
  // The poison hand-off lives within one instruction, so a snapshot taken
  // between activations holds none: drop whatever the twin's last
  // instruction left.
  store_poison_ = 0;
  load_poison_ = 0;
  // Re-acquire the DMI window from the bound target (restore runs after the
  // backing memory is restored): the pointer must reference the twin's
  // storage, and holding the grant keeps the dmi/bus access split — and with
  // it every statistic — identical to a full replay.
  dmi_ = tlm::DmiRegion{};
  if (s.dmi_held) (void)socket_.get_direct_mem_ptr(s.dmi_start, dmi_);
  break_chain();
}

template <bool kFastForward>
void Cpu::run_quantum() {
  if constexpr (kFastForward) {
    anchor_.fixed = false;  // no anchor yet in this activation
    anchor_.misses = 0;
  }
  while (core_.state == State::kRunning) {
    if (!step<kFastForward>()) return;
    if (config_.quantum == sim::Time::zero() || qk_.need_sync()) return;
    if constexpr (kFastForward) {
      if (anchor_.misses == kMaxLoopMisses) {
        chain_[chain_head_].ok = false;
        return run_quantum<false>();
      }
    }
  }
}

sim::Coro Cpu::main_loop() {
  bool chained = false;  // the last sync let no other process run
  for (;;) {
    switch (core_.state) {
      case State::kRunning: {
        // Execute a decoupled batch, then hand time back to the kernel.
        // Loop fast-forward and quantum replay are decided once per
        // activation: they stay off while something must see every
        // instruction or every access, and a zero quantum leaves no
        // iteration to skip.
        if (!trace_hook_ && provenance_ == nullptr && config_.quantum != sim::Time::zero()) {
          if (!chained) break_chain();
          if (!replay_quantum()) {
            begin_record();
            run_quantum<true>();
            close_record();
          }
        } else {
          break_chain();
          run_quantum<false>();
        }
        chained = co_await qk_.sync();
        break;
      }
      case State::kSleeping: {
        if (irq_line_ == nullptr) {
          // No interrupt source: WFI behaves like HALT.
          core_.state = State::kHalted;
          stopped_event_.notify();
          break;
        }
        while (!irq_line_->read()) co_await irq_line_->changed();
        if (core_.irq_enabled) enter_irq();
        core_.state = State::kRunning;
        break;
      }
      case State::kHalted:
      case State::kFaulted:
        co_await reset_event_;
        break;
    }
  }
}

}  // namespace vps::hw
