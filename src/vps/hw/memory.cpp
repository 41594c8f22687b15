#include "vps/hw/memory.hpp"

#include "vps/support/ensure.hpp"

namespace vps::hw {

using support::ensure;

Memory::Memory(std::string name, std::size_t size, sim::Time latency, EccMode ecc)
    : name_(std::move(name)), size_(size), latency_(latency), ecc_(ecc),
      socket_(name_ + ".tsock") {
  ensure(size_ > 0 && size_ % 4 == 0, "Memory size must be a positive multiple of 4");
  if (ecc_ == EccMode::kNone) {
    state_.plain.assign(size_, 0);
  } else {
    state_.codewords.assign(size_ / 4, ecc_encode(0));
  }
  socket_.set_blocking(*this);
  socket_.set_dmi(*this);
}

void Memory::load(std::uint64_t offset, std::span<const std::uint8_t> bytes) {
  ensure(offset + bytes.size() <= size_, "Memory::load out of range");
  for (std::size_t i = 0; i < bytes.size(); ++i) poke(offset + i, bytes[i]);
}

std::uint8_t Memory::peek(std::uint64_t address) const {
  ensure(address < size_, "Memory::peek out of range");
  if (ecc_ == EccMode::kNone) return state_.plain[address];
  const auto decoded = ecc_decode(state_.codewords[address / 4]);
  return static_cast<std::uint8_t>(decoded.data >> (8 * (address % 4)));
}

void Memory::poke(std::uint64_t address, std::uint8_t value) {
  ensure(address < size_, "Memory::poke out of range");
  if (ecc_ == EccMode::kNone) {
    state_.plain[address] = value;
    return;
  }
  const std::uint64_t w = address / 4;
  const int shift = 8 * static_cast<int>(address % 4);
  std::uint32_t word = ecc_decode(state_.codewords[w]).data;
  word = (word & ~(0xFFu << shift)) | (static_cast<std::uint32_t>(value) << shift);
  state_.codewords[w] = ecc_encode(word);
}

std::uint32_t Memory::peek32(std::uint64_t address) const {
  ensure(address % 4 == 0, "Memory::peek32 must be word-aligned");
  if (ecc_ == EccMode::kNone) {
    return static_cast<std::uint32_t>(state_.plain[address]) |
           (static_cast<std::uint32_t>(state_.plain[address + 1]) << 8) |
           (static_cast<std::uint32_t>(state_.plain[address + 2]) << 16) |
           (static_cast<std::uint32_t>(state_.plain[address + 3]) << 24);
  }
  return ecc_decode(state_.codewords[address / 4]).data;
}

void Memory::poke32(std::uint64_t address, std::uint32_t value) {
  ensure(address % 4 == 0 && address + 4 <= size_, "Memory::poke32 out of range/unaligned");
  if (ecc_ == EccMode::kNone) {
    for (int i = 0; i < 4; ++i) state_.plain[address + static_cast<std::uint64_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
    return;
  }
  state_.codewords[address / 4] = ecc_encode(value);
}

void Memory::flip_bit(std::uint64_t byte_address, int bit, std::uint64_t fault_id) {
  ensure(byte_address < size_ && bit >= 0 && bit < 8, "Memory::flip_bit out of range");
  if (fault_id != 0) state_.word_poison[byte_address / 4] = fault_id;
  if (ecc_ == EccMode::kNone) {
    state_.plain[byte_address] ^= static_cast<std::uint8_t>(1u << bit);
    return;
  }
  // Flip the matching *data* bit inside the stored codeword without
  // re-encoding — this models a genuine storage upset the decoder will see.
  // Data bit i occupies the i-th non-power-of-two codeword position.
  const int data_bit = 8 * static_cast<int>(byte_address % 4) + bit;
  int d = 0;
  for (unsigned pos = 1; pos <= 38u; ++pos) {
    const bool power = (pos & (pos - 1)) == 0;
    if (power) continue;
    if (d == data_bit) {
      state_.codewords[byte_address / 4] ^= 1ULL << pos;
      return;
    }
    ++d;
  }
  ensure(false, "Memory::flip_bit: internal layout error");
}

void Memory::flip_codeword_bit(std::uint64_t word_index, int raw_bit, std::uint64_t fault_id) {
  ensure(ecc_ == EccMode::kSecded, "flip_codeword_bit requires SEC-DED mode");
  ensure(word_index < state_.codewords.size() && raw_bit >= 0 && raw_bit < kCodewordBits,
         "flip_codeword_bit out of range");
  if (fault_id != 0) state_.word_poison[word_index] = fault_id;
  state_.codewords[word_index] ^= 1ULL << raw_bit;
}

void Memory::add_write_watch(std::uint64_t address, std::function<void(std::uint32_t)> callback) {
  ensure(address % 4 == 0 && address + 4 <= size_, "add_write_watch out of range/unaligned");
  ensure(static_cast<bool>(callback), "add_write_watch: empty callback");
  write_watches_.emplace_back(address / 4, std::move(callback));
}

std::uint32_t Memory::read_word(std::uint64_t word_index, EccStatus& status) {
  if (ecc_ == EccMode::kNone) {
    const std::uint64_t a = word_index * 4;
    status = EccStatus::kOk;
    return static_cast<std::uint32_t>(state_.plain[a]) |
           (static_cast<std::uint32_t>(state_.plain[a + 1]) << 8) |
           (static_cast<std::uint32_t>(state_.plain[a + 2]) << 16) |
           (static_cast<std::uint32_t>(state_.plain[a + 3]) << 24);
  }
  const auto decoded = ecc_decode(state_.codewords[word_index]);
  status = decoded.status;
  if (decoded.status == EccStatus::kCorrected) {
    ++state_.corrected;
    // Write-back repair (scrubbing) so the error does not accumulate.
    state_.codewords[word_index] = ecc_encode(decoded.data);
  } else if (decoded.status == EccStatus::kUncorrectable) {
    ++state_.uncorrectable;
    return 0;
  }
  return decoded.data;
}

void Memory::write_word(std::uint64_t word_index, std::uint32_t value) {
  if (ecc_ == EccMode::kNone) {
    const std::uint64_t a = word_index * 4;
    for (int i = 0; i < 4; ++i) state_.plain[a + static_cast<std::uint64_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  } else {
    state_.codewords[word_index] = ecc_encode(value);
  }
}

void Memory::b_transport(tlm::GenericPayload& payload, sim::Time& delay) {
  delay += latency_;
  const std::uint64_t addr = payload.address();
  const std::size_t n = payload.size();
  const bool aligned = (n == 1) || (n == 2 && addr % 2 == 0) || (n == 4 && addr % 4 == 0);
  if (!aligned || n == 0 || n > 4 || addr + n > size_) {
    payload.set_response(tlm::Response::kAddressError);
    return;
  }
  const std::uint64_t w = addr / 4;
  const int shift = 8 * static_cast<int>(addr % 4);
  const std::uint32_t mask = n == 4 ? 0xFFFFFFFFu : ((1u << (8 * n)) - 1u) << shift;

  EccStatus status = EccStatus::kOk;
  if (payload.command() == tlm::Command::kRead) {
    ++state_.reads;
    const std::uint32_t word = read_word(w, status);
    // Cold path: *this* read's scrub/flag of a poisoned word is attributed
    // as a detection of that fault.
    if (provenance_ != nullptr) provenance_read(w, payload, status);
    if (status == EccStatus::kUncorrectable) {
      payload.set_response(tlm::Response::kGenericError);
      return;
    }
    std::uint32_t v = (word & mask) >> shift;
    for (std::size_t i = 0; i < n; ++i) payload.data()[i] = static_cast<std::uint8_t>(v >> (8 * i));
    payload.set_effect(status == EccStatus::kOk && provenance_ == nullptr ? tlm::Effect::kStatistics
                                                                          : tlm::Effect::kState);
  } else if (payload.command() == tlm::Command::kWrite) {
    ++state_.writes;
    std::uint32_t word = 0;
    if (n != 4) {
      word = read_word(w, status);
      if (status == EccStatus::kUncorrectable) {
        payload.set_response(tlm::Response::kGenericError);
        return;
      }
    }
    std::uint32_t v = 0;
    for (std::size_t i = n; i-- > 0;) v = (v << 8) | payload.data()[i];
    word = (word & ~mask) | ((v << shift) & mask);
    write_word(w, word);
    if (provenance_ != nullptr) provenance_write(w, n, payload);
    if (!write_watches_.empty()) {
      for (const auto& watch : write_watches_) {
        if (watch.first == w) watch.second(word);
      }
    }
  }
  payload.set_dmi_allowed(ecc_ == EccMode::kNone && provenance_ == nullptr);
  payload.set_response(tlm::Response::kOk);
}

void Memory::provenance_read(std::uint64_t word_index, tlm::GenericPayload& payload,
                             EccStatus status) {
  const auto it = state_.word_poison.find(word_index);
  if (it == state_.word_poison.end()) return;
  const std::uint64_t fault_id = it->second;
  provenance_->touch(fault_id, "mem:" + name_);
  if (status == EccStatus::kCorrected) {
    // SEC-DED corrected and scrubbed the word: the fault is contained here.
    provenance_->detect(fault_id, "hw.ecc:" + name_, "mem:" + name_);
    state_.word_poison.erase(it);
  } else if (status == EccStatus::kUncorrectable) {
    provenance_->detect(fault_id, "hw.ecc:" + name_ + ".ue", "mem:" + name_);
  } else {
    // Raw SRAM (or a check-bit-only flip that decoded clean): the corrupted
    // value leaves on the bus.
    payload.poison(fault_id);
  }
}

void Memory::provenance_write(std::uint64_t word_index, std::size_t n,
                              const tlm::GenericPayload& payload) {
  if (payload.poisoned()) {
    // A corrupted value landed in memory: the word now carries the fault.
    state_.word_poison[word_index] = payload.poison_id();
    provenance_->touch(payload.poison_id(), "mem:" + name_);
  } else if (n == 4) {
    // A clean full-word write overwrites whatever fault the word carried.
    state_.word_poison.erase(word_index);
  }
}

void Memory::repeat(tlm::GenericPayload& /*payload*/, std::uint64_t k) { state_.reads += k; }

bool Memory::get_direct_mem_ptr(std::uint64_t /*address*/, tlm::DmiRegion& region) {
  if (ecc_ != EccMode::kNone) return false;  // reads must pass the decoder
  // Provenance tracking needs to see every access, so a tracked memory
  // declines the DMI fast path.
  if (provenance_ != nullptr) return false;
  region.base = state_.plain.data();
  region.start = 0;
  region.end = size_ - 1;
  region.allows_read = true;
  region.allows_write = true;
  region.read_latency = latency_;
  region.write_latency = latency_;
  return true;
}

}  // namespace vps::hw
