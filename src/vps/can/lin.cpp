#include "vps/can/lin.hpp"

#include <cstdio>

#include "vps/support/ensure.hpp"

namespace vps::can {

using sim::Time;
using support::ensure;

namespace {

std::string slot_label(const char* prefix, std::uint8_t frame_id) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%s0x%02x", prefix, frame_id);
  return buf;
}

}  // namespace

std::uint8_t lin_pid(std::uint8_t id) {
  ensure(id <= kMaxLinId, "lin_pid: identifier exceeds 6 bits / reserved range");
  const auto bit = [id](int n) { return (id >> n) & 1u; };
  const std::uint8_t p0 = static_cast<std::uint8_t>(bit(0) ^ bit(1) ^ bit(2) ^ bit(4));
  const std::uint8_t p1 = static_cast<std::uint8_t>(~(bit(1) ^ bit(3) ^ bit(4) ^ bit(5)) & 1u);
  return static_cast<std::uint8_t>(id | (p0 << 6) | (p1 << 7));
}

std::optional<std::uint8_t> lin_check_pid(std::uint8_t pid) {
  const std::uint8_t id = pid & 0x3F;
  if (id > kMaxLinId) return std::nullopt;
  if (lin_pid(id) != pid) return std::nullopt;
  return id;
}

std::uint8_t lin_checksum(std::uint8_t pid, std::span<const std::uint8_t> data) {
  std::uint32_t sum = pid;
  for (const std::uint8_t b : data) {
    sum += b;
    if (sum >= 256) sum -= 255;  // carry-add
  }
  return static_cast<std::uint8_t>(~sum & 0xFF);
}

LinBus::LinBus(sim::Kernel& kernel, std::string name, std::uint64_t bitrate_bps)
    : Module(kernel, std::move(name)),
      bitrate_(bitrate_bps),
      bit_time_(Time::ps(1000000000000ULL / (bitrate_bps ? bitrate_bps : 1))),
      schedule_changed_(kernel, this->name() + ".schedule_changed"),
      rng_(1) {
  ensure(bitrate_bps > 0, "LinBus: bitrate must be positive");
  spawn("master", master_loop());
}

void LinBus::attach(LinNode& node) { nodes_.push_back(&node); }

void LinBus::add_slot(std::uint8_t frame_id, LinNode& publisher, std::size_t bytes) {
  ensure(frame_id <= kMaxLinId, "LinBus: frame id out of range");
  ensure(bytes >= 1 && bytes <= 8, "LinBus: response length out of 1..8");
  schedule_.push_back(Slot{frame_id, &publisher, bytes});
  schedule_changed_.notify();
}

Time LinBus::slot_time(const Slot& slot) const {
  // Header: break(13) + delimiter(1) + sync(10) + PID(10) = 34 bit times.
  // Response: (n data + checksum) bytes x 10 bits. LIN allows 1.4x frame
  // slack; slots are padded accordingly.
  const std::uint64_t bits = 34 + 10ULL * (slot.expected_bytes + 1);
  return bit_time_ * (bits + bits * 2 / 5);
}

void LinBus::set_error_rate(double probability, std::uint64_t seed, std::uint64_t fault_id) {
  error_rate_ = probability < 0.0 ? 0.0 : probability > 1.0 ? 1.0 : probability;
  rng_ = support::Xorshift(seed);
  error_fault_id_ = fault_id;
}

// Written in snapshot-replayable form: the slot cursor and the pending-slot
// flag live in members, so a fresh coroutine resumed from the body top after
// Kernel::restore behaves exactly like the original resumed at its await.
// The slot itself is re-read after the wire delay; add_slot only appends, so
// the entry at slot_index_ is stable across the wait.
sim::Coro LinBus::master_loop() {
  for (;;) {
    if (slot_pending_) {
      slot_pending_ = false;
      const Slot slot = schedule_[slot_index_];
      ++slot_index_;
      process_response(slot);
      continue;
    }
    if (schedule_.empty()) {
      co_await schedule_changed_;
      continue;
    }
    if (slot_index_ >= schedule_.size()) slot_index_ = 0;
    ++stats_.headers_sent;
    slot_pending_ = true;
    co_await sim::delay(slot_time(schedule_[slot_index_]));
  }
}

void LinBus::process_response(const Slot& slot) {
  auto response = slot.publisher->publish(slot.frame_id);
  if (!response.has_value()) {
    ++stats_.silent_slots;  // no response: the slot elapses empty
    if (probe_ != nullptr) {
      probe_->mark("lin", slot_label("silent:", slot.frame_id),
                   {obs::TraceArg::number("id", static_cast<double>(slot.frame_id))});
    }
    return;
  }
  ensure(response->size() == slot.expected_bytes,
         "LinBus: publisher returned wrong response length");

  const std::uint8_t pid = lin_pid(slot.frame_id);
  std::uint8_t checksum = lin_checksum(pid, *response);
  if (error_rate_ > 0.0 && rng_.chance(error_rate_)) {
    // Corrupt one random bit of the response or its checksum.
    const std::size_t bit = rng_.index(8 * (response->size() + 1));
    if (bit < 8 * response->size()) {
      (*response)[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    } else {
      checksum ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  }

  if (lin_checksum(pid, *response) != checksum) {
    ++stats_.checksum_errors;  // receivers drop the response; no retry
    if (provenance_ != nullptr && error_fault_id_ != 0) {
      provenance_->touch(error_fault_id_, "lin:" + name());
      provenance_->detect(error_fault_id_, "lin.checksum:" + name(), "lin:" + name());
    }
    if (probe_ != nullptr) {
      probe_->mark("lin", slot_label("checksum_error:", slot.frame_id),
                   {obs::TraceArg::number("id", static_cast<double>(slot.frame_id))});
    }
    return;
  }
  ++stats_.responses_delivered;
  if (probe_ != nullptr) {
    const Time wire = slot_time(slot);
    probe_->record("lin", slot_label("lin:", slot.frame_id), probe_->kernel().now() - wire,
                   wire,
                   {obs::TraceArg::number("id", static_cast<double>(slot.frame_id)),
                    obs::TraceArg::number("bytes", static_cast<double>(slot.expected_bytes))});
  }
  for (LinNode* node : nodes_) {
    if (node != slot.publisher) node->on_frame(slot.frame_id, *response);
  }
}

}  // namespace vps::can
