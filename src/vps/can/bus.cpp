#include "vps/can/bus.hpp"

#include <algorithm>
#include <cstdio>

#include "vps/support/ensure.hpp"

namespace vps::can {

using support::ensure;
using sim::Time;

namespace {

std::string frame_label(const CanFrame& frame) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "can:0x%03x", frame.id);
  return buf;
}

}  // namespace

CanBus::CanBus(sim::Kernel& kernel, std::string name, std::uint64_t bitrate_bps)
    : Module(kernel, std::move(name)),
      bitrate_(bitrate_bps),
      bit_time_(Time::ps(1000000000000ULL / (bitrate_bps ? bitrate_bps : 1))),
      submitted_(kernel, this->name() + ".submitted"),
      frame_done_(kernel, this->name() + ".frame_done") {
  ensure(bitrate_bps > 0, "CanBus: bitrate must be positive");
  spawn("arbiter", run());
}

void CanBus::attach(CanNode& node) {
  node.index_ = nodes_.size();
  node.bus_ = this;
  nodes_.push_back(&node);
}

void CanBus::submit(CanNode& node, const CanFrame& frame) {
  ensure(node.bus_ == this, "CanBus::submit: node not attached to this bus");
  ensure(frame.id <= kMaxStandardId && frame.dlc <= 8, "CanBus::submit: malformed frame");
  if (node.image_.state == NodeState::kBusOff) {
    ++state_.stats.dropped_bus_off;
    return;
  }
  node.image_.tx_queue.push_back(frame);
  submitted_.notify();
}

std::size_t CanBus::pending_frames() const noexcept {
  std::size_t n = 0;
  for (const CanNode* node : nodes_) n += node->image_.tx_queue.size();
  return n;
}

void CanBus::set_error_rate(double probability, std::uint64_t seed, std::uint64_t fault_id) {
  state_.error_rate = std::clamp(probability, 0.0, 1.0);
  state_.rng = support::Xorshift(seed);
  state_.error_fault_id = fault_id;
}

CanNode* CanBus::arbitrate() {
  CanNode* winner = nullptr;
  std::size_t competitors = 0;
  for (CanNode* node : nodes_) {
    if (node->image_.state == NodeState::kBusOff || node->image_.tx_queue.empty()) continue;
    ++competitors;
    if (winner == nullptr ||
        node->image_.tx_queue.front().id < winner->image_.tx_queue.front().id ||
        (node->image_.tx_queue.front().id == winner->image_.tx_queue.front().id &&
         node->index_ < winner->index_)) {
      winner = node;
    }
  }
  if (competitors > 1) ++state_.stats.arbitration_contests;
  return winner;
}

void CanBus::bump_tx_error(CanNode& node) {
  node.image_.tec += 8;  // transmitter penalty per ISO 11898 fault confinement
  if (node.image_.tec > 255) {
    node.image_.state = NodeState::kBusOff;
    ++state_.stats.bus_off_events;
    node.image_.tx_queue.clear();
    if (probe_ != nullptr) {
      probe_->mark("can", "bus_off",
                   {obs::TraceArg::number("node", static_cast<double>(node.index_))});
    }
  } else if (node.image_.tec > 127) {
    node.image_.state = NodeState::kErrorPassive;
  }
}

void CanBus::request_recovery(CanNode& node) {
  ensure(node.bus_ == this, "CanBus::request_recovery: node not attached to this bus");
  if (node.image_.state != NodeState::kBusOff) return;
  spawn("recovery" + std::to_string(node.index_), recover(node));
}

sim::Coro CanBus::recover(CanNode& node) {
  // Bus-off recovery: 128 occurrences of 11 consecutive recessive bits.
  co_await sim::delay(bit_time_ * (128 * 11));
  node.image_.tec = 0;
  node.image_.rec = 0;
  node.image_.state = NodeState::kErrorActive;
}

// Written in snapshot-replayable form: the transmit state machine lives in
// members (state_.tx_phase, state_.tx_node) and each completed wait is
// handled at the top of the loop, so a fresh coroutine resumed from the body
// top after Kernel::restore behaves exactly like the original resumed at its
// await.
// The in-flight frame is recovered from the winner's queue front, which is
// stable across the wire time (submit only appends; only this process pops).
sim::Coro CanBus::run() {
  for (;;) {
    if (state_.tx_phase == TxPhase::kBackoff) {
      // Error frame + suspend transmission window elapsed.
      state_.tx_phase = TxPhase::kIdle;
      frame_done_.notify();
    } else if (state_.tx_phase == TxPhase::kTransmitting) {
      state_.tx_phase = TxPhase::kIdle;
      CanNode* winner = nodes_[state_.tx_node];
      const CanFrame frame = winner->image_.tx_queue.front();

      const bool corrupted = state_.force_error ||
                             (state_.error_rate > 0.0 && state_.rng.chance(state_.error_rate));
      state_.force_error = false;

      if (corrupted) {
        ++state_.stats.corrupted_frames;
        if (provenance_ != nullptr && state_.error_fault_id != 0) {
          // Wire-level corruption: the fault touched the bus, and the CRC of
          // every receiver detects it in the same slot (the frame is never
          // delivered corrupted — CAN retransmits a clean copy).
          provenance_->touch(state_.error_fault_id, "can:" + name());
          provenance_->detect(state_.error_fault_id, "can.crc:" + name(), "can:" + name());
        }
        if (probe_ != nullptr) {
          probe_->mark("can", "crc_error:" + frame_label(frame).substr(4),
                       {obs::TraceArg::number("id", static_cast<double>(frame.id)),
                        obs::TraceArg::number("node", static_cast<double>(winner->index_))});
        }
        // CRC error: receivers signal an error frame, the transmitter backs
        // off and retransmits. Error frame + suspend ≈ 17..31 bit times.
        for (CanNode* node : nodes_) {
          if (node == winner || node->image_.state == NodeState::kBusOff) continue;
          node->image_.rec += 1;
          if (node->image_.rec > 127) node->image_.state = NodeState::kErrorPassive;
        }
        bump_tx_error(*winner);
        if (winner->image_.state != NodeState::kBusOff) ++state_.stats.retransmissions;
        state_.tx_phase = TxPhase::kBackoff;
        co_await sim::delay(bit_time_ * 23);
        continue;
      }
      winner->image_.tx_queue.pop_front();
      if (winner->image_.tec > 0) --winner->image_.tec;  // successful transmission decrements
      if (winner->image_.tec <= 127 && winner->image_.state == NodeState::kErrorPassive) {
        winner->image_.state = NodeState::kErrorActive;
      }
      if (provenance_ != nullptr && frame.poison_id != 0) {
        // Application-level corruption (poisoned before the CRC was
        // computed): the frame is delivered CRC-clean, carrying the fault
        // to every receiver — only end-to-end protection can catch it now.
        provenance_->touch(frame.poison_id, "can:" + name());
      }
      for (CanNode* node : nodes_) {
        if (node == winner || node->image_.state == NodeState::kBusOff) continue;
        if (node->image_.rec > 0) --node->image_.rec;
        node->on_frame(frame);
      }
      ++state_.stats.frames_delivered;
      if (probe_ != nullptr) {
        // The frame occupied the wire for frame_time ending now.
        const Time wire = frame_time(frame);
        probe_->record("can", frame_label(frame), probe_->kernel().now() - wire, wire,
                       {obs::TraceArg::number("id", static_cast<double>(frame.id)),
                        obs::TraceArg::number("dlc", static_cast<double>(frame.dlc)),
                        obs::TraceArg::number("node", static_cast<double>(winner->index_))});
      }
      frame_done_.notify();
    }

    CanNode* next = arbitrate();
    if (next == nullptr) {
      co_await submitted_;
      continue;
    }
    state_.tx_node = next->index_;
    state_.tx_phase = TxPhase::kTransmitting;
    co_await sim::delay(frame_time(next->image_.tx_queue.front()));
  }
}

CanBus::Snapshot CanBus::snapshot() const {
  Snapshot s{state_, {}};
  s.nodes.reserve(nodes_.size());
  for (const CanNode* node : nodes_) s.nodes.push_back(node->image_);
  return s;
}

void CanBus::restore(const Snapshot& s) {
  // Node images pair with the attached nodes by attach order.
  ensure(s.nodes.size() == nodes_.size(), "CanBus::restore: node count differs from snapshot");
  state_ = s;
  for (std::size_t i = 0; i < nodes_.size(); ++i) nodes_[i]->image_ = s.nodes[i];
}

}  // namespace vps::can
