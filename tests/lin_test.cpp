// LIN bus tests: PID parity (full table property), enhanced checksum
// vectors and carry behaviour, schedule-table round-robin, silent-slave
// accounting, and checksum-based corruption drops (LIN has no retry).

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "vps/can/lin.hpp"
#include "vps/support/ensure.hpp"

namespace {

using namespace vps::can;
using namespace vps::sim;

TEST(LinPid, ParityRoundTripForAllIds) {
  for (std::uint8_t id = 0; id <= kMaxLinId; ++id) {
    const std::uint8_t pid = lin_pid(id);
    EXPECT_EQ((pid & 0x3F), id);
    const auto back = lin_check_pid(pid);
    ASSERT_TRUE(back.has_value()) << int(id);
    EXPECT_EQ(*back, id);
  }
  EXPECT_THROW((void)lin_pid(60), vps::support::InvariantError);
}

TEST(LinPid, KnownVectors) {
  // Classic LIN examples: id 0x00 -> PID 0x80, id 0x3C -> ... (diag range
  // excluded here); id 0x10 -> 0x50, id 0x21 -> 0x61, id 0x2F -> 0xEF.
  EXPECT_EQ(lin_pid(0x00), 0x80);
  EXPECT_EQ(lin_pid(0x10), 0x50);
  EXPECT_EQ(lin_pid(0x21), 0x61);
}

TEST(LinPid, SingleBitErrorsDetected) {
  for (std::uint8_t id = 0; id <= kMaxLinId; ++id) {
    const std::uint8_t pid = lin_pid(id);
    for (int bit = 0; bit < 8; ++bit) {
      const auto corrupted = static_cast<std::uint8_t>(pid ^ (1u << bit));
      const auto decoded = lin_check_pid(corrupted);
      // Parity covers the id bits: any single-bit flip must either fail the
      // check or decode to a *different* id (never silently the same id).
      if (decoded.has_value()) {
        EXPECT_NE(*decoded, id);
      }
    }
  }
}

TEST(LinChecksum, CarryAddAndInversion) {
  // Enhanced checksum example: PID 0x4A, data {0x55, 0x93, 0xE5}:
  // 0x4A+0x55=0x9F, +0x93=0x132->0x33, +0xE5=0x118->0x19, ~0x19=0xE6.
  const std::vector<std::uint8_t> data{0x55, 0x93, 0xE5};
  EXPECT_EQ(lin_checksum(0x4A, data), 0xE6);
  // Any data bit flip changes the checksum.
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupted = data;
      corrupted[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(lin_checksum(0x4A, corrupted), 0xE6);
    }
  }
}

// Test node: publishes a counter for its own slots, records everything else.
class Node final : public LinNode {
 public:
  std::optional<std::vector<std::uint8_t>> publish(std::uint8_t frame_id) override {
    ++publishes;
    if (silent) return std::nullopt;
    return std::vector<std::uint8_t>{frame_id, counter++};
  }
  void on_frame(std::uint8_t frame_id, std::span<const std::uint8_t> data) override {
    received[frame_id].push_back(data[1]);
  }
  bool silent = false;
  std::uint8_t counter = 0;
  int publishes = 0;
  std::map<std::uint8_t, std::vector<std::uint8_t>> received;
};

struct LinFixture {
  Kernel kernel;
  LinBus bus{kernel, "lin0", 19200};
  Node master, slave1, slave2;
  LinFixture() {
    bus.attach(master);
    bus.attach(slave1);
    bus.attach(slave2);
  }
};

TEST(LinBusTest, ScheduleRoundRobinDeliversToSubscribers) {
  LinFixture fx;
  fx.bus.add_slot(0x10, fx.slave1, 2);
  fx.bus.add_slot(0x11, fx.slave2, 2);
  fx.bus.add_slot(0x12, fx.master, 2);
  fx.kernel.run(Time::ms(100));
  // ~19200bps, slot ~4.4ms -> roughly 7 full table cycles in 100ms.
  EXPECT_GE(fx.bus.stats().headers_sent, 20u);
  EXPECT_EQ(fx.bus.stats().silent_slots, 0u);
  // Every non-publisher sees every id.
  EXPECT_FALSE(fx.master.received[0x10].empty());
  EXPECT_FALSE(fx.master.received[0x11].empty());
  EXPECT_FALSE(fx.slave1.received[0x11].empty());
  EXPECT_FALSE(fx.slave2.received[0x10].empty());
  EXPECT_TRUE(fx.slave1.received[0x10].empty());  // no self-reception
  // In-order counter values (no duplication/loss on a clean bus).
  const auto& seq = fx.master.received[0x10];
  for (std::size_t i = 1; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i], static_cast<std::uint8_t>(seq[i - 1] + 1));
  }
}

TEST(LinBusTest, SilentSlaveCountsEmptySlots) {
  LinFixture fx;
  fx.bus.add_slot(0x10, fx.slave1, 2);
  fx.slave1.silent = true;
  fx.kernel.run(Time::ms(50));
  EXPECT_GT(fx.bus.stats().silent_slots, 5u);
  EXPECT_EQ(fx.bus.stats().responses_delivered, 0u);
  EXPECT_GT(fx.slave1.publishes, 5);  // it was polled, it just never answered
}

TEST(LinBusTest, CorruptionDropsWithoutRetry) {
  LinFixture fx;
  fx.bus.add_slot(0x10, fx.slave1, 2);
  fx.bus.set_error_rate(0.5, 7);
  fx.kernel.run(Time::ms(200));
  const auto& s = fx.bus.stats();
  EXPECT_GT(s.checksum_errors, 5u);
  EXPECT_GT(s.responses_delivered, 5u);
  // No retransmission: every header resolves to exactly one of delivered /
  // corrupted / silent (at most one slot can be in flight at the horizon).
  const auto resolved = s.responses_delivered + s.checksum_errors + s.silent_slots;
  EXPECT_GE(s.headers_sent, resolved);
  EXPECT_LE(s.headers_sent - resolved, 1u);
  // Subscribers observe gaps in the counter sequence (lost slots).
  const auto& seq = fx.master.received[0x10];
  bool gap = false;
  for (std::size_t i = 1; i < seq.size(); ++i) {
    gap |= seq[i] != static_cast<std::uint8_t>(seq[i - 1] + 1);
  }
  EXPECT_TRUE(gap);
}

TEST(LinBusTest, SlotTimingScalesWithLength) {
  Kernel k;
  LinBus bus(k, "lin", 19200);
  const LinBus::Slot short_slot{0x01, nullptr, 2};
  const LinBus::Slot long_slot{0x02, nullptr, 8};
  EXPECT_GT(bus.slot_time(long_slot), bus.slot_time(short_slot));
  // 2-byte slot: 34+30=64 bits * 1.4 ≈ 89 bits ≈ 4.66ms at 19200bps.
  const double ms = bus.slot_time(short_slot).to_seconds() * 1e3;
  EXPECT_GT(ms, 4.0);
  EXPECT_LT(ms, 5.5);
}

TEST(LinBusTest, RejectsBadSlots) {
  Kernel k;
  LinBus bus(k, "lin", 19200);
  Node n;
  EXPECT_THROW(bus.add_slot(60, n, 2), vps::support::InvariantError);
  EXPECT_THROW(bus.add_slot(1, n, 0), vps::support::InvariantError);
  EXPECT_THROW(bus.add_slot(1, n, 9), vps::support::InvariantError);
}

}  // namespace
