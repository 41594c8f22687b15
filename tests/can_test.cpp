// CAN substrate tests: frame serialization (stuffing, CRC), exact timing,
// priority arbitration, error handling with retransmission, and the
// fault-confinement state machine (error-passive, bus-off, recovery).

#include <gtest/gtest.h>

#include <vector>

#include "vps/can/bus.hpp"
#include "vps/can/frame.hpp"
#include "vps/support/crc.hpp"
#include "vps/support/ensure.hpp"

namespace {

using namespace vps::can;
using namespace vps::sim;

TEST(Frame, MakeValidatesArguments) {
  const std::vector<std::uint8_t> payload{1, 2, 3};
  const CanFrame f = CanFrame::make(0x123, payload);
  EXPECT_EQ(f.id, 0x123);
  EXPECT_EQ(f.dlc, 3);
  EXPECT_EQ(f.payload()[2], 3);
  EXPECT_THROW((void)CanFrame::make(0x800, payload), vps::support::InvariantError);
  const std::vector<std::uint8_t> big(9, 0);
  EXPECT_THROW((void)CanFrame::make(1, big), vps::support::InvariantError);
}

TEST(Frame, UnstuffedBitLayout) {
  const CanFrame f = CanFrame::make(0x555, std::vector<std::uint8_t>{0xFF});
  const auto bits = frame_bits_unstuffed(f);
  // SOF(1) + ID(11) + RTR + IDE + r0 + DLC(4) + 8 data bits = 27.
  ASSERT_EQ(bits.size(), 27u);
  EXPECT_FALSE(bits[0]);  // SOF dominant
  // ID 0x555 = 101 0101 0101.
  EXPECT_TRUE(bits[1]);
  EXPECT_FALSE(bits[2]);
  EXPECT_TRUE(bits[3]);
}

TEST(Frame, StuffingInsertsComplementAfterFiveEqualBits) {
  // ID 0 and zero data create long dominant runs that must be stuffed.
  const CanFrame f = CanFrame::make(0x000, std::vector<std::uint8_t>{0x00});
  const auto wire = serialize_frame(f);
  int run = 1;
  for (std::size_t i = 1; i + 12 < wire.size(); ++i) {  // exclude EOF/IFS (legally unstuffed)
    run = wire[i] == wire[i - 1] ? run + 1 : 1;
    EXPECT_LE(run, 5) << "stuffing violation at wire bit " << i;
  }
}

TEST(Frame, BitCountWithinSpecBounds) {
  // Standard data frame: 44 + 8*dlc bits before stuffing + delim/ack/eof/ifs.
  for (std::uint8_t dlc = 0; dlc <= 8; ++dlc) {
    std::vector<std::uint8_t> payload(dlc, 0xAA);
    const CanFrame f = CanFrame::make(0x2A5, payload);
    const std::size_t bits = frame_bit_count(f);
    const std::size_t unstuffed_core = 19 + 8u * dlc + 15;  // SOF..CRC
    const std::size_t overhead = 13;                        // delims+ack+eof+ifs
    EXPECT_GE(bits, unstuffed_core + overhead);
    EXPECT_LE(bits, unstuffed_core + unstuffed_core / 4 + overhead);
  }
}

TEST(Frame, CrcChangesOnAnyDataBitFlip) {
  const CanFrame base = CanFrame::make(0x300, std::vector<std::uint8_t>{0x12, 0x34});
  const auto crc = frame_crc(base);
  for (int byte = 0; byte < 2; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      CanFrame f = base;
      f.data[static_cast<std::size_t>(byte)] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(frame_crc(f), crc);
    }
  }
}

TEST(Frame, BitCountAndCrcMatchTheReferenceEncoder) {
  // frame_bit_count and frame_crc work on a fixed bit buffer; the wire
  // stream serialize_frame builds is the reference. Stuffing-heavy frames
  // (all-dominant and all-recessive ids and bytes) included.
  const std::uint16_t ids[] = {0x000, 0x7FF, 0x001, 0x7FE, 0x050,
                               0x123, 0x2AA, 0x555, 0x3E0, 0x41F};
  const std::uint8_t fills[] = {0x00, 0xFF, 0xAA, 0x55, 0x0F, 0xF0, 0x80, 0x01};
  std::uint32_t lcg = 12345;
  int checked = 0;
  for (const std::uint16_t id : ids) {
    for (std::uint8_t dlc = 0; dlc <= 8; ++dlc) {
      std::vector<std::vector<std::uint8_t>> payloads;
      for (const std::uint8_t fill : fills) payloads.emplace_back(dlc, fill);
      std::vector<std::uint8_t> mixed(dlc);  // 0x00 and 0xFF in turn
      for (std::uint8_t i = 0; i < dlc; ++i) mixed[i] = (i % 2 == 0) ? 0x00 : 0xFF;
      payloads.push_back(mixed);
      for (int n = 0; n < 4; ++n) {
        std::vector<std::uint8_t> random(dlc);
        for (auto& byte : random) {
          lcg = lcg * 1103515245u + 12345u;
          byte = static_cast<std::uint8_t>(lcg >> 16);
        }
        payloads.push_back(random);
      }
      for (const auto& payload : payloads) {
        for (const bool remote : {false, true}) {
          CanFrame f = CanFrame::make(id, payload);
          f.remote = remote;
          EXPECT_EQ(frame_bit_count(f), serialize_frame(f).size()) << f.to_string();
          EXPECT_EQ(frame_crc(f), vps::support::crc15_can(frame_bits_unstuffed(f)))
              << f.to_string();
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 10 * 9 * 13 * 2);
}

// Test node that records everything it receives.
class Recorder : public CanNode {
 public:
  void on_frame(const CanFrame& frame) override { received.push_back(frame); }
  std::vector<CanFrame> received;
};

struct BusFixture {
  Kernel kernel;
  CanBus bus{kernel, "can0", 500000};
  Recorder a, b, c;
  BusFixture() {
    bus.attach(a);
    bus.attach(b);
    bus.attach(c);
  }
};

TEST(Bus, DeliversToAllOtherNodes) {
  BusFixture fx;
  const CanFrame f = CanFrame::make(0x100, std::vector<std::uint8_t>{9});
  fx.bus.submit(fx.a, f);
  fx.kernel.run();
  ASSERT_EQ(fx.b.received.size(), 1u);
  ASSERT_EQ(fx.c.received.size(), 1u);
  EXPECT_TRUE(fx.a.received.empty());  // no self-reception
  EXPECT_EQ(fx.b.received[0], f);
  EXPECT_EQ(fx.bus.stats().frames_delivered, 1u);
}

TEST(Bus, FrameTimingMatchesBitCount) {
  BusFixture fx;
  const CanFrame f = CanFrame::make(0x100, std::vector<std::uint8_t>{1, 2, 3, 4});
  fx.bus.submit(fx.a, f);
  fx.kernel.run();
  const Time expected = fx.bus.bit_time() * frame_bit_count(f);
  EXPECT_EQ(fx.kernel.now(), expected);
  // 500 kbit/s -> 2us per bit.
  EXPECT_EQ(fx.bus.bit_time(), Time::us(2));
}

TEST(Bus, LowerIdWinsArbitration) {
  BusFixture fx;
  // Submit in reverse priority order before the bus starts.
  fx.bus.submit(fx.a, CanFrame::make(0x300, std::vector<std::uint8_t>{3}));
  fx.bus.submit(fx.b, CanFrame::make(0x100, std::vector<std::uint8_t>{1}));
  fx.bus.submit(fx.c, CanFrame::make(0x200, std::vector<std::uint8_t>{2}));
  fx.kernel.run();
  // Node a receives b's and c's frames, in priority order.
  ASSERT_EQ(fx.a.received.size(), 2u);
  EXPECT_EQ(fx.a.received[0].id, 0x100);
  EXPECT_EQ(fx.a.received[1].id, 0x200);
  EXPECT_GE(fx.bus.stats().arbitration_contests, 1u);
}

TEST(Bus, CorruptedFrameIsRetransmitted) {
  BusFixture fx;
  fx.bus.force_error_on_next_frame();
  const CanFrame f = CanFrame::make(0x150, std::vector<std::uint8_t>{7});
  fx.bus.submit(fx.a, f);
  fx.kernel.run();
  ASSERT_EQ(fx.b.received.size(), 1u);  // eventually delivered
  EXPECT_EQ(fx.bus.stats().corrupted_frames, 1u);
  EXPECT_EQ(fx.bus.stats().retransmissions, 1u);
  EXPECT_EQ(fx.bus.stats().frames_delivered, 1u);
  // Transmit error counter: +8 for the error, -1 for the success.
  EXPECT_EQ(fx.a.tec(), 7u);
}

TEST(Bus, PersistentErrorsDriveTransmitterBusOff) {
  BusFixture fx;
  fx.bus.set_error_rate(1.0, 42);  // every frame corrupted
  fx.bus.submit(fx.a, CanFrame::make(0x111, std::vector<std::uint8_t>{1}));
  fx.kernel.run(Time::ms(100));
  EXPECT_EQ(fx.a.state(), NodeState::kBusOff);
  EXPECT_EQ(fx.bus.stats().bus_off_events, 1u);
  EXPECT_TRUE(fx.b.received.empty());
  // 255/8 = 32 transmission attempts to reach bus-off.
  EXPECT_GE(fx.bus.stats().corrupted_frames, 32u);
  // Submissions from a bus-off node are dropped.
  fx.bus.submit(fx.a, CanFrame::make(0x111, std::vector<std::uint8_t>{1}));
  EXPECT_EQ(fx.bus.stats().dropped_bus_off, 1u);
}

TEST(Bus, BusOffNodeRecoversAndTransmitsAgain) {
  BusFixture fx;
  fx.bus.set_error_rate(1.0, 42);
  fx.bus.submit(fx.a, CanFrame::make(0x111, std::vector<std::uint8_t>{1}));
  fx.kernel.run(Time::ms(100));
  ASSERT_EQ(fx.a.state(), NodeState::kBusOff);
  // Heal the bus, request recovery, and wait out the recovery sequence.
  fx.bus.set_error_rate(0.0);
  fx.bus.request_recovery(fx.a);
  fx.kernel.run(fx.kernel.now() + Time::sec(1));
  EXPECT_EQ(fx.a.state(), NodeState::kErrorActive);
  fx.bus.submit(fx.a, CanFrame::make(0x123, std::vector<std::uint8_t>{5}));
  fx.kernel.run(fx.kernel.now() + Time::ms(10));
  ASSERT_EQ(fx.b.received.size(), 1u);
  EXPECT_EQ(fx.b.received[0].id, 0x123);
}

TEST(Bus, ErrorPassiveTransitionAt128) {
  BusFixture fx;
  // Corrupt exactly 16 frames (16*8 = 128 > 127 -> error passive).
  int sent = 0;
  fx.bus.set_error_rate(1.0, 7);
  fx.bus.submit(fx.a, CanFrame::make(0x111, std::vector<std::uint8_t>{1}));
  // Stop corrupting once TEC crosses 128 by healing after a fixed time:
  // 17 slots of (frame + error overhead) is comfortably enough.
  fx.kernel.spawn("healer", [](BusFixture& fx) -> Coro {
    for (;;) {
      co_await fx.bus.frame_done_event();
      if (fx.a.tec() > 127) {
        fx.bus.set_error_rate(0.0);
        break;
      }
    }
  }(fx));
  (void)sent;
  fx.kernel.run(Time::ms(50));
  EXPECT_EQ(fx.a.state(), NodeState::kErrorActive);  // healed by final success
  EXPECT_GE(fx.bus.stats().retransmissions, 16u);
  EXPECT_EQ(fx.bus.stats().frames_delivered, 1u);
}

TEST(Wire, SerializeDeserializeRoundTrip) {
  vps::support::Xorshift rng(41);
  for (int trial = 0; trial < 300; ++trial) {
    const auto dlc = static_cast<std::uint8_t>(rng.index(9));
    std::vector<std::uint8_t> payload(dlc);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
    const CanFrame f = CanFrame::make(static_cast<std::uint16_t>(rng.index(0x800)), payload);
    const auto decoded = deserialize_frame(serialize_frame(f));
    ASSERT_TRUE(decoded.has_value()) << f.to_string();
    EXPECT_EQ(*decoded, f) << f.to_string();
  }
}

TEST(Wire, RemoteFrameRoundTrip) {
  CanFrame f = CanFrame::make(0x2AB, std::vector<std::uint8_t>{});
  f.remote = true;
  f.dlc = 4;  // RTR frames carry a DLC but no data
  const auto decoded = deserialize_frame(serialize_frame(f));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->remote);
  EXPECT_EQ(decoded->id, 0x2AB);
  EXPECT_EQ(decoded->dlc, 4);
}

TEST(Wire, SingleBitCorruptionIsRejected) {
  // Any single bit flip in the stuffed SOF..CRC region must be caught by
  // stuffing rules or the CRC; payload corruption must never yield a
  // *different valid* frame.
  const CanFrame f = CanFrame::make(0x1D3, std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE});
  const auto wire = serialize_frame(f);
  int rejected = 0, same = 0, different_valid = 0;
  for (std::size_t bit = 0; bit + 13 < wire.size(); ++bit) {  // skip trailing fields
    auto corrupted = wire;
    corrupted[bit] = !corrupted[bit];
    const auto decoded = deserialize_frame(corrupted);
    if (!decoded.has_value()) {
      ++rejected;
    } else if (*decoded == f) {
      ++same;
    } else {
      ++different_valid;
    }
  }
  EXPECT_EQ(different_valid, 0) << "single-bit corruption produced a valid different frame";
  EXPECT_GT(rejected, 40);
  EXPECT_EQ(same, 0);
}

TEST(Wire, TruncatedStreamsAreRejected) {
  const CanFrame f = CanFrame::make(0x100, std::vector<std::uint8_t>{1, 2});
  const auto wire = serialize_frame(f);
  for (const std::size_t keep : {std::size_t{0}, std::size_t{5}, std::size_t{18}, wire.size() / 2}) {
    const std::vector<bool> cut(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_FALSE(deserialize_frame(cut).has_value()) << keep;
  }
}

TEST(Bus, HighLoadThroughputIsBounded) {
  BusFixture fx;
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    fx.bus.submit(fx.a, CanFrame::make(static_cast<std::uint16_t>(0x200 + i),
                                       std::vector<std::uint8_t>{static_cast<std::uint8_t>(i)}));
  }
  fx.kernel.run();
  EXPECT_EQ(fx.b.received.size(), static_cast<std::size_t>(n));
  // In-order delivery from a single node's queue.
  for (int i = 1; i < n; ++i) {
    EXPECT_LT(fx.b.received[static_cast<std::size_t>(i - 1)].id,
              fx.b.received[static_cast<std::size_t>(i)].id);
  }
}

}  // namespace
