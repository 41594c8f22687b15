// Tests for the TLM layer: generic payload, sockets, router decode, DMI,
// quantum keeper temporal decoupling, and the AT base protocol helpers.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "vps/sim/kernel.hpp"
#include "vps/tlm/at_helpers.hpp"
#include "vps/tlm/payload.hpp"
#include "vps/tlm/quantum.hpp"
#include "vps/tlm/router.hpp"
#include "vps/tlm/sockets.hpp"

namespace {

using namespace vps::sim;
using namespace vps::tlm;

/// Simple LT memory target used as a fixture.
class TestMemory final : public BlockingTransport, public DmiProvider {
 public:
  TestMemory(std::string name, std::size_t size, Time latency)
      : socket_(name + ".tsock"), store_(size, 0), latency_(latency) {
    socket_.set_blocking(*this);
    socket_.set_dmi(*this);
  }

  TargetSocket& socket() { return socket_; }
  std::vector<std::uint8_t>& store() { return store_; }

  void b_transport(GenericPayload& p, Time& delay) override {
    delay += latency_;
    if (p.address() + p.size() > store_.size()) {
      p.set_response(Response::kAddressError);
      return;
    }
    if (p.command() == Command::kRead) {
      std::memcpy(p.data().data(), store_.data() + p.address(), p.size());
    } else if (p.command() == Command::kWrite) {
      std::memcpy(store_.data() + p.address(), p.data().data(), p.size());
    }
    p.set_dmi_allowed(true);
    p.set_response(Response::kOk);
  }

  bool get_direct_mem_ptr(std::uint64_t, DmiRegion& region) override {
    region.base = store_.data();
    region.start = 0;
    region.end = store_.size() - 1;
    region.allows_read = true;
    region.allows_write = true;
    region.read_latency = latency_;
    region.write_latency = latency_;
    return true;
  }

 private:
  TargetSocket socket_;
  std::vector<std::uint8_t> store_;
  Time latency_;
};

TEST(Payload, ScalarLittleEndianRoundTrip) {
  GenericPayload p(Command::kWrite, 0x100, 4);
  p.set_value_le(0xDEADBEEF);
  EXPECT_EQ(p.value_le(), 0xDEADBEEFu);
  EXPECT_EQ(p.data()[0], 0xEF);
  EXPECT_EQ(p.data()[3], 0xDE);
}

TEST(Payload, PoisonTracking) {
  GenericPayload p;
  EXPECT_FALSE(p.poisoned());
  p.poison(77);
  EXPECT_TRUE(p.poisoned());
  EXPECT_EQ(p.poison_id(), 77u);
  p.clear_poison();
  EXPECT_FALSE(p.poisoned());
}

TEST(Payload, ToStringMentionsFields) {
  GenericPayload p(Command::kRead, 0x40, 4);
  p.set_response(Response::kOk);
  const auto s = p.to_string();
  EXPECT_NE(s.find("R@"), std::string::npos);
  EXPECT_NE(s.find("OK"), std::string::npos);
  EXPECT_NE(s.find("len=4"), std::string::npos) << s;  // the payload's size, not its buffer's
}

TEST(Payload, EightBytesRoundTripAndNineAreRejected) {
  GenericPayload p(Command::kWrite, 0, 8);
  EXPECT_EQ(p.size(), 8u);
  EXPECT_EQ(p.data().size(), 8u);
  p.set_value_le(0x0123456789ABCDEFull);
  EXPECT_EQ(p.value_le(), 0x0123456789ABCDEFull);
  EXPECT_EQ(p.data()[0], 0xEF);
  EXPECT_EQ(p.data()[7], 0x01);
  EXPECT_THROW(GenericPayload(Command::kWrite, 0, 9), vps::support::InvariantError);
}

/// what() of the InvariantError `fn` throws ("" when it does not throw).
template <typename Fn>
std::string invariant_message(Fn&& fn) {
  try {
    fn();
  } catch (const vps::support::InvariantError& e) {
    return e.what();
  }
  return "";
}

TEST(Sockets, UnboundTransportIsReported) {
  InitiatorSocket init("i");
  GenericPayload p(Command::kRead, 0, 4);
  Time delay;
  EXPECT_THROW(init.b_transport(p, delay), vps::support::InvariantError);

  InitiatorSocket cpu("cpu.isock");
  const std::string blocking = invariant_message([&] { cpu.b_transport(p, delay); });
  EXPECT_NE(blocking.find("b_transport on unbound socket cpu.isock"), std::string::npos)
      << blocking;
  Phase phase = Phase::kBeginReq;
  const std::string nonblocking =
      invariant_message([&] { (void)cpu.nb_transport_fw(p, phase, delay); });
  EXPECT_NE(nonblocking.find("nb_transport_fw on unbound socket cpu.isock"), std::string::npos)
      << nonblocking;
  // The location is the caller's (sockets.hpp), not the throw helper's.
  EXPECT_NE(nonblocking.find("sockets.hpp:"), std::string::npos) << nonblocking;
}

TEST(Sockets, BlockingRoundTrip) {
  TestMemory mem("mem", 256, 10_ns);
  InitiatorSocket init("cpu");
  init.bind(mem.socket());

  GenericPayload w(Command::kWrite, 16, 4);
  w.set_value_le(0x12345678);
  Time delay = Time::zero();
  init.b_transport(w, delay);
  EXPECT_TRUE(w.ok());
  EXPECT_EQ(delay, 10_ns);

  GenericPayload r(Command::kRead, 16, 4);
  init.b_transport(r, delay);
  EXPECT_EQ(r.value_le(), 0x12345678u);
  EXPECT_EQ(delay, 20_ns);  // delays accumulate
}

TEST(Router, DecodesAndOffsetsAddresses) {
  TestMemory rom("rom", 128, 1_ns);
  TestMemory ram("ram", 128, 2_ns);
  Router router("bus", 5_ns);
  router.map(0x1000, 128, rom.socket());
  router.map(0x2000, 128, ram.socket());

  InitiatorSocket init("cpu");
  init.bind(router.target_socket());

  GenericPayload w(Command::kWrite, 0x2010, 4);
  w.set_value_le(0xAB);
  Time delay = Time::zero();
  init.b_transport(w, delay);
  EXPECT_TRUE(w.ok());
  EXPECT_EQ(ram.store()[0x10], 0xAB);
  EXPECT_EQ(w.address(), 0x2010u);  // address restored after routing
  EXPECT_EQ(delay, 7_ns);           // 5ns hop + 2ns ram
  EXPECT_EQ(router.forwarded(), 1u);
}

TEST(Router, UnmappedAddressFails) {
  Router router("bus");
  TestMemory ram("ram", 64, 0_ns);
  router.map(0x0, 64, ram.socket());
  InitiatorSocket init("cpu");
  init.bind(router.target_socket());
  GenericPayload p(Command::kRead, 0x5000, 4);
  Time delay = Time::zero();
  init.b_transport(p, delay);
  EXPECT_EQ(p.response(), Response::kAddressError);
  EXPECT_EQ(router.decode_errors(), 1u);
}

TEST(Router, StraddlingAccessFails) {
  Router router("bus");
  TestMemory ram("ram", 64, 0_ns);
  router.map(0x0, 64, ram.socket());
  InitiatorSocket init("cpu");
  init.bind(router.target_socket());
  GenericPayload p(Command::kRead, 62, 4);  // crosses the window end
  Time delay = Time::zero();
  init.b_transport(p, delay);
  EXPECT_EQ(p.response(), Response::kAddressError);
}

TEST(Router, RejectsOverlappingWindows) {
  Router router("bus");
  TestMemory a("a", 64, 0_ns), b("b", 64, 0_ns), c("c", 64, 0_ns);
  router.map(0x000, 64, c.socket());
  router.map(0x100, 64, a.socket());
  // The message, composed only once the check has failed, names the
  // router and the caller's location.
  const std::string message = invariant_message([&] { router.map(0x120, 64, b.socket()); });
  EXPECT_NE(message.find("Router::map: window overlaps existing mapping in bus"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("router.cpp:"), std::string::npos) << message;
  EXPECT_THROW(router.map(0x100, 1, b.socket()), vps::support::InvariantError);
  router.map(0x140, 64, b.socket());  // adjacent is fine
  EXPECT_EQ(router.mapping_count(), 3u);
}

TEST(Router, DmiGrantTranslatedToInitiatorSpace) {
  TestMemory ram("ram", 256, 3_ns);
  Router router("bus");
  router.map(0x8000, 256, ram.socket());
  InitiatorSocket init("cpu");
  init.bind(router.target_socket());

  DmiRegion region;
  ASSERT_TRUE(init.get_direct_mem_ptr(0x8010, region));
  EXPECT_EQ(region.start, 0x8000u);
  EXPECT_EQ(region.end, 0x80FFu);
  EXPECT_TRUE(region.covers(0x8080, 4));
  EXPECT_FALSE(region.covers(0x7FFF, 1));
  // Writing through DMI hits the backing store directly.
  region.base[0x10] = 0x5A;
  EXPECT_EQ(ram.store()[0x10], 0x5A);
}

TEST(Quantum, AccumulatesAndSyncs) {
  Kernel k;
  QuantumKeeper qk(k, 100_ns);
  std::vector<Time> sync_times;
  k.spawn("initiator", [](Kernel& k, QuantumKeeper& qk, std::vector<Time>& log) -> Coro {
    for (int i = 0; i < 25; ++i) {
      qk.inc(10_ns);  // simulate work costing 10ns per iteration
      co_await qk.sync_if_needed();
      if (qk.local_time() == Time::zero()) log.push_back(k.now());
    }
    co_await qk.sync();  // flush the remainder
    log.push_back(k.now());
  }(k, qk, sync_times));
  k.run();
  // 25 iterations * 10ns = 250ns total; syncs at 100, 200, then flush at 250.
  ASSERT_GE(sync_times.size(), 3u);
  EXPECT_EQ(sync_times[0], 100_ns);
  EXPECT_EQ(sync_times[1], 200_ns);
  EXPECT_EQ(k.now(), 250_ns);
  EXPECT_EQ(qk.sync_count(), 3u);
}

// Regression: sync() with no accumulated local time used to bump
// sync_count() even though it never yielded to the kernel, inflating the
// E4 decoupling statistics with free flush calls.
TEST(Quantum, ZeroLocalSyncNotCounted) {
  Kernel k;
  QuantumKeeper qk(k, 100_ns);
  k.spawn("initiator", [](Kernel& k, QuantumKeeper& qk) -> Coro {
    co_await qk.sync();  // nothing accumulated: no yield, not counted
    co_await qk.sync();
    qk.inc(40_ns);
    co_await qk.sync();  // actual yield
    co_await qk.sync();  // flushed already: free again
    (void)k;
  }(k, qk));
  k.run();
  EXPECT_EQ(qk.sync_count(), 1u);
  EXPECT_EQ(k.now(), 40_ns);
}

TEST(Quantum, ZeroQuantumSyncsNever) {
  Kernel k;
  QuantumKeeper qk(k, Time::zero());
  qk.inc(50_ns);
  EXPECT_FALSE(qk.need_sync());  // zero quantum disables automatic sync
  EXPECT_EQ(qk.current_time(), 50_ns);
}

class EchoTarget final : public AtTarget {
 public:
  using AtTarget::AtTarget;
  void handle(GenericPayload& p) override {
    if (p.command() == Command::kRead) p.set_value_le(0xCAFE);
  }
};

TEST(AtProtocol, FourPhaseRoundTrip) {
  Kernel k;
  EchoTarget target(k, "target", 5_ns, 20_ns);
  AtInitiator initiator(k, "initiator");
  initiator.socket().bind(target.socket());

  Time completion_time;
  k.spawn("test", [](Kernel& k, AtInitiator& init, Time& done) -> Coro {
    GenericPayload p(Command::kRead, 0, 2);
    co_await init.transport(p);
    EXPECT_TRUE(p.ok());
    EXPECT_EQ(p.value_le(), 0xCAFEu);
    done = k.now();
  }(k, initiator, completion_time));
  k.run();
  EXPECT_EQ(completion_time, 25_ns);  // 5ns accept + 20ns processing
  EXPECT_EQ(target.completed(), 1u);
}

TEST(AtProtocol, BackToBackTransactionsPipeline) {
  Kernel k;
  EchoTarget target(k, "target", 2_ns, 10_ns);
  AtInitiator initiator(k, "initiator");
  initiator.socket().bind(target.socket());
  int completed = 0;
  k.spawn("test", [](AtInitiator& init, int& completed) -> Coro {
    for (int i = 0; i < 5; ++i) {
      GenericPayload p(Command::kRead, 0, 2);
      co_await init.transport(p);
      EXPECT_TRUE(p.ok());
      ++completed;
    }
  }(initiator, completed));
  k.run();
  EXPECT_EQ(completed, 5);
  EXPECT_EQ(target.completed(), 5u);
}

}  // namespace
