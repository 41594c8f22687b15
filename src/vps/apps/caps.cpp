#include "vps/apps/caps.hpp"

#include <algorithm>

#include "vps/can/bus.hpp"
#include "vps/ecu/platform.hpp"
#include "vps/fault/injector.hpp"
#include "vps/fault/snapshot_replay.hpp"
#include "vps/obs/provenance.hpp"
#include "vps/support/crc.hpp"
#include "vps/support/rng.hpp"

namespace vps::apps {

using fault::FaultDescriptor;
using fault::FaultType;
using fault::Observation;
using sim::Time;

namespace {

constexpr std::uint16_t kAccelFrameId = 0x050;
constexpr double kCountsPerG = 6.5;   // sensor scaling: 35g crash -> ~227 counts
constexpr int kFireThreshold = 200;   // firmware compare threshold

/// Firmware with link protection: validates complement and alive counter.
constexpr const char* kProtectedFirmware = R"(
      j main
    main:
      li   r1, 0x40005000    ; CAN controller
      li   r2, 0x40002000    ; watchdog
      addi r3, r0, 2000
      sw   r3, 4(r2)         ; period 2000us
      addi r3, r0, 1
      sw   r3, 0(r2)         ; enable
      li   r4, 0x40003000    ; GPIO (squib driver)
      addi r9, r0, 0         ; consecutive-high counter
      addi r12, r0, 255      ; last alive counter (invalid)
    loop:
      sw   r0, 8(r2)         ; kick watchdog
      lw   r5, 20(r1)        ; RX_COUNT
      beq  r5, r0, loop
      lw   r6, 32(r1)        ; RX_DATA_LO = value | ~value<<8 | counter<<16
      sw   r0, 40(r1)        ; RX_POP
      andi r7, r6, 0xFF      ; value
      shri r8, r6, 8
      andi r8, r8, 0xFF
      xori r8, r8, 0xFF      ; un-complement -> must equal value
      bne  r7, r8, bad
      shri r10, r6, 16
      andi r10, r10, 0xFF    ; alive counter
      beq  r10, r12, stale
      mov  r12, r10
      slti r11, r7, 201      ; value <= 200 ?
      bne  r11, r0, below
      addi r9, r9, 1
      slti r11, r9, 3
      bne  r11, r0, loop
      addi r11, r0, 1
      sw   r11, 0(r4)        ; FIRE
      j    loop
    below:
      addi r9, r0, 0
      j    loop
    bad:
      li   r13, 0x2000       ; integrity-error counter
      lw   r11, 0(r13)
      addi r11, r11, 1
      sw   r11, 0(r13)
      j    loop
    stale:
      li   r13, 0x2004       ; stale-counter counter
      lw   r11, 0(r13)
      addi r11, r11, 1
      sw   r11, 0(r13)
      j    loop
)";

/// Firmware without link protection: trusts the raw value byte.
constexpr const char* kUnprotectedFirmware = R"(
      j main
    main:
      li   r1, 0x40005000
      li   r2, 0x40002000
      addi r3, r0, 2000
      sw   r3, 4(r2)
      addi r3, r0, 1
      sw   r3, 0(r2)
      li   r4, 0x40003000
      addi r9, r0, 0
    loop:
      sw   r0, 8(r2)
      lw   r5, 20(r1)
      beq  r5, r0, loop
      lw   r6, 32(r1)
      sw   r0, 40(r1)
      andi r7, r6, 0xFF
      slti r11, r7, 201
      bne  r11, r0, below
      addi r9, r9, 1
      slti r11, r9, 3
      bne  r11, r0, loop
      addi r11, r0, 1
      sw   r11, 0(r4)
      j    loop
    below:
      addi r9, r0, 0
      j    loop
)";

/// Plain-data state the CAPS system holds outside its models (one struct
/// so epoch capture is a copy).
struct CapsState {
  support::Xorshift noise_rng{0};  ///< road noise under the crash pulse
  std::uint8_t sensor_counter = 0;
  bool sensor_sample_pending = false;
  Time deploy_time = Time::max();
};

/// The firmware image of the link variant, assembled once per process:
/// every golden run and replay builds a fresh CapsSystem.
const hw::Program& firmware(bool protected_link) {
  if (protected_link) {
    static const hw::Program program = hw::assemble(kProtectedFirmware);
    return program;
  }
  static const hw::Program program = hw::assemble(kUnprotectedFirmware);
  return program;
}

/// Accelerometer node: C++-level CAN node sampling the analog channel every
/// millisecond and publishing protected frames. Its frame counter and owed
/// sample live in the system's CapsState.
class SensorNode final : public can::CanNode {
 public:
  SensorNode(sim::Kernel& kernel, can::CanBus& bus, fault::AnalogChannel& channel,
             CapsState& state)
      : bus_(bus), channel_(channel), counter_(state.sensor_counter),
        sample_pending_(state.sensor_sample_pending) {
    bus.attach(*this);
    kernel.spawn("caps.sensor", sample_loop());
  }

  void on_frame(const can::CanFrame&) override {}

  /// Fault hook: from now on one TX-buffer byte is stuck at a garbage
  /// value drawn from `rng` (an address-decoder-class fault) — applied
  /// after protection is computed, i.e. the corruption CAN's wire CRC
  /// cannot see and only end-to-end protection can catch. A non-zero
  /// poison_id stamps every corrupted frame for provenance tracking.
  void set_corrupting(support::Xorshift rng, std::uint64_t poison_id) noexcept {
    corrupting_ = true;
    poison_id_ = poison_id;
    corrupt_byte_ = rng.index(3);
    corrupt_value_ = static_cast<std::uint8_t>(rng.next());
  }

 private:
  // Restore-safe shape (see DESIGN.md "Replay engine"): the sample runs at
  // loop top gated on sample_pending_, so a restored fresh coroutine resumed
  // by the pending timed entry emits exactly the sample the original would
  // have emitted after its await.
  [[nodiscard]] sim::Coro sample_loop() {
    for (;;) {
      if (sample_pending_) {
        sample_pending_ = false;
        const double g = channel_.read();
        const auto value = static_cast<std::uint8_t>(std::clamp(g * kCountsPerG, 0.0, 255.0));
        counter_ = static_cast<std::uint8_t>((counter_ + 1) & 0xFF);
        std::uint8_t payload[3] = {value, static_cast<std::uint8_t>(~value), counter_};
        if (corrupting_) payload[corrupt_byte_] = corrupt_value_;
        can::CanFrame frame = can::CanFrame::make(kAccelFrameId, payload);
        if (corrupting_) frame.poison_id = poison_id_;
        bus_.submit(*this, frame);
      }
      sample_pending_ = true;
      co_await sim::delay(Time::ms(1));
    }
  }

  can::CanBus& bus_;
  fault::AnalogChannel& channel_;
  std::uint8_t& counter_;
  bool& sample_pending_;
  bool corrupting_ = false;
  std::uint64_t poison_id_ = 0;
  std::size_t corrupt_byte_ = 0;
  std::uint8_t corrupt_value_ = 0;
};

/// One quiescent golden-run snapshot: everything a forked replay must
/// overlay onto a freshly built (shape-identical) system. Plain data only —
/// the cache outlives any individual system instance. The golden prefix is
/// identical for every fault, so one segmented golden run serves every
/// forked replay of the campaign.
struct CapsEpochSnapshot {
  sim::KernelSnapshot kernel;
  can::CanBus::Snapshot bus;
  ecu::EcuPlatform::Snapshot airbag;
  fault::AnalogChannel::Snapshot accel;
  CapsState state;
};

/// The complete CAPS system VP, construction order identical to the
/// pre-refactor inline build (CAN bus, airbag platform + firmware, analog
/// front end, sensor node, injector hub, provenance tracker) — ordinal
/// identity of kernel processes/events is what lets a fork overlay a
/// golden snapshot onto a fresh instance.
struct CapsSystem {
  std::uint64_t seed;  ///< salts the sensor-fault corruption stream in inject()
  sim::Kernel kernel;
  can::CanBus bus;
  ecu::EcuPlatform airbag;
  bool wired;  ///< sequencing point: attach_can + firmware load before the sensor node
  CapsState state;
  fault::AnalogChannel accel;
  SensorNode sensor;
  fault::InjectorHub hub;
  obs::ProvenanceTracker tracker;
  obs::ProvenanceTracker* prov = nullptr;

  /// Takes the seed's noise tape and leaves it alone: road noise is one
  /// cheap uniform() draw per sample.
  CapsSystem(const CapsConfig& cfg, std::uint64_t seed, support::NormalTape& /*noise*/)
      : seed(seed),
        bus(kernel, "can0", 500000),
        airbag(kernel, "airbag", platform_config(cfg)),
        wired((airbag.attach_can(bus), airbag.load_program(firmware(cfg.protected_link)), true)),
        state{.noise_rng = support::Xorshift(seed)},
        // Physical crash pulse: low-g driving noise, then a 35g pulse.
        accel([this, cfg]() {
          const Time t = kernel.now();
          double g = 1.0 + state.noise_rng.uniform(0.0, 1.0);  // road noise
          if (cfg.crash && t >= cfg.crash_time && t < cfg.crash_time + Time::ms(4)) g = 35.0;
          return g;
        }),
        sensor(kernel, bus, accel, state),
        hub(airbag),
        tracker(kernel) {
    // Deployment monitor.
    airbag.gpio().out().add_commit_hook([this](const std::uint32_t& v) {
      if (v != 0 && state.deploy_time == Time::max()) state.deploy_time = kernel.now();
    });
    hub.bind_can(bus);
    hub.bind_sensor(accel);
    // Optional end-to-end provenance: one tracker wired through every layer
    // a fault effect can cross, attached before injection so the minted
    // token is live at first contact. The firmware's link checks announce
    // themselves by incrementing the counters at 0x2000/0x2004, so a write
    // watch on those words timestamps the firmware-level detection instant.
    if (cfg.provenance) {
      prov = &tracker;
      bus.set_provenance(prov);
      airbag.bus().set_provenance(prov);
      airbag.ram().set_provenance(prov);
      airbag.cpu().set_provenance(prov);
      hub.set_provenance(prov);
      prov->watch_signal(airbag.gpio().out(), "sig:airbag.squib");
      obs::ProvenanceTracker* p = prov;
      airbag.ram().add_write_watch(0x2000,
                                   [p](std::uint32_t) { p->detect_all("fw.link_check:airbag"); });
      airbag.ram().add_write_watch(0x2004,
                                   [p](std::uint32_t) { p->detect_all("fw.alive_check:airbag"); });
    }
  }

  [[nodiscard]] static ecu::EcuPlatform::Config platform_config(const CapsConfig& cfg) {
    ecu::EcuPlatform::Config pc;
    pc.ecc = cfg.ecc;
    pc.cpu.quantum = Time::us(10);
    return pc;
  }

  /// Schedules the fault: during elaboration on a full replay, right after
  /// restore() on a fork (the kernel orders both alike).
  void inject(FaultDescriptor fault) {
    // Memory faults are drawn over the *occupied* image (firmware + data),
    // not the whole address space: flipping bits in never-read RAM tells a
    // campaign nothing (standard occupancy weighting).
    if (fault.type == FaultType::kMemoryBitFlip || fault.type == FaultType::kMemoryCodewordFlip ||
        fault.type == FaultType::kBusErrorInjection) {
      fault.address %= 0x200;  // the firmware image region
    }
    if (fault.type == FaultType::kCanFrameCorruption &&
        fault.persistence == fault::Persistence::kIntermittent) {
      // Source-side corruption: a TX-buffer byte sticks at garbage from the
      // injection instant onwards — exactly what link protection must catch
      // (the wire CRC is computed over the already-corrupted buffer). This
      // path bypasses the hub, so the provenance token is minted here. The
      // garbage comes from a stream of the seed salted with the fault id,
      // so every injection gets its own corruption pattern.
      const Time delay =
          fault.inject_at > kernel.now() ? fault.inject_at - kernel.now() : Time::zero();
      const support::Xorshift rng =
          support::Xorshift(seed ^ 0xABCDEF ^ fault.id * 0x9E3779B97F4A7C15ULL).fork();
      kernel.spawn("caps.sensor_fault",
                   [](SensorNode& s, obs::ProvenanceTracker* p, FaultDescriptor f, Time delay,
                      support::Xorshift rng) -> sim::Coro {
                     co_await sim::delay(delay);
                     std::uint64_t token = 0;
                     if (p != nullptr) {
                       token = fault::provenance_token(f);
                       p->begin_fault(token,
                                      std::string(fault::to_string(f.type)) + "#" +
                                          std::to_string(f.id),
                                      std::string("inject:") + fault::to_string(f.type));
                     }
                     s.set_corrupting(rng, token);
                   }(sensor, prov, fault, delay, rng));
    } else {
      hub.schedule(fault);
    }
  }

  void capture(CapsEpochSnapshot& e) const {
    e.kernel = kernel.snapshot();
    e.bus = bus.snapshot();
    e.airbag = airbag.snapshot();
    e.accel = accel.snapshot();
    e.state = state;
  }

  void restore(const CapsEpochSnapshot& e) {
    kernel.restore(e.kernel);
    bus.restore(e.bus);
    airbag.restore(e.airbag);
    accel.restore(e.accel);
    state = e.state;
  }

  [[nodiscard]] Observation observe(const CapsConfig& cfg, sim::RunStatus status) {
    Observation obs;
    // A tripped watchdog budget means the model livelocked under the fault:
    // the run did not complete and classify() reports it as kTimeout.
    obs.completed = !status.budget_exhausted();
    const bool deployed = state.deploy_time != Time::max();

    if (cfg.crash) {
      const Time deadline = cfg.crash_time + cfg.deploy_deadline;
      obs.hazard = !deployed || state.deploy_time > deadline;  // failed/late deployment
    } else {
      obs.hazard = deployed;  // inadvertent deployment
    }

    // Functional output signature: deployment decision + time bucket (1 ms).
    support::Crc32 sig;
    sig.update_u64(deployed ? 1 : 0);
    sig.update_u64(deployed ? state.deploy_time.picoseconds() / Time::ms(1).picoseconds() : 0);
    obs.output_signature = sig.value();

    // Detections: firmware integrity/stale counters, watchdog resets,
    // uncorrectable ECC, CPU hardware faults.
    const std::uint32_t integrity_errors = airbag.ram().peek32(0x2000);
    const std::uint32_t stale_errors = airbag.ram().peek32(0x2004);
    obs.detected = integrity_errors + stale_errors + airbag.reset_count() +
                   airbag.ram().uncorrectable_errors() +
                   (airbag.cpu().state() == hw::Cpu::State::kFaulted ? 1 : 0);
    obs.corrected = airbag.ram().corrected_errors() + bus.stats().retransmissions;
    obs.resets = airbag.reset_count();
    if (prov != nullptr) obs.provenance = prov->faults();
    return obs;
  }
};

}  // namespace

struct CapsScenario::Replay : fault::SnapshotReplay<CapsSystem, CapsEpochSnapshot> {};

CapsScenario::CapsScenario(CapsConfig config)
    : config_(config), replay_(std::make_unique<Replay>()) {}
CapsScenario::~CapsScenario() = default;

std::string CapsScenario::name() const {
  std::string n = "caps_";
  n += config_.crash ? "crash" : "normal";
  n += config_.protected_link ? "_protected" : "_unprotected";
  if (config_.ecc == hw::EccMode::kSecded) n += "_ecc";
  return n;
}

std::vector<FaultType> CapsScenario::fault_types() const {
  return {FaultType::kMemoryBitFlip,   FaultType::kRegisterBitFlip, FaultType::kPcCorruption,
          FaultType::kCanFrameCorruption, FaultType::kSensorOffset, FaultType::kSensorStuck,
          FaultType::kSupplyBrownout};
}

Observation CapsScenario::run(const FaultDescriptor* fault, std::uint64_t seed) {
  return replay_->run(config_, fault, seed, snapshot_replay(),
                      [this](CapsSystem& sys, sim::RunStatus status) {
                        return sys.observe(config_, status);
                      });
}

}  // namespace vps::apps
