#include "vps/apps/bms.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "vps/ecu/os.hpp"
#include "vps/fault/injector.hpp"
#include "vps/fault/snapshot_replay.hpp"
#include "vps/hw/uart.hpp"
#include "vps/obs/provenance.hpp"
#include "vps/sim/signal.hpp"
#include "vps/support/crc.hpp"
#include "vps/support/rng.hpp"

namespace vps::apps {

using fault::FaultDescriptor;
using fault::FaultType;
using fault::Observation;
using sim::Time;

namespace bms {

const char* anomaly_name(std::size_t bit) noexcept {
  switch (bit) {
    case 0: return "over_voltage";
    case 1: return "under_voltage";
    case 2: return "over_temp";
    case 3: return "over_current";
    case 4: return "implausible";
    default: return "?";
  }
}

std::uint8_t fuse_electrical(const double* cell_v, std::size_t n, double current_a,
                             const Thresholds& th) noexcept {
  std::uint8_t mask = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (cell_v[i] < th.implausible_low_v || cell_v[i] > th.implausible_high_v) {
      // Outside the physically possible window: a sensor defect (stuck at
      // rail, open wire), not a pack condition — OV/UV would be wrong.
      mask |= kImplausible;
      continue;
    }
    if (cell_v[i] > th.over_voltage_v) mask |= kOverVoltage;
    if (cell_v[i] < th.under_voltage_v) mask |= kUnderVoltage;
  }
  if (std::fabs(current_a) > th.implausible_current_a) {
    mask |= kImplausible;
  } else if (std::fabs(current_a) > th.over_current_a) {
    mask |= kOverCurrent;
  }
  return mask;
}

std::uint8_t fuse_thermal(const double* cell_t, std::size_t n, const Thresholds& th) noexcept {
  std::uint8_t mask = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (cell_t[i] < th.implausible_low_c || cell_t[i] > th.implausible_high_c) {
      mask |= kImplausible;
    } else if (cell_t[i] > th.over_temp_c) {
      mask |= kOverTemp;
    }
  }
  return mask;
}

const char* to_string(State s) noexcept {
  switch (s) {
    case State::kNormal: return "NORMAL";
    case State::kWarning: return "WARNING";
    case State::kCritical: return "CRITICAL";
    case State::kEmergency: return "EMERGENCY";
  }
  return "?";
}

void CorrelationEngine::escalate_to(State s) {
  while (static_cast<int>(fsm_.state) < static_cast<int>(s)) {
    fsm_.state = static_cast<State>(static_cast<int>(fsm_.state) + 1);
    ++fsm_.escalations;
  }
}

State CorrelationEngine::step(std::uint8_t mask, sim::Time now) {
  if (fsm_.state == State::kEmergency) return fsm_.state;  // latched until service
  if (mask == 0) {
    if (fsm_.anomaly_active) {
      fsm_.anomaly_active = false;
      fsm_.quiet_since = now;
    }
    if (fsm_.state != State::kNormal && now - fsm_.quiet_since >= config_.clear_hold) {
      fsm_.state = State::kNormal;
    }
    return fsm_.state;
  }
  if (!fsm_.anomaly_active) {
    fsm_.anomaly_active = true;
    fsm_.anomaly_since = now;
  }
  // Combination signatures that cannot wait out the persistence holds: a
  // shorted pack shows over-current with sagging cells; a runaway cell
  // shows over-temperature with an electrical symptom.
  const bool short_sig = (mask & kOverCurrent) != 0 && (mask & kUnderVoltage) != 0;
  const bool runaway_sig =
      (mask & kOverTemp) != 0 && (mask & (kOverVoltage | kOverCurrent)) != 0;
  if (short_sig || runaway_sig) {
    escalate_to(State::kEmergency);
    return fsm_.state;
  }
  const sim::Time held = now - fsm_.anomaly_since;
  State target = State::kWarning;
  if (held >= config_.escalate_hold * 2) {
    target = State::kEmergency;
  } else if (held >= config_.escalate_hold) {
    target = State::kCritical;
  }
  if (static_cast<int>(target) > static_cast<int>(fsm_.state)) escalate_to(target);
  return fsm_.state;
}

namespace {

void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v & 0xFF);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (static_cast<std::uint16_t>(p[1]) << 8));
}
void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
}
std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

std::array<std::uint8_t, kTelemetryFrameBytes> encode_telemetry(const TelemetryFrame& f) {
  std::array<std::uint8_t, kTelemetryFrameBytes> b{};
  b[0] = kTelemetrySync;
  b[1] = f.seq;
  b[2] = static_cast<std::uint8_t>(f.state);
  b[3] = static_cast<std::uint8_t>((f.anomaly_mask & 0x1Fu) | (f.relay_closed ? 0x80u : 0u));
  for (std::size_t i = 0; i < kCells; ++i) put_u16(&b[4 + 2 * i], f.cell_mv[i]);
  for (std::size_t i = 0; i < kCells; ++i) {
    put_u16(&b[12 + 2 * i], static_cast<std::uint16_t>(f.cell_cc[i]));
  }
  put_u16(&b[20], static_cast<std::uint16_t>(f.current_da));
  put_u16(&b[22], f.soc_pm);
  put_u32(&b[24], f.uptime_ms);
  put_u32(&b[28], support::crc32_ieee(std::span<const std::uint8_t>(b.data(), 28)));
  return b;
}

bool decode_telemetry(const std::uint8_t* bytes, TelemetryFrame& out) {
  if (bytes[0] != kTelemetrySync) return false;
  if (get_u32(&bytes[28]) != support::crc32_ieee(std::span<const std::uint8_t>(bytes, 28))) {
    return false;
  }
  out.seq = bytes[1];
  out.state = static_cast<State>(bytes[2] & 0x03u);
  out.anomaly_mask = bytes[3] & 0x1Fu;
  out.relay_closed = (bytes[3] & 0x80u) != 0;
  for (std::size_t i = 0; i < kCells; ++i) out.cell_mv[i] = get_u16(&bytes[4 + 2 * i]);
  for (std::size_t i = 0; i < kCells; ++i) {
    out.cell_cc[i] = static_cast<std::int16_t>(get_u16(&bytes[12 + 2 * i]));
  }
  out.current_da = static_cast<std::int16_t>(get_u16(&bytes[20]));
  out.soc_pm = get_u16(&bytes[22]);
  out.uptime_ms = get_u32(&bytes[24]);
  return true;
}

}  // namespace bms

const char* to_string(BmsMission m) noexcept {
  switch (m) {
    case BmsMission::kNominal: return "nominal";
    case BmsMission::kThermalRunaway: return "runaway";
    case BmsMission::kShortCircuit: return "short";
  }
  return "?";
}

namespace {

using bms::CorrelationEngine;
using bms::kCells;
using bms::State;

constexpr std::size_t kChannelCount = 2 * kCells + 1;  // voltages, temps, current
constexpr std::size_t kRunawayCell = 2;

/// 4-cell series pack with a lumped thermal node per cell, integrated at a
/// fixed 10 ms step. The runaway self-heat models an internal soft short
/// fed by the pack loop, so opening the contactor removes the heat input —
/// which is what makes the relay a *safe* state rather than a gesture.
struct Pack {
  static constexpr double kCellR = 0.01;         ///< ohm, per cell
  static constexpr double kCapacityAs = 36000.0; ///< 10 Ah
  static constexpr double kAmbientC = 25.0;
  static constexpr double kJouleCPerA2s = 0.0002;
  static constexpr double kCoolPerS = 0.1;

  struct Cell {
    double soc = 0.8;
    double temp_c = 27.0;
  };
  std::array<Cell, kCells> cells{};
  double current_a = 0.0;
  bool relay_closed = true;
  double max_temp_c = 27.0;
  double over_current_s = 0.0;      ///< current conduction stretch above limit
  double max_over_current_s = 0.0;

  [[nodiscard]] static double ocv(double soc) { return 3.0 + 1.2 * soc; }
  [[nodiscard]] double cell_voltage(std::size_t i) const {
    return ocv(cells[i].soc) - current_a * kCellR;
  }

  void step(double dt, double demand_a, double runaway_c_per_s, double limit_a) {
    current_a = relay_closed ? demand_a : 0.0;
    for (std::size_t i = 0; i < kCells; ++i) {
      Cell& c = cells[i];
      c.soc = std::clamp(c.soc - current_a * dt / kCapacityAs, 0.0, 1.0);
      double heat = current_a * current_a * kJouleCPerA2s;
      if (i == kRunawayCell && relay_closed) heat += runaway_c_per_s;
      c.temp_c += (heat - kCoolPerS * (c.temp_c - kAmbientC)) * dt;
      max_temp_c = std::max(max_temp_c, c.temp_c);
    }
    if (std::fabs(current_a) > limit_a) {
      over_current_s += dt;
      max_over_current_s = std::max(max_over_current_s, over_current_s);
    } else {
      over_current_s = 0.0;
    }
  }
};

/// Pack current demanded by the mission, a pure function of time: a
/// deterministic drive cycle, with the short-circuit event overriding it.
double mission_demand(const BmsConfig& cfg, Time t) {
  const double s = t.to_seconds();
  double demand = 10.0;
  if (s < 5.0) {
    demand = 15.0;
  } else if (s < 10.0) {
    demand = 40.0;
  } else if (s < 14.0) {
    demand = -20.0;  // regen charging
  }
  if (cfg.mission == BmsMission::kShortCircuit && t >= cfg.event_at &&
      t < cfg.event_at + Time::sec(2)) {
    demand = 250.0;
  }
  return demand;
}

double mission_runaway(const BmsConfig& cfg, Time t) {
  return cfg.mission == BmsMission::kThermalRunaway && t >= cfg.event_at
             ? cfg.runaway_heat_c_per_s
             : 0.0;
}

/// Plain-data ECU software state (one struct so epoch capture is a copy).
struct EcuState {
  std::size_t noise_cursor = 0;  ///< the next sensor reading's draw on the noise tape
  std::array<double, kCells> meas_v{};
  std::array<double, kCells> meas_t{};
  double meas_i = 0.0;
  // 2-of-2 debounce per category and owning loop; stable bits OR into the
  // fused mask the correlation engine sees.
  std::array<std::uint8_t, bms::kAnomalyCategoryCount> streak_e{};
  std::array<std::uint8_t, bms::kAnomalyCategoryCount> streak_t{};
  std::uint8_t streak_soc = 0;
  std::uint8_t stable_e = 0;
  std::uint8_t stable_t = 0;
  std::uint8_t stable_soc = 0;
  std::uint8_t stable_mask = 0;
  std::uint8_t anomaly_union = 0;
  std::uint64_t anomaly_raises = 0;
  bool alert_mode = false;
  double soc_est = 0.8;
  Time last_soc_update = Time::zero();
  std::uint8_t telemetry_seq = 0;
  std::uint64_t frames_sent = 0;
  Time disconnect_time = Time::max();
  // Telemetry receiver (the wire's far end) and its alive supervision.
  std::array<std::uint8_t, bms::kTelemetryFrameBytes> rx_buf{};
  std::size_t rx_idx = 0;
  std::uint64_t frames_valid = 0;
  std::uint64_t crc_failures = 0;
  std::uint64_t sync_drops = 0;
  std::uint64_t telemetry_timeouts = 0;
  Time last_frame_time = Time::zero();
  bool plant_pending = false;
  bool alive_pending = false;
};

[[nodiscard]] std::uint8_t debounce(std::uint8_t raw,
                                    std::array<std::uint8_t, bms::kAnomalyCategoryCount>& streak) {
  std::uint8_t stable = 0;
  for (std::size_t b = 0; b < bms::kAnomalyCategoryCount; ++b) {
    if ((raw >> b) & 1u) {
      if (streak[b] < 0xFF) ++streak[b];
    } else {
      streak[b] = 0;
    }
    if (streak[b] >= 2) stable |= static_cast<std::uint8_t>(1u << b);
  }
  return stable;
}

/// One quiescent golden-run snapshot of the BMS system (see the CAPS twin
/// in caps.cpp for the replay-engine rationale). Plain data only.
struct BmsEpochSnapshot {
  sim::KernelSnapshot kernel;
  ecu::OsScheduler::Snapshot os;
  Pack pack{};
  std::array<fault::AnalogChannel::Snapshot, kChannelCount> channels{};
  hw::Uart::Snapshot uart;
  sim::Signal<bool>::Snapshot relay;
  CorrelationEngine::Snapshot engine;
  EcuState ecu;
};

/// The complete BMS system VP. Construction order is fixed — kernel
/// ordinal identity (processes, events) is what lets a forked replay
/// overlay a golden snapshot onto a fresh instance. All coroutine bodies
/// are restore-safe (DESIGN.md sec. 6).
struct BmsSystem {
  BmsConfig cfg;
  sim::Kernel kernel;
  ecu::OsScheduler os;
  Pack pack;
  support::NormalTape& noise;  ///< the seed's sensor noise, read at ecu.noise_cursor
  std::vector<fault::AnalogChannel> channels;
  hw::Uart uart;
  sim::Signal<bool> relay;
  CorrelationEngine engine;
  fault::InjectorHub hub;
  obs::ProvenanceTracker tracker;
  obs::ProvenanceTracker* prov = nullptr;
  EcuState ecu;
  ecu::TaskId fast_task = 0;
  ecu::TaskId thermal_task = 0;
  ecu::TaskId soc_task = 0;
  ecu::TaskId telemetry_task = 0;

  BmsSystem(const BmsConfig& config, std::uint64_t /*seed*/, support::NormalTape& sensor_noise)
      : cfg(config),
        os(kernel, "bms_os"),
        noise(sensor_noise),
        uart(kernel, "bms_uart"),
        relay(kernel, "bms.contactor", true),
        engine(config.correlation),
        hub(kernel),
        tracker(kernel) {
    // Sensor channels in fixed bind order: cell voltages, cell temps, pack
    // current — the fault space addresses them by this index.
    channels.reserve(kChannelCount);
    for (std::size_t i = 0; i < kCells; ++i) {
      channels.emplace_back([this, i] {
        return pack.cell_voltage(i) + noise.draw(ecu.noise_cursor++, 0.0, 0.003);
      });
    }
    for (std::size_t i = 0; i < kCells; ++i) {
      channels.emplace_back([this, i] {
        return pack.cells[i].temp_c + noise.draw(ecu.noise_cursor++, 0.0, 0.1);
      });
    }
    channels.emplace_back(
        [this] { return pack.current_a + noise.draw(ecu.noise_cursor++, 0.0, 0.3); });

    // Physical world (the plant does not miss deadlines).
    kernel.spawn("bms.plant", plant_loop());

    // Multi-rate control loops; alert mode tightens all four periods.
    fast_task = os.add_task({.name = "cell_voltage",
                             .period = cfg.fast_period,
                             .wcet = Time::ms(2),
                             .priority = 8,
                             .body = [this] { fast_body(); }});
    thermal_task = os.add_task({.name = "thermal",
                                .period = cfg.thermal_period,
                                .wcet = Time::ms(3),
                                .priority = 6,
                                .body = [this] { thermal_body(); }});
    soc_task = os.add_task({.name = "soc",
                            .period = cfg.soc_period,
                            .wcet = Time::ms(4),
                            .priority = 2,
                            .body = [this] { soc_body(); }});
    telemetry_task = os.add_task({.name = "telemetry",
                                  .period = cfg.telemetry_period,
                                  .wcet = Time::ms(1),
                                  .priority = 4,
                                  .body = [this] { telemetry_body(); }});

    // Telemetry receiver alive supervision (the wire's far end).
    kernel.spawn("bms.alive", alive_loop());

    uart.set_on_byte([this](std::uint8_t b) { rx_byte(b); });
    relay.add_commit_hook([this](const bool& v) {
      if (!v && ecu.disconnect_time == Time::max()) ecu.disconnect_time = kernel.now();
    });

    hub.bind_os(os);
    for (fault::AnalogChannel& ch : channels) hub.bind_sensor(ch);
    hub.bind_uart(uart);

    if (cfg.provenance) {
      prov = &tracker;
      hub.set_provenance(prov);
      uart.set_provenance(prov);
      prov->watch_signal(relay, "sig:bms.contactor");
    }
  }

  // --- control loop bodies (run at job completion on the scheduler) -------

  void fast_body() {
    for (std::size_t i = 0; i < kCells; ++i) ecu.meas_v[i] = channels[i].read();
    ecu.meas_i = channels[2 * kCells].read();
    const std::uint8_t raw =
        bms::fuse_electrical(ecu.meas_v.data(), kCells, ecu.meas_i, cfg.thresholds);
    ecu.stable_e = debounce(raw, ecu.streak_e);
    refresh_mask();
  }

  void thermal_body() {
    for (std::size_t i = 0; i < kCells; ++i) ecu.meas_t[i] = channels[kCells + i].read();
    const std::uint8_t raw = bms::fuse_thermal(ecu.meas_t.data(), kCells, cfg.thresholds);
    ecu.stable_t = debounce(raw, ecu.streak_t);
    refresh_mask();
  }

  void soc_body() {
    const Time t = kernel.now();
    const double dt = (t - ecu.last_soc_update).to_seconds();
    ecu.last_soc_update = t;
    ecu.soc_est = std::clamp(ecu.soc_est - ecu.meas_i * dt / Pack::kCapacityAs, 0.0, 1.0);
    // Coulomb counter vs voltage model: a drifting/stuck current sensor
    // eventually disagrees with what the cell voltages say.
    double avg_v = 0.0;
    for (double v : ecu.meas_v) avg_v += v;
    avg_v /= static_cast<double>(kCells);
    const double v_soc = (avg_v + ecu.meas_i * Pack::kCellR - 3.0) / 1.2;
    if (std::fabs(v_soc - ecu.soc_est) > cfg.thresholds.soc_mismatch) {
      if (ecu.streak_soc < 0xFF) ++ecu.streak_soc;
    } else {
      ecu.streak_soc = 0;
    }
    ecu.stable_soc = ecu.streak_soc >= 2 ? bms::kImplausible : 0;
    refresh_mask();
  }

  void telemetry_body() {
    bms::TelemetryFrame f;
    f.seq = ecu.telemetry_seq++;
    f.state = engine.state();
    f.anomaly_mask = ecu.stable_mask;
    f.relay_closed = relay.read();
    for (std::size_t i = 0; i < kCells; ++i) {
      f.cell_mv[i] = static_cast<std::uint16_t>(
          std::clamp<long long>(std::llround(ecu.meas_v[i] * 1000.0), 0, 65535));
      f.cell_cc[i] = static_cast<std::int16_t>(
          std::clamp<long long>(std::llround(ecu.meas_t[i] * 100.0), -32768, 32767));
    }
    f.current_da = static_cast<std::int16_t>(
        std::clamp<long long>(std::llround(ecu.meas_i * 10.0), -32768, 32767));
    f.soc_pm = static_cast<std::uint16_t>(
        std::clamp<long long>(std::llround(ecu.soc_est * 1000.0), 0, 65535));
    f.uptime_ms =
        static_cast<std::uint32_t>(kernel.now().picoseconds() / Time::ms(1).picoseconds());
    const auto bytes = bms::encode_telemetry(f);
    uart.transmit(bytes.data(), bytes.size());
    ++ecu.frames_sent;
  }

  /// Recomputes the fused mask, counts rising categories as detections,
  /// steps the correlation engine, and acts on the verdict (alert-mode rate
  /// switch, contactor disconnect on EMERGENCY).
  void refresh_mask() {
    const std::uint8_t mask = ecu.stable_e | ecu.stable_t | ecu.stable_soc;
    const auto rising = static_cast<std::uint8_t>(mask & ~ecu.stable_mask);
    ecu.stable_mask = mask;
    ecu.anomaly_union |= mask;
    if (rising != 0) {
      for (std::size_t b = 0; b < bms::kAnomalyCategoryCount; ++b) {
        if ((rising >> b) & 1u) {
          ++ecu.anomaly_raises;
          if (prov != nullptr) {
            prov->detect_all(std::string("bms.fusion:") + bms::anomaly_name(b));
          }
        }
      }
    }
    const State before = engine.state();
    const State after = engine.step(mask, kernel.now());
    if (after != State::kNormal && !ecu.alert_mode) {
      ecu.alert_mode = true;
      os.set_period(fast_task, cfg.alert_fast);
      os.set_period(thermal_task, cfg.alert_thermal);
      os.set_period(soc_task, cfg.alert_soc);
      os.set_period(telemetry_task, cfg.alert_telemetry);
    } else if (after == State::kNormal && ecu.alert_mode) {
      ecu.alert_mode = false;
      os.set_period(fast_task, cfg.fast_period);
      os.set_period(thermal_task, cfg.thermal_period);
      os.set_period(soc_task, cfg.soc_period);
      os.set_period(telemetry_task, cfg.telemetry_period);
    }
    if (after == State::kEmergency && before != State::kEmergency) {
      relay.write(false);  // safe state: pack disconnected, latched
    }
  }

  void rx_byte(std::uint8_t b) {
    if (ecu.rx_idx == 0 && b != bms::kTelemetrySync) {
      ++ecu.sync_drops;  // hunting for frame alignment
      return;
    }
    ecu.rx_buf[ecu.rx_idx++] = b;
    if (ecu.rx_idx < bms::kTelemetryFrameBytes) return;
    ecu.rx_idx = 0;
    bms::TelemetryFrame f;
    if (bms::decode_telemetry(ecu.rx_buf.data(), f)) {
      ++ecu.frames_valid;
      ecu.last_frame_time = kernel.now();
    } else {
      // End-to-end check above the UART: catches what parity cannot
      // (even-count data flips) and what framing lets through.
      ++ecu.crc_failures;
      if (prov != nullptr) prov->detect_all("bms.telemetry_crc");
    }
  }

  [[nodiscard]] sim::Coro plant_loop() {
    for (;;) {
      if (ecu.plant_pending) {
        ecu.plant_pending = false;
        pack.relay_closed = relay.read();
        pack.step(0.01, mission_demand(cfg, kernel.now()), mission_runaway(cfg, kernel.now()),
                  cfg.thresholds.over_current_a);
      }
      ecu.plant_pending = true;
      co_await sim::delay(Time::ms(10));
    }
  }

  [[nodiscard]] sim::Coro alive_loop() {
    for (;;) {
      if (ecu.alive_pending) {
        ecu.alive_pending = false;
        if (kernel.now() - ecu.last_frame_time > Time::ms(1500)) {
          ++ecu.telemetry_timeouts;
          if (prov != nullptr) prov->detect_all("bms.telemetry_alive");
        }
      }
      ecu.alive_pending = true;
      co_await sim::delay(Time::ms(500));
    }
  }

  /// Schedules the fault: during elaboration on a full replay, right after
  /// restore() on a fork. Sensor-fault magnitudes are generated on a volt
  /// scale by the campaign; they are rescaled here onto the targeted channel
  /// family so temperature and current sensors see family-plausible
  /// corruption.
  void inject(FaultDescriptor fault) {
    if (fault.type == FaultType::kSensorOffset || fault.type == FaultType::kSensorStuck) {
      const std::size_t ch = fault.address % kChannelCount;
      fault.address = ch;
      if (ch >= kCells && ch < 2 * kCells) {  // temperature channel
        fault.magnitude = fault.type == FaultType::kSensorOffset
                              ? fault.magnitude * 25.0          // [-50, 50] °C offset
                              : fault.magnitude * 30.0 - 20.0;  // [-20, 130] °C stuck
      } else if (ch == 2 * kCells) {  // pack current channel
        fault.magnitude = fault.type == FaultType::kSensorOffset
                              ? fault.magnitude * 40.0           // [-80, 80] A offset
                              : (fault.magnitude - 2.5) * 80.0;  // [-200, 200] A stuck
      }
    }
    hub.schedule(fault);
  }

  void capture(BmsEpochSnapshot& e) const {
    e.kernel = kernel.snapshot();
    e.os = os.snapshot();
    e.pack = pack;
    for (std::size_t i = 0; i < kChannelCount; ++i) e.channels[i] = channels[i].snapshot();
    e.uart = uart.snapshot();
    e.relay = relay.snapshot();
    e.engine = engine.snapshot();
    e.ecu = ecu;
  }

  void restore(const BmsEpochSnapshot& e) {
    kernel.restore(e.kernel);
    os.restore(e.os);
    pack = e.pack;
    for (std::size_t i = 0; i < kChannelCount; ++i) channels[i].restore(e.channels[i]);
    uart.restore(e.uart);
    relay.restore(e.relay);
    engine.restore(e.engine);
    ecu = e.ecu;
  }

  [[nodiscard]] Observation observe(sim::RunStatus status) {
    Observation obs;
    // See CapsConfig::run_budget: a tripped budget is a livelocked run.
    obs.completed = !status.budget_exhausted();
    // Safety goals: no cell reaches the critical temperature, and the pack
    // never conducts above its rated limit longer than the FTTI hold.
    obs.hazard = pack.max_temp_c >= cfg.hazard_temp_c ||
                 pack.max_over_current_s >= cfg.hazard_current_hold.to_seconds();
    obs.deadline_misses = os.total_deadline_misses();
    // Detections: anomaly-category raises, telemetry E2E and alive checks,
    // UART line checks, scheduler deadline monitor.
    obs.detected = ecu.anomaly_raises + ecu.crc_failures + ecu.sync_drops +
                   ecu.telemetry_timeouts + uart.parity_errors() + uart.framing_errors() +
                   os.total_deadline_misses();
    support::Crc32 sig;
    sig.update_u64(relay.read() ? 1 : 0);
    sig.update_u64(ecu.disconnect_time == Time::max()
                       ? 0
                       : 1 + ecu.disconnect_time.picoseconds() / Time::ms(1).picoseconds());
    sig.update_u64(static_cast<std::uint64_t>(engine.state()));
    sig.update_u64(static_cast<std::uint64_t>(std::llround(pack.max_temp_c * 10.0)));
    sig.update_u64(static_cast<std::uint64_t>(std::llround(ecu.soc_est * 1000.0)));
    sig.update_u64(ecu.frames_sent);
    sig.update_u64(ecu.frames_valid);
    sig.update_u64(ecu.anomaly_union);
    obs.output_signature = sig.value();
    if (prov != nullptr) obs.provenance = prov->faults();
    return obs;
  }
};

[[nodiscard]] BmsDiagnostics read_diagnostics(const BmsSystem& sys) {
  BmsDiagnostics d;
  d.final_state = sys.engine.state();
  d.relay_closed = sys.relay.read();
  d.disconnect_time = sys.ecu.disconnect_time;
  d.max_cell_temp_c = sys.pack.max_temp_c;
  d.max_over_current_s = sys.pack.max_over_current_s;
  d.soc_estimate = sys.ecu.soc_est;
  d.anomaly_union = sys.ecu.anomaly_union;
  d.anomaly_raises = sys.ecu.anomaly_raises;
  d.fast_activations = sys.os.stats(sys.fast_task).activations;
  d.frames_sent = sys.ecu.frames_sent;
  d.frames_valid = sys.ecu.frames_valid;
  d.crc_failures = sys.ecu.crc_failures;
  d.sync_drops = sys.ecu.sync_drops;
  d.telemetry_timeouts = sys.ecu.telemetry_timeouts;
  d.uart_parity_errors = sys.uart.parity_errors();
  d.uart_framing_errors = sys.uart.framing_errors();
  d.uart_bytes_delivered = sys.uart.bytes_delivered();
  d.uart_bytes_in_place = sys.uart.bytes_in_place();
  d.deadline_misses = sys.os.total_deadline_misses();
  return d;
}

}  // namespace

struct BmsScenario::Replay : fault::SnapshotReplay<BmsSystem, BmsEpochSnapshot> {};

BmsScenario::BmsScenario(BmsConfig config)
    : config_(config), replay_(std::make_unique<Replay>()) {}
BmsScenario::~BmsScenario() = default;

std::string BmsScenario::name() const {
  return std::string("bms_") + to_string(config_.mission);
}

std::vector<FaultType> BmsScenario::fault_types() const {
  return {FaultType::kSensorOffset, FaultType::kSensorStuck, FaultType::kBusErrorInjection,
          FaultType::kTaskKill, FaultType::kExecutionSlowdown};
}

Observation BmsScenario::run(const FaultDescriptor* fault, std::uint64_t seed) {
  return replay_->run(config_, fault, seed, snapshot_replay(),
                      [this](BmsSystem& sys, sim::RunStatus status) {
                        last_ = read_diagnostics(sys);
                        return sys.observe(status);
                      });
}

}  // namespace vps::apps
