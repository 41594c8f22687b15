#pragma once

/// Battery-management-system virtual ECU twin: the third full scenario.
/// A 4-cell pack plant (SoC, per-cell thermal state, pack current) feeds
/// noisy voltage/temperature/current sensor channels; periodic OS tasks
/// fuse the readings into a 5-category anomaly bitmask; a correlation
/// engine escalates NORMAL→WARNING→CRITICAL→EMERGENCY with latch
/// semantics and opens the contactor relay as the safe state; and a
/// checksummed 32-byte telemetry frame streams over a UART whose line
/// errors are an injectable fault site. The control loops are multi-rate
/// (100/500/5000 ms) and tighten to 20/100/1000 ms in alert mode via
/// OsScheduler::set_period — the paper's "operational situation" breadth
/// argument made concrete: thermal-runaway and short-circuit missions
/// stress exactly the detectors the FMEDA claims credit for.

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "vps/fault/scenario.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/sim/time.hpp"

namespace vps::apps {

namespace bms {

inline constexpr std::size_t kCells = 4;

// Anomaly categories of the fused bitmask.
inline constexpr std::uint8_t kOverVoltage = 1u << 0;
inline constexpr std::uint8_t kUnderVoltage = 1u << 1;
inline constexpr std::uint8_t kOverTemp = 1u << 2;
inline constexpr std::uint8_t kOverCurrent = 1u << 3;
inline constexpr std::uint8_t kImplausible = 1u << 4;
inline constexpr std::size_t kAnomalyCategoryCount = 5;

/// Category name by bit index (0..4).
[[nodiscard]] const char* anomaly_name(std::size_t bit) noexcept;

struct Thresholds {
  double over_voltage_v = 4.25;
  double under_voltage_v = 2.80;
  double over_temp_c = 60.0;
  double over_current_a = 120.0;  ///< |pack current|
  // Plausibility windows: readings outside them are sensor-implausible
  // (stuck-at-rail, open wire), not a plant condition.
  double implausible_low_v = 0.5;
  double implausible_high_v = 4.8;
  double implausible_low_c = -40.0;
  double implausible_high_c = 150.0;
  double implausible_current_a = 400.0;
  /// Coulomb-counter vs voltage-model SoC disagreement flagged implausible.
  double soc_mismatch = 0.25;
};

/// Fuses the electrical readings (cell voltages + pack current) into the
/// OV/UV/OC/implausible bits. Pure — unit-testable as a truth table.
[[nodiscard]] std::uint8_t fuse_electrical(const double* cell_v, std::size_t n, double current_a,
                                           const Thresholds& th) noexcept;
/// Fuses the thermal readings into the OT/implausible bits.
[[nodiscard]] std::uint8_t fuse_thermal(const double* cell_t, std::size_t n,
                                        const Thresholds& th) noexcept;

enum class State : std::uint8_t { kNormal, kWarning, kCritical, kEmergency };
[[nodiscard]] const char* to_string(State s) noexcept;

/// NORMAL→WARNING→CRITICAL→EMERGENCY state machine. Any anomaly enters
/// WARNING immediately; a persisting anomaly escalates one level per
/// `escalate_hold`; the combination signatures of a shorted pack
/// (OC+UV) or a runaway cell (OT with an electrical symptom) escalate to
/// EMERGENCY at once. EMERGENCY latches — the pack stays disconnected
/// until service. Below EMERGENCY, `clear_hold` of quiet de-escalates
/// back to NORMAL.
class CorrelationEngine {
 public:
  struct Config {
    sim::Time escalate_hold = sim::Time::ms(400);
    sim::Time clear_hold = sim::Time::ms(600);
  };

  CorrelationEngine() = default;
  explicit CorrelationEngine(Config config) : config_(config) {}

  /// Feeds one fused mask sample; returns the state after evaluation.
  State step(std::uint8_t mask, sim::Time now);

  [[nodiscard]] State state() const noexcept { return fsm_.state; }
  [[nodiscard]] bool latched() const noexcept { return fsm_.state == State::kEmergency; }
  [[nodiscard]] std::uint64_t escalations() const noexcept { return fsm_.escalations; }

  struct Snapshot {
    State state = State::kNormal;
    sim::Time anomaly_since = sim::Time::zero();
    sim::Time quiet_since = sim::Time::zero();
    bool anomaly_active = false;
    std::uint64_t escalations = 0;
  };
  [[nodiscard]] Snapshot snapshot() const { return fsm_; }
  void restore(const Snapshot& s) { fsm_ = s; }

 private:
  void escalate_to(State s);

  Config config_;
  Snapshot fsm_;
};

// --- telemetry frame ------------------------------------------------------

inline constexpr std::size_t kTelemetryFrameBytes = 32;
inline constexpr std::uint8_t kTelemetrySync = 0xB5;

/// Decoded contents of one 32-byte telemetry frame. Wire layout (LE):
///   [0] sync 0xB5   [1] seq   [2] state   [3] anomaly mask | relay<<7
///   [4..11]  cell voltages, mV, u16×4      [12..19] cell temps, c°C, i16×4
///   [20..21] pack current, dA, i16         [22..23] SoC, permille, u16
///   [24..27] uptime, ms, u32               [28..31] CRC-32 over [0..27]
struct TelemetryFrame {
  std::uint8_t seq = 0;
  State state = State::kNormal;
  std::uint8_t anomaly_mask = 0;
  bool relay_closed = true;
  std::array<std::uint16_t, kCells> cell_mv{};
  std::array<std::int16_t, kCells> cell_cc{};  ///< centi-degrees C
  std::int16_t current_da = 0;                 ///< deci-amps
  std::uint16_t soc_pm = 0;                    ///< permille
  std::uint32_t uptime_ms = 0;
};

[[nodiscard]] std::array<std::uint8_t, kTelemetryFrameBytes> encode_telemetry(
    const TelemetryFrame& f);
/// Returns false on bad sync or checksum mismatch (out untouched then).
[[nodiscard]] bool decode_telemetry(const std::uint8_t* bytes, TelemetryFrame& out);

}  // namespace bms

enum class BmsMission : std::uint8_t {
  kNominal,        ///< drive cycle only, nothing trips
  kThermalRunaway, ///< one cell self-heats from event_at while connected
  kShortCircuit,   ///< external pack short: 250 A for 2 s from event_at
};
[[nodiscard]] const char* to_string(BmsMission m) noexcept;

struct BmsConfig {
  BmsMission mission = BmsMission::kNominal;
  sim::Time duration = sim::Time::sec(20);
  sim::Time event_at = sim::Time::sec(8);  ///< stressor onset (non-nominal missions)
  // Multi-rate loop periods, nominal and alert mode.
  sim::Time fast_period = sim::Time::ms(100);      ///< cell-voltage/current loop
  sim::Time thermal_period = sim::Time::ms(500);   ///< thermal loop
  sim::Time soc_period = sim::Time::sec(5);        ///< SoC/coulomb-count loop
  sim::Time telemetry_period = sim::Time::ms(500);
  sim::Time alert_fast = sim::Time::ms(20);
  sim::Time alert_thermal = sim::Time::ms(100);
  sim::Time alert_soc = sim::Time::sec(1);
  sim::Time alert_telemetry = sim::Time::ms(100);
  bms::Thresholds thresholds;
  bms::CorrelationEngine::Config correlation;
  /// Thermal-runaway self-heat rate while connected. Against the pack's
  /// Newtonian cooling this crosses over_temp ~3.2 s after onset and the
  /// hazard temperature ~6.7 s after onset — so a working detection chain
  /// disconnects with margin, and a defeated one produces the hazard
  /// within the mission.
  double runaway_heat_c_per_s = 12.0;
  /// Safety goals: no cell may reach this temperature, and the pack must
  /// not conduct above over_current for longer than this hold.
  double hazard_temp_c = 85.0;
  sim::Time hazard_current_hold = sim::Time::ms(300);
  bool provenance = false;
  /// Watchdog budget; see CapsConfig::run_budget for rationale.
  sim::RunBudget run_budget{.max_deltas_without_advance = std::uint64_t{1} << 20};
};

/// Per-run diagnostics of the most recent run (tests/benches).
struct BmsDiagnostics {
  bms::State final_state = bms::State::kNormal;
  bool relay_closed = true;
  sim::Time disconnect_time = sim::Time::max();  ///< max() = never opened
  double max_cell_temp_c = 0.0;
  double max_over_current_s = 0.0;  ///< longest conduction above over_current
  double soc_estimate = 0.0;
  std::uint8_t anomaly_union = 0;   ///< OR of every fused mask seen
  std::uint64_t anomaly_raises = 0;
  std::uint64_t fast_activations = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_valid = 0;
  std::uint64_t crc_failures = 0;
  std::uint64_t sync_drops = 0;
  std::uint64_t telemetry_timeouts = 0;
  std::uint64_t uart_parity_errors = 0;
  std::uint64_t uart_framing_errors = 0;
  std::uint64_t uart_bytes_delivered = 0;
  /// Of this run's bytes: those landed in place (hw::Uart::bytes_in_place,
  /// counted from the fork on a forked replay, from time 0 on a full one).
  std::uint64_t uart_bytes_in_place = 0;
  std::uint64_t deadline_misses = 0;
};

class BmsScenario final : public fault::Scenario {
 public:
  explicit BmsScenario(BmsConfig config);
  BmsScenario() : BmsScenario(BmsConfig{}) {}
  ~BmsScenario() override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] sim::Time duration() const override { return config_.duration; }
  [[nodiscard]] std::vector<fault::FaultType> fault_types() const override;
  [[nodiscard]] fault::Observation run(const fault::FaultDescriptor* fault,
                                       std::uint64_t seed) override;

  [[nodiscard]] const BmsDiagnostics& last_diagnostics() const noexcept { return last_; }

 private:
  /// fault::SnapshotReplay over the system model (defined in bms.cpp).
  struct Replay;

  BmsConfig config_;
  std::unique_ptr<Replay> replay_;
  BmsDiagnostics last_;
};

}  // namespace vps::apps
