#pragma once

/// Deterministic network-fault injection for the framed transport — the
/// distribution layer given the repo's own medicine. A ChaosPolicy attached
/// to a Channel perturbs *outbound* frames only, drawing every decision from
/// a seeded Xorshift stream so a chaos run is replayable from its seed:
///
///   drop        the frame is silently discarded (never written). The peer
///               sees a healthy but quiet link; healing is whatever bounds
///               silence — the server's silence and hello deadlines, the
///               client's re-ASSIGN window and silence budget.
///   corrupt     one byte of the encoded frame (CRC field or payload —
///               never the magic/length, which would only delay detection)
///               is bit-flipped before the write. The receiver's CRC-32
///               check throws, the connection is torn down, and the
///               reconnect/requeue machinery takes over.
///   delay       the frame is written in two pieces with a small pause in
///               between — a partial write that exercises reassembly and
///               the partial-frame wedge clock without losing data.
///   disconnect  a prefix of the frame is written and the socket is closed:
///               a mid-stream link loss, surfaced to the sender as a dead
///               peer and to the receiver as a truncated stream + EOF.
///
/// Injecting only on the send side keeps the policy honest: every byte the
/// receiver sees either came off the wire or never arrived, exactly like a
/// real flaky link, and both directions of a connection are covered by
/// giving each endpoint its own policy. Distinct channels must fork
/// distinct streams (ChaosPolicy's `stream` key) so that the fault pattern
/// on one link does not depend on traffic volume on another.
///
/// The acceptance bar (tests/server_test.cpp, examples/chaos_campaign.cpp):
/// under any chaos seed a campaign that completes folds bitwise identical
/// to the solo in-process driver — chaos may only ever cost retries, never
/// move a result bit.

#include <cstddef>
#include <cstdint>

#include "vps/support/rng.hpp"

namespace vps::dist {

/// Per-link fault mix. `seed == 0` disables chaos entirely (the polarity
/// every tool flag uses: `--chaos-seed 0` is a no-op, any other value arms
/// the injector). Probabilities are evaluated per outbound frame, in the
/// order drop → corrupt → delay → disconnect (at most one action fires).
struct ChaosConfig {
  std::uint64_t seed = 0;
  double drop_frame = 0.02;
  double corrupt_frame = 0.02;
  double delay_frame = 0.05;
  double disconnect = 0.01;
  /// Upper bound on one injected delay (the actual pause is drawn uniformly
  /// from [1, max_delay_ms]). Keep small: delays model scheduling jitter,
  /// not outages — outages are what drop/disconnect are for.
  int max_delay_ms = 5;

  [[nodiscard]] bool enabled() const noexcept { return seed != 0; }
};

/// What a policy has done so far; folded into MetricRegistry counters
/// (dist.chaos.*) by whoever owns the channel.
struct ChaosCounters {
  std::uint64_t frames_dropped = 0;
  std::uint64_t bytes_corrupted = 0;
  std::uint64_t frames_delayed = 0;
  std::uint64_t disconnects = 0;
};

/// One channel's injector. Construction forks an independent Xorshift
/// stream from (config.seed, stream), so two policies with the same seed
/// but different stream keys produce uncorrelated — but individually
/// replayable — fault patterns.
class ChaosPolicy {
 public:
  enum class Action { kPass, kDrop, kCorrupt, kDelay, kDisconnect };

  ChaosPolicy(const ChaosConfig& config, std::uint64_t stream) noexcept
      : config_(config), rng_(support::Xorshift(config.seed).fork(stream)) {}

  /// Rolls the action for the next outbound frame.
  [[nodiscard]] Action next_action() noexcept {
    if (!config_.enabled()) return Action::kPass;
    if (rng_.chance(config_.drop_frame)) return Action::kDrop;
    if (rng_.chance(config_.corrupt_frame)) return Action::kCorrupt;
    if (rng_.chance(config_.delay_frame)) return Action::kDelay;
    if (rng_.chance(config_.disconnect)) return Action::kDisconnect;
    return Action::kPass;
  }

  /// Uniform offset in [lo, hi) — the byte to corrupt / the split point of
  /// a delayed or truncated write. Requires lo < hi.
  [[nodiscard]] std::size_t pick_offset(std::size_t lo, std::size_t hi) noexcept {
    return lo + rng_.index(hi - lo);
  }

  /// Uniform pause in [1, max_delay_ms] milliseconds.
  [[nodiscard]] int pick_delay_ms() noexcept {
    const int hi = config_.max_delay_ms < 1 ? 1 : config_.max_delay_ms;
    return 1 + static_cast<int>(rng_.index(static_cast<std::size_t>(hi)));
  }

  [[nodiscard]] const ChaosConfig& config() const noexcept { return config_; }
  [[nodiscard]] const ChaosCounters& counters() const noexcept { return counters_; }
  ChaosCounters& counters() noexcept { return counters_; }

 private:
  ChaosConfig config_;
  support::Xorshift rng_;
  ChaosCounters counters_;
};

}  // namespace vps::dist
