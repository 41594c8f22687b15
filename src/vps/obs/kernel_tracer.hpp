#pragma once

/// Scheduler-level tracing: a sim::KernelObserver that turns the kernel's
/// aggregate KernelStats into per-process / per-event attribution and feeds
/// structured events to a Tracer. Each process gets its own track (Perfetto
/// thread), so the Chrome trace shows which process ran at which simulated
/// instant — activations are zero-sim-duration slices.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "vps/obs/metrics.hpp"
#include "vps/obs/trace.hpp"
#include "vps/sim/kernel.hpp"

namespace vps::obs {

/// Per-process attribution refined from KernelStats::activations.
struct ProcessAttribution {
  std::string name;
  std::uint64_t activations = 0;
};

/// Per-event attribution refined from KernelStats::notifications.
struct EventAttribution {
  std::string name;
  std::uint64_t notifications = 0;
};

class KernelTracer final : public sim::KernelObserver {
 public:
  struct Options {
    bool trace_activations = true;    ///< emit a slice per process activation
    bool trace_notifications = false; ///< emit an instant per event notify (verbose)
    /// Emit "kernel" counter events (delta cycles, activations) every N delta
    /// cycles; 0 disables counters.
    std::uint64_t counter_interval = 0;
  };

  /// Attaches to the kernel (kernel.add_observer(*this)); detaches in the
  /// destructor. The tracer must outlive the attachment, the kernel must
  /// outlive this object. Coexists with any other KernelObserver.
  explicit KernelTracer(sim::Kernel& kernel) : KernelTracer(kernel, Options()) {}
  KernelTracer(sim::Kernel& kernel, Options options);
  ~KernelTracer() override;
  KernelTracer(const KernelTracer&) = delete;
  KernelTracer& operator=(const KernelTracer&) = delete;

  /// Destination for structured events; nullptr (default) keeps only the
  /// attribution tallies.
  void set_tracer(Tracer* tracer) noexcept { tracer_ = tracer; }
  /// Publishes the aggregate tallies as "kernel.*" counters. Counter objects
  /// are resolved once; each observer callback pays one null test plus an
  /// increment. nullptr detaches.
  void set_metrics(MetricRegistry* registry) {
    if (registry == nullptr) {
      metric_activations_ = nullptr;
      metric_notifications_ = nullptr;
      metric_delta_cycles_ = nullptr;
      metric_time_advances_ = nullptr;
      metric_budget_trips_ = nullptr;
      return;
    }
    metric_activations_ = &registry->counter("kernel.activations");
    metric_notifications_ = &registry->counter("kernel.notifications");
    metric_delta_cycles_ = &registry->counter("kernel.delta_cycles");
    metric_time_advances_ = &registry->counter("kernel.time_advances");
    metric_budget_trips_ = &registry->counter("kernel.budget_trips");
  }

  // KernelObserver interface.
  void on_process_activation(const sim::Process& process, sim::Time now) override;
  void on_event_notified(const sim::Event& event, sim::Time now) override;
  void on_delta_cycle(sim::Time now) override;
  void on_time_advance(sim::Time now) override;
  void on_budget_trip(const sim::RunStatus& status) override;

  /// Attribution sorted by count descending (name breaks ties) for stable
  /// reports.
  [[nodiscard]] std::vector<ProcessAttribution> process_attribution() const;
  [[nodiscard]] std::vector<EventAttribution> event_attribution() const;

  [[nodiscard]] std::uint64_t activations_seen() const noexcept { return activations_seen_; }
  [[nodiscard]] std::uint64_t notifications_seen() const noexcept { return notifications_seen_; }
  [[nodiscard]] std::uint64_t delta_cycles_seen() const noexcept { return delta_cycles_seen_; }
  [[nodiscard]] std::uint64_t time_advances_seen() const noexcept { return time_advances_seen_; }
  [[nodiscard]] std::uint64_t budget_trips_seen() const noexcept { return budget_trips_seen_; }

  /// ASCII report of the hottest processes/events (support::Table).
  [[nodiscard]] std::string report(std::size_t top_n = 10) const;

 private:
  sim::Kernel& kernel_;
  Options options_;
  Tracer* tracer_ = nullptr;
  Counter* metric_activations_ = nullptr;
  Counter* metric_notifications_ = nullptr;
  Counter* metric_delta_cycles_ = nullptr;
  Counter* metric_time_advances_ = nullptr;
  Counter* metric_budget_trips_ = nullptr;

  // Keyed by identity (processes and events are non-movable kernel objects);
  // the name is copied on first sight so reports survive object teardown.
  std::unordered_map<const sim::Process*, ProcessAttribution> process_counts_;
  std::unordered_map<const sim::Event*, EventAttribution> event_counts_;

  std::uint64_t activations_seen_ = 0;
  std::uint64_t notifications_seen_ = 0;
  std::uint64_t delta_cycles_seen_ = 0;
  std::uint64_t time_advances_seen_ = 0;
  std::uint64_t budget_trips_seen_ = 0;
};

}  // namespace vps::obs
