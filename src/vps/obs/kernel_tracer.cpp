#include "vps/obs/kernel_tracer.hpp"

#include <algorithm>

#include "vps/support/table.hpp"

namespace vps::obs {

KernelTracer::KernelTracer(sim::Kernel& kernel, Options options)
    : kernel_(kernel), options_(options) {
  kernel_.add_observer(*this);
}

KernelTracer::~KernelTracer() { kernel_.remove_observer(*this); }

void KernelTracer::on_process_activation(const sim::Process& process, sim::Time now) {
  ++activations_seen_;
  if (metric_activations_ != nullptr) metric_activations_->add();
  auto& attribution = process_counts_[&process];
  if (attribution.name.empty()) attribution.name = process.name();
  ++attribution.activations;
  if (tracer_ != nullptr && options_.trace_activations) {
    tracer_->complete("kernel", attribution.name, now, sim::Time::zero(), attribution.name);
  }
}

void KernelTracer::on_event_notified(const sim::Event& event, sim::Time now) {
  ++notifications_seen_;
  if (metric_notifications_ != nullptr) metric_notifications_->add();
  auto& attribution = event_counts_[&event];
  if (attribution.name.empty()) {
    attribution.name = event.name().empty() ? "<unnamed>" : event.name();
  }
  ++attribution.notifications;
  if (tracer_ != nullptr && options_.trace_notifications) {
    tracer_->instant("kernel", attribution.name, now, "events");
  }
}

void KernelTracer::on_delta_cycle(sim::Time now) {
  ++delta_cycles_seen_;
  if (metric_delta_cycles_ != nullptr) metric_delta_cycles_->add();
  if (tracer_ != nullptr && options_.counter_interval != 0 &&
      delta_cycles_seen_ % options_.counter_interval == 0) {
    tracer_->counter("kernel", "scheduler", now,
                     {TraceArg::number("delta_cycles", static_cast<double>(delta_cycles_seen_)),
                      TraceArg::number("activations", static_cast<double>(activations_seen_)),
                      TraceArg::number("notifications", static_cast<double>(notifications_seen_))});
  }
}

void KernelTracer::on_time_advance(sim::Time) {
  ++time_advances_seen_;
  if (metric_time_advances_ != nullptr) metric_time_advances_->add();
}

void KernelTracer::on_budget_trip(const sim::RunStatus& status) {
  ++budget_trips_seen_;
  if (metric_budget_trips_ != nullptr) metric_budget_trips_->add();
  if (tracer_ != nullptr) {
    tracer_->instant("kernel", std::string("budget_trip:") + sim::to_string(status.reason),
                     status.time, "scheduler");
  }
}

std::vector<ProcessAttribution> KernelTracer::process_attribution() const {
  std::vector<ProcessAttribution> out;
  out.reserve(process_counts_.size());
  for (const auto& [ptr, attribution] : process_counts_) out.push_back(attribution);
  std::sort(out.begin(), out.end(), [](const ProcessAttribution& a, const ProcessAttribution& b) {
    if (a.activations != b.activations) return a.activations > b.activations;
    return a.name < b.name;
  });
  return out;
}

std::vector<EventAttribution> KernelTracer::event_attribution() const {
  std::vector<EventAttribution> out;
  out.reserve(event_counts_.size());
  for (const auto& [ptr, attribution] : event_counts_) out.push_back(attribution);
  std::sort(out.begin(), out.end(), [](const EventAttribution& a, const EventAttribution& b) {
    if (a.notifications != b.notifications) return a.notifications > b.notifications;
    return a.name < b.name;
  });
  return out;
}

std::string KernelTracer::report(std::size_t top_n) const {
  std::string out = "kernel attribution (" + std::to_string(activations_seen_) +
                    " activations, " + std::to_string(notifications_seen_) + " notifications, " +
                    std::to_string(delta_cycles_seen_) + " delta cycles)\n";
  support::Table processes({"process", "activations"});
  auto by_process = process_attribution();
  if (by_process.size() > top_n) by_process.resize(top_n);
  for (const auto& attribution : by_process) {
    processes.add_row({attribution.name, std::to_string(attribution.activations)});
  }
  out += processes.render();
  support::Table events({"event", "notifications"});
  auto by_event = event_attribution();
  if (by_event.size() > top_n) by_event.resize(top_n);
  for (const auto& attribution : by_event) {
    events.add_row({attribution.name, std::to_string(attribution.notifications)});
  }
  out += events.render();
  return out;
}

}  // namespace vps::obs
