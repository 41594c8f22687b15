#pragma once

// Flat images of a kernel and of a UART for lock-step tests: name/value
// pairs compared in order, so a divergence names the first field that
// moved.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "vps/hw/uart.hpp"
#include "vps/sim/kernel.hpp"

namespace vps_test {

using Fields = std::vector<std::pair<std::string, std::uint64_t>>;

inline void add(Fields& f, std::string name, std::uint64_t v) { f.emplace_back(std::move(name), v); }

/// Everything a KernelSnapshot holds, with the timed entries in key order
/// (only the heap's array order may differ between two equal kernels).
inline Fields kernel_fields(const vps::sim::Kernel& kernel) {
  const vps::sim::KernelSnapshot s = kernel.snapshot();
  Fields f;
  add(f, "now", s.now.picoseconds());
  add(f, "next_seq", s.next_seq);
  add(f, "init_seq_mark", s.init_seq_mark);
  add(f, "stats.activations", s.stats.activations);
  add(f, "stats.delta_cycles", s.stats.delta_cycles);
  add(f, "stats.timed_steps", s.stats.timed_steps);
  add(f, "stats.notifications", s.stats.notifications);
  add(f, "stats.updates", s.stats.updates);
  for (std::size_t i = 0; i < s.processes.size(); ++i) {
    const auto& p = s.processes[i];
    const std::string n = "process" + std::to_string(i);
    add(f, n + ".state", p.state);
    add(f, n + ".activations", p.activations);
    add(f, n + ".wait_generation", p.wait_generation);
    add(f, n + ".last_wait_timed_out", p.last_wait_timed_out);
  }
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    const auto& e = s.events[i];
    const std::string n = "event" + std::to_string(i);
    add(f, n + ".notify_generation", e.notify_generation);
    add(f, n + ".fire_count", e.fire_count);
    add(f, n + ".waiters", e.dynamic_waiters.size());
    for (const auto& [ordinal, generation] : e.dynamic_waiters) {
      add(f, n + ".waiter", ordinal);
      add(f, n + ".waiter_generation", generation);
    }
  }
  std::vector<vps::sim::KernelSnapshot::TimedImage> timed = s.timed;
  // A reserved seq may key stale entries beside the valid one, so the key
  // alone does not order them.
  std::sort(timed.begin(), timed.end(), [](const auto& a, const auto& b) {
    return std::tie(a.when, a.seq, a.event_ordinal, a.event_generation, a.process_ordinal,
                    a.process_generation) < std::tie(b.when, b.seq, b.event_ordinal,
                                                     b.event_generation, b.process_ordinal,
                                                     b.process_generation);
  });
  for (const auto& t : timed) {
    add(f, "timed.when", t.when.picoseconds());
    add(f, "timed.seq", t.seq);
    add(f, "timed.event", static_cast<std::uint64_t>(t.event_ordinal));
    add(f, "timed.event_generation", t.event_generation);
    add(f, "timed.process", static_cast<std::uint64_t>(t.process_ordinal));
    add(f, "timed.process_generation", t.process_generation);
    add(f, "timed.timeout_flag", t.timeout_flag);
  }
  return f;
}

/// The counters a run that stopped mid-instant can still be compared by.
inline Fields stats_fields(const vps::sim::Kernel& kernel) {
  const vps::sim::KernelStats& k = kernel.stats();
  return {{"now", kernel.now().picoseconds()},   {"activations", k.activations},
          {"delta_cycles", k.delta_cycles},      {"timed_steps", k.timed_steps},
          {"notifications", k.notifications},    {"updates", k.updates}};
}

/// A UART's Snapshot with its FIFO read from the head (the queued bytes),
/// then every frame field and counter.
inline Fields uart_fields(const vps::hw::Uart& uart) {
  const vps::hw::Uart::Snapshot u = uart.snapshot();
  Fields f;
  add(f, "uart.fifo", u.tx_fifo.size() - u.tx_head);
  for (std::size_t i = u.tx_head; i < u.tx_fifo.size(); ++i) add(f, "uart.fifo[]", u.tx_fifo[i]);
  add(f, "uart.shifting", u.shifting);
  add(f, "uart.bit_pending", u.bit_pending);
  add(f, "uart.frame_owed", u.frame_owed);
  add(f, "uart.frame_start", u.frame_start.picoseconds());
  add(f, "uart.bit_index", u.bit_index);
  add(f, "uart.tx_frame", u.tx_frame);
  add(f, "uart.rx_frame", u.rx_frame);
  add(f, "uart.frame_corrupted", u.frame_corrupted);
  add(f, "uart.corrupt_remaining", u.corrupt_remaining);
  add(f, "uart.corrupt_poison", u.corrupt_poison);
  add(f, "uart.corrupt_touched", u.corrupt_touched);
  add(f, "uart.bytes_enqueued", u.bytes_enqueued);
  add(f, "uart.bytes_delivered", u.bytes_delivered);
  add(f, "uart.bits_shifted", u.bits_shifted);
  add(f, "uart.parity_errors", u.parity_errors);
  add(f, "uart.framing_errors", u.framing_errors);
  add(f, "uart.frames_corrupted", u.frames_corrupted);
  return f;
}

/// Reports the first field that differs; true when all agree.
inline bool same(const Fields& a, const Fields& b, const std::string& where) {
  EXPECT_EQ(a.size(), b.size()) << where;
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first) << where;
    EXPECT_EQ(a[i].second, b[i].second) << a[i].first << " at " << where;
    if (a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace vps_test
