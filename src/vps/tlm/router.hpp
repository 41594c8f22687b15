#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vps/obs/probe.hpp"
#include "vps/obs/provenance.hpp"
#include "vps/sim/time.hpp"
#include "vps/tlm/payload.hpp"
#include "vps/tlm/sockets.hpp"

namespace vps::tlm {

/// Address-decoding interconnect: forwards b_transport to the target whose
/// window covers the address, subtracting the window base (subtractive
/// decode). Models a per-hop routing latency so bus contention-free timing
/// is still visible in LT simulations.
class Router final : public BlockingTransport, public DmiProvider {
 public:
  explicit Router(std::string name, sim::Time hop_latency = sim::Time::zero());

  /// Maps [base, base+size) to the given target socket.
  /// Overlapping windows are rejected.
  void map(std::uint64_t base, std::uint64_t size, TargetSocket& target);

  [[nodiscard]] TargetSocket& target_socket() noexcept { return socket_; }
  [[nodiscard]] std::size_t mapping_count() const noexcept { return map_.size(); }
  [[nodiscard]] std::uint64_t forwarded() const noexcept { return state_.forwarded; }
  [[nodiscard]] std::uint64_t decode_errors() const noexcept { return state_.decode_errors; }

  /// Attaches a transaction probe: every forwarded b_transport becomes a
  /// latency sample and (with a Tracer on the probe) a trace span; decode
  /// errors become instant marks. The probe supplies the kernel reference
  /// for timestamps — the router itself does not keep time. nullptr detaches.
  void set_probe(obs::TransactionProbe* probe) noexcept { probe_ = probe; }
  [[nodiscard]] obs::TransactionProbe* probe() const noexcept { return probe_; }

  /// Attaches a provenance tracker: poisoned payloads crossing this router
  /// become first-contact observations at site "bus:<name>". nullptr
  /// detaches; disabled cost is one pointer test per transaction.
  void set_provenance(obs::ProvenanceTracker* tracker) noexcept { provenance_ = tracker; }

  /// Forwards to the decoded target. A probe or a poisoned payload resets
  /// the target's effect() to kState: each such access must be seen.
  void b_transport(GenericPayload& payload, sim::Time& delay) override;
  /// Counts k more forwarded accesses and passes the repetition on.
  void repeat(GenericPayload& payload, std::uint64_t k) override;
  bool get_direct_mem_ptr(std::uint64_t address, DmiRegion& region) override;

  // --- snapshot-and-fork replay -------------------------------------------
  struct Snapshot {
    std::uint64_t forwarded = 0;
    std::uint64_t decode_errors = 0;
  };
  [[nodiscard]] Snapshot snapshot() const { return state_; }
  void restore(const Snapshot& s) { state_ = s; }

 private:
  struct Window {
    std::uint64_t base;
    std::uint64_t size;
    InitiatorSocket out;
    Window(std::uint64_t b, std::uint64_t s, const std::string& name)
        : base(b), size(s), out(name) {}
  };

  Window* decode(std::uint64_t address, std::size_t size);

  std::string name_;
  sim::Time hop_latency_;
  TargetSocket socket_;
  std::vector<std::unique_ptr<Window>> map_;
  obs::TransactionProbe* probe_ = nullptr;
  obs::ProvenanceTracker* provenance_ = nullptr;
  Snapshot state_;
};

}  // namespace vps::tlm
