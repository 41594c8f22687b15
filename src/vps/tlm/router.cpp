#include "vps/tlm/router.hpp"

#include <cstdio>
#include <memory>

#include "vps/support/ensure.hpp"

namespace vps::tlm {

using support::ensure;

namespace {

/// Span label like "write@0x40000000" — command plus the initiator-side
/// address, stable across runs so traces diff cleanly.
std::string transaction_name(const GenericPayload& payload) {
  const char* verb = payload.command() == Command::kRead    ? "read"
                     : payload.command() == Command::kWrite ? "write"
                                                            : "ignore";
  char buf[32];
  std::snprintf(buf, sizeof buf, "@0x%llx",
                static_cast<unsigned long long>(payload.address()));
  return std::string(verb) + buf;
}

}  // namespace

Router::Router(std::string name, sim::Time hop_latency)
    : name_(std::move(name)), hop_latency_(hop_latency), socket_(name_ + ".tsock") {
  socket_.set_blocking(*this);
  socket_.set_dmi(*this);
}

void Router::map(std::uint64_t base, std::uint64_t size, TargetSocket& target) {
  ensure(size > 0, "Router::map: empty window");
  ensure(base + size - 1 >= base, "Router::map: window wraps the address space");
  for (const auto& w : map_) {
    const bool disjoint = base + size <= w->base || w->base + w->size <= base;
    if (!disjoint) [[unlikely]] {
      support::fail("Router::map: window overlaps existing mapping in " + name_);
    }
  }
  auto window = std::make_unique<Window>(base, size, name_ + ".out" + std::to_string(map_.size()));
  window->out.bind(target);
  map_.push_back(std::move(window));
}

Router::Window* Router::decode(std::uint64_t address, std::size_t size) {
  for (const auto& w : map_) {
    if (address >= w->base && address + size <= w->base + w->size) return w.get();
  }
  return nullptr;
}

void Router::b_transport(GenericPayload& payload, sim::Time& delay) {
  Window* w = decode(payload.address(), payload.size());
  if (w == nullptr) {
    ++state_.decode_errors;
    payload.set_response(Response::kAddressError);
    if (probe_ != nullptr) {
      probe_->mark("tlm", "decode_error" + transaction_name(payload),
                   {obs::TraceArg::number("size", static_cast<double>(payload.size()))});
    }
    return;
  }
  ++state_.forwarded;
  const sim::Time delay_before = delay;
  delay += hop_latency_;
  const std::uint64_t original = payload.address();
  payload.set_address(original - w->base);
  w->out.b_transport(payload, delay);
  payload.set_address(original);
  // A poisoned crossing is a provenance contact and a probed one a span:
  // neither may be repeated unseen, in bulk or as a re-arm.
  if (payload.poisoned()) {
    payload.set_effect(Effect::kState);
    if (provenance_ != nullptr) provenance_->touch(payload.poison_id(), "bus:" + name_);
  }
  if (probe_ != nullptr) {
    payload.set_effect(Effect::kState);
    // Annotated LT timing: the transaction occupies [now + delay_before,
    // now + delay_after) of simulated time.
    probe_->record("tlm", transaction_name(payload), probe_->kernel().now() + delay_before,
                   delay - delay_before,
                   {obs::TraceArg::str("response", to_string(payload.response())),
                    obs::TraceArg::number("size", static_cast<double>(payload.size()))});
  }
}

void Router::repeat(GenericPayload& payload, std::uint64_t k) {
  Window* w = decode(payload.address(), payload.size());
  if (w == nullptr) [[unlikely]] {
    support::fail("Router::repeat: no window decodes " + payload.to_string());
  }
  state_.forwarded += k;
  const std::uint64_t original = payload.address();
  payload.set_address(original - w->base);
  w->out.repeat(payload, k);
  payload.set_address(original);
}

bool Router::get_direct_mem_ptr(std::uint64_t address, DmiRegion& region) {
  Window* w = decode(address, 1);
  if (w == nullptr) return false;
  if (!w->out.get_direct_mem_ptr(address - w->base, region)) return false;
  // Translate the granted window back into the initiator's address space.
  region.start += w->base;
  region.end += w->base;
  // Clip to the mapping window so the grant never exceeds the decode range.
  const std::uint64_t window_end = w->base + w->size - 1;
  if (region.end > window_end) region.end = window_end;
  return true;
}

}  // namespace vps::tlm
