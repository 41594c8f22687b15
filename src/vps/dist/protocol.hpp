#pragma once

/// Wire protocol of the distributed campaign: a length-prefixed,
/// CRC-guarded, versioned frame layer plus the message types the campaign
/// server exchanges with its clients (DistCampaign) and its vps-worker
/// pool:
///
///   SETUP      server → worker  campaign identity: protocol version,
///              (a HELLO frame)  job id, scenario spec, seed, crash
///                               retries, the golden observation
///   HELLO      worker → server  job id + the name of the scenario the
///                               worker built
///   ASSIGN     client → server  one run index + its FaultDescriptor,
///              → worker         relayed byte for byte
///   RESULT     worker → server  run index + replay verdict (outcome,
///                               attempts, crash_what, provenance)
///   SHUTDOWN   server → worker  drain and exit cleanly
///
/// A worker proves itself alive with the frames it already sends (HELLO,
/// RESULT); its silence clock starts when the server hands it work while
/// idle. A worker link carries two frames per run: ASSIGN and RESULT.
///
/// Every job-scoped message carries a `job` field, plus:
///
///   REGISTER       worker → server  joins the standing elastic pool
///   SUBMIT         client → server  one campaign: tenant label, scenario
///                                   spec + expected name, determinism-
///                                   relevant config, requeue budget, golden
///   ACCEPT         server → client  admission granted; carries the job id
///   REJECT         server → peer    admission denied (queue full, version
///                                   mismatch) or an admitted job dropped
///                                   (its spec builds another scenario),
///                                   with a human-readable reason
///   RESULT_STREAM  server → client  one relayed RESULT payload — results
///                                   stream incrementally at the batch-fold
///                                   cadence instead of arriving at the end
///   RELEASE        server → worker  a job finished/vanished; drop its
///                                   cached scenario
///
/// Timing fields (since v3, dist/trace.hpp): REGISTER, SUBMIT and ASSIGN
/// carry the sender's steady clock `ts_ns`, SETUP the job's `job_token`,
/// RESULT the worker's `replay_ns` and, spliced in on RESULT_STREAM relay,
/// the server's `queue_ns`. Each is encoded only when nonzero (the senders
/// fill `ts_ns` and `replay_ns` on every frame, traced or not) and read as
/// zero when absent. Timing never feeds a verdict.
///
/// Frame layout (all integers little-endian):
///   magic  u32   0x56505331 ("VPS1")
///   type   u8    MsgType
///   length u32   payload byte count (bounded by kMaxFramePayload)
///   crc    u32   CRC-32 (IEEE 802.3) of the payload bytes
///   payload      `length` bytes
///
/// Payloads are the same flat-JSON lines the checkpoint file uses — both
/// run through fault::codec, so the wire format and the on-disk format are
/// one implementation and values (hexfloat doubles, picosecond times)
/// round-trip bitwise. A frame with a bad magic, an insane length or a
/// failing CRC throws support::InvariantError from the reader: a corrupted
/// or misaligned stream is a protocol violation, never a mis-parse.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "vps/fault/campaign.hpp"

namespace vps::dist {

inline constexpr std::uint32_t kFrameMagic = 0x56505331u;  // "VPS1"
/// v2: job-scoped messages + the campaign-server types (REGISTER, SUBMIT,
/// ACCEPT, REJECT, RESULT_STREAM, RELEASE). v3: optional trace fields
/// (ts_ns/job_token/replay_ns/queue_ns). v4: no HEARTBEAT, HELLO without
/// pid and version.
inline constexpr std::uint32_t kProtocolVersion = 4;
/// Upper bound on one payload; a length field beyond this is stream
/// corruption (the largest real payloads — provenance-bearing RESULTs —
/// are a few KiB).
inline constexpr std::uint32_t kMaxFramePayload = 64u * 1024u * 1024u;
inline constexpr std::size_t kFrameHeaderSize = 13;  // magic + type + length + crc

enum class MsgType : std::uint8_t {
  kHello = 1,
  kAssign = 2,
  kResult = 3,
  // 4 was v3's HEARTBEAT; a number is never reused for another type.
  kShutdown = 5,
  // v2 (campaign server)
  kRegister = 6,
  kSubmit = 7,
  kAccept = 8,
  kReject = 9,
  kResultStream = 10,
  kRelease = 11,
};
[[nodiscard]] const char* to_string(MsgType t) noexcept;

struct Frame {
  MsgType type = MsgType::kHello;
  std::string payload;
};

/// Serializes one frame (header + payload).
[[nodiscard]] std::string encode_frame(MsgType type, std::string_view payload);

/// Incremental frame decoder over a byte stream: feed() arbitrary chunks,
/// next() yields complete frames. Throws support::InvariantError on a
/// malformed header or a payload CRC mismatch — the connection is then
/// unusable and must be torn down.
class FrameReader {
 public:
  void feed(const char* data, std::size_t n);
  [[nodiscard]] std::optional<Frame> next();
  [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size() - pos_; }
  /// True when buffered bytes form an incomplete frame — i.e. next() would
  /// return nothing but the peer is mid-frame. Meaningful after next() has
  /// drained every complete frame; the supervision loops use it to bound how
  /// long a peer may sit on a partial frame before being declared wedged.
  [[nodiscard]] bool partial() const noexcept;

 private:
  std::string buf_;
  std::size_t pos_ = 0;
};

// --- typed messages --------------------------------------------------------

/// Server → worker campaign identity (sent as a HELLO frame).
struct SetupMsg {
  std::uint32_t version = kProtocolVersion;
  std::uint64_t job = 0;      ///< campaign id on the server's pool
  std::string scenario_spec;  ///< registry spec for exec workers (diagnostic for fork workers)
  std::uint64_t seed = 0;
  std::uint64_t crash_retries = 0;
  /// v3, optional: the job's correlation token, echoed from SUBMIT so worker
  /// trace spans carry the same identity the client and server use (0 = none).
  std::uint64_t job_token = 0;
  fault::Observation golden;
};

/// Worker → server announcement after building a job's scenario.
struct HelloMsg {
  std::uint64_t job = 0;
  std::string scenario;  ///< Scenario::name() of the instance the worker built
};

struct AssignMsg {
  std::uint64_t job = 0;
  std::uint64_t run = 0;  ///< global run index within the job's campaign
  /// v3, optional: sender steady-clock nanoseconds at send time, used only
  /// for clock-offset refinement by vps-tracecat (0 = absent).
  std::uint64_t ts_ns = 0;
  fault::FaultDescriptor fault;
};

struct ResultMsg {
  std::uint64_t job = 0;
  std::uint64_t run = 0;
  /// v3, optional: worker-side replay duration in nanoseconds (0 = absent).
  std::uint64_t replay_ns = 0;
  /// v3, optional: server queue wait (ASSIGN arrival → dispatch) in
  /// nanoseconds, spliced in by the server when relaying RESULT_STREAM —
  /// workers never set it (0 = absent).
  std::uint64_t queue_ns = 0;
  fault::ReplayResult replay;
};

// --- v2 campaign-server messages -------------------------------------------

/// Worker → server: join the standing pool. `reconnects` counts how many
/// sessions this pool process has already served (0 on first contact) so the
/// server can surface self-healing activity in dist.reconnects without
/// guessing which REGISTERs are returns.
struct RegisterMsg {
  std::uint32_t version = kProtocolVersion;
  std::uint64_t pid = 0;
  std::uint64_t reconnects = 0;
  /// v3, optional: worker steady-clock nanoseconds at REGISTER send — the
  /// handshake sample vps-tracecat aligns worker traces with (0 = absent).
  std::uint64_t ts_ns = 0;
};

/// Client → server: one campaign submission. Carries everything a worker
/// needs to be SETUP for the job (spec, seed, crash retries, golden) plus
/// the expected Scenario::name() so the server can reject a worker whose
/// registry builds something else, and the requeue budget that bounds how
/// often a run may take its worker down before it is quarantined.
struct SubmitMsg {
  std::uint32_t version = kProtocolVersion;
  std::string tenant;         ///< fair-share/bookkeeping label (client-chosen)
  std::string scenario_spec;  ///< registry spec workers rebuild the scenario from
  std::string scenario;       ///< expected Scenario::name() — validates worker HELLOs
  fault::CampaignConfig config;  ///< determinism-relevant fields (codec subset)
  std::uint64_t max_requeues = 2;
  /// Client-derived stable identity of the submission (0 = none). A re-SUBMIT
  /// carrying the token of a job whose client is gone *reattaches* to that
  /// job instead of admitting a duplicate — the hand-off that lets a tenant
  /// resume its server campaign from a fresh process or across a client-side
  /// reconnect. A token never matches a job still held by a live client.
  std::uint64_t job_token = 0;
  /// v3, optional: client steady-clock nanoseconds at SUBMIT send — the
  /// handshake sample vps-tracecat aligns client traces with (0 = absent).
  std::uint64_t ts_ns = 0;
  fault::Observation golden;
};

/// Server → client: admission granted.
struct AcceptMsg {
  std::uint64_t job = 0;
};

/// Server → peer: admission (or registration) denied.
struct RejectMsg {
  std::string reason;
};

/// Server → worker: the job is gone; drop its cached scenario.
struct JobMsg {
  std::uint64_t job = 0;
};

[[nodiscard]] std::string encode_setup(const SetupMsg& m);
[[nodiscard]] SetupMsg decode_setup(const std::string& payload);
[[nodiscard]] std::string encode_hello(const HelloMsg& m);
[[nodiscard]] HelloMsg decode_hello(const std::string& payload);
[[nodiscard]] std::string encode_assign(const AssignMsg& m);
[[nodiscard]] AssignMsg decode_assign(const std::string& payload);
[[nodiscard]] std::string encode_result(const ResultMsg& m);
[[nodiscard]] ResultMsg decode_result(const std::string& payload);
[[nodiscard]] std::string encode_register(const RegisterMsg& m);
[[nodiscard]] RegisterMsg decode_register(const std::string& payload);
[[nodiscard]] std::string encode_submit(const SubmitMsg& m);
[[nodiscard]] SubmitMsg decode_submit(const std::string& payload);
[[nodiscard]] std::string encode_accept(const AcceptMsg& m);
[[nodiscard]] AcceptMsg decode_accept(const std::string& payload);
[[nodiscard]] std::string encode_reject(const RejectMsg& m);
[[nodiscard]] RejectMsg decode_reject(const std::string& payload);
[[nodiscard]] std::string encode_job(const JobMsg& m);
[[nodiscard]] JobMsg decode_job(const std::string& payload);

}  // namespace vps::dist
