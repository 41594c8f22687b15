#include "vps/dist/protocol.hpp"

#include <cstring>

#include "vps/fault/codec.hpp"
#include "vps/support/crc.hpp"
#include "vps/support/ensure.hpp"

namespace vps::dist {

using support::ensure;

const char* to_string(MsgType t) noexcept {
  switch (t) {
    case MsgType::kHello: return "HELLO";
    case MsgType::kAssign: return "ASSIGN";
    case MsgType::kResult: return "RESULT";
    case MsgType::kShutdown: return "SHUTDOWN";
    case MsgType::kRegister: return "REGISTER";
    case MsgType::kSubmit: return "SUBMIT";
    case MsgType::kAccept: return "ACCEPT";
    case MsgType::kReject: return "REJECT";
    case MsgType::kResultStream: return "RESULT_STREAM";
    case MsgType::kRelease: return "RELEASE";
  }
  return "?";
}

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

std::uint32_t get_u32(const char* p) noexcept {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(u[0]) | (static_cast<std::uint32_t>(u[1]) << 8) |
         (static_cast<std::uint32_t>(u[2]) << 16) | (static_cast<std::uint32_t>(u[3]) << 24);
}

std::uint32_t payload_crc(std::string_view payload) {
  return support::crc32_ieee(
      {reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size()});
}

/// The types to_string() names are the ones this protocol version defines.
bool valid_type(std::uint8_t t) noexcept {
  return std::string_view(to_string(static_cast<MsgType>(t))) != "?";
}

}  // namespace

std::string encode_frame(MsgType type, std::string_view payload) {
  ensure(payload.size() <= kMaxFramePayload, "dist: frame payload exceeds kMaxFramePayload");
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  put_u32(out, kFrameMagic);
  out.push_back(static_cast<char>(type));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, payload_crc(payload));
  out.append(payload);
  return out;
}

void FrameReader::feed(const char* data, std::size_t n) {
  // Compact before growing so a long-lived stream does not accumulate the
  // already-consumed prefix forever.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

std::optional<Frame> FrameReader::next() {
  if (buf_.size() - pos_ < kFrameHeaderSize) return std::nullopt;
  const char* h = buf_.data() + pos_;
  const std::uint32_t magic = get_u32(h);
  ensure(magic == kFrameMagic, "dist: bad frame magic — stream corrupted or misaligned");
  const std::uint8_t type = static_cast<std::uint8_t>(h[4]);
  if (!valid_type(type)) [[unlikely]] {
    support::fail("dist: unknown frame type " + std::to_string(type));
  }
  const std::uint32_t length = get_u32(h + 5);
  ensure(length <= kMaxFramePayload, "dist: frame length exceeds kMaxFramePayload");
  const std::uint32_t crc = get_u32(h + 9);
  if (buf_.size() - pos_ < kFrameHeaderSize + length) return std::nullopt;

  Frame frame;
  frame.type = static_cast<MsgType>(type);
  frame.payload.assign(buf_, pos_ + kFrameHeaderSize, length);
  if (payload_crc(frame.payload) != crc) [[unlikely]] {
    support::fail(std::string("dist: payload CRC mismatch on ") + to_string(frame.type) + " frame");
  }
  pos_ += kFrameHeaderSize + length;
  return frame;
}

bool FrameReader::partial() const noexcept {
  const std::size_t avail = buf_.size() - pos_;
  if (avail == 0) return false;
  if (avail < kFrameHeaderSize) return true;
  // Header present but the payload is not all here yet. The header is taken
  // at face value: a corrupt one makes next() throw before anyone can act on
  // a wrong partial() verdict.
  const std::uint32_t length = get_u32(buf_.data() + pos_ + 5);
  return avail < kFrameHeaderSize + length;
}

// --- typed messages --------------------------------------------------------
// Payload bodies are flat-JSON lines via fault::codec — identical field
// spellings and value encodings to the checkpoint file.

namespace {
namespace codec = fault::codec;
}

std::string encode_setup(const SetupMsg& m) {
  std::string line = "{\"kind\":\"setup\"";
  codec::append_u64(line, "version", m.version);
  codec::append_u64(line, "job", m.job);
  codec::append_str(line, "scenario_spec", m.scenario_spec);
  codec::append_u64(line, "seed", m.seed);
  codec::append_u64(line, "crash_retries", m.crash_retries);
  if (m.job_token != 0) codec::append_u64(line, "job_token", m.job_token);
  codec::append_observation(line, m.golden);
  line += "}";
  return line;
}

SetupMsg decode_setup(const std::string& payload) {
  const codec::LineParser p(payload);
  ensure(p.str("kind") == "setup", "dist: HELLO payload from the server is not a setup message");
  SetupMsg m;
  m.version = static_cast<std::uint32_t>(p.u64("version"));
  m.job = p.has("job") ? p.u64("job") : 0;
  m.scenario_spec = p.str("scenario_spec");
  m.seed = p.u64("seed");
  m.crash_retries = p.u64("crash_retries");
  m.job_token = p.has("job_token") ? p.u64("job_token") : 0;
  m.golden = codec::observation_from(p);
  return m;
}

std::string encode_hello(const HelloMsg& m) {
  std::string line = "{\"kind\":\"hello\"";
  codec::append_u64(line, "job", m.job);
  codec::append_str(line, "scenario", m.scenario);
  line += "}";
  return line;
}

HelloMsg decode_hello(const std::string& payload) {
  const codec::LineParser p(payload);
  ensure(p.str("kind") == "hello", "dist: HELLO payload from worker is not a hello message");
  return HelloMsg{.job = p.has("job") ? p.u64("job") : 0, .scenario = p.str("scenario")};
}

std::string encode_assign(const AssignMsg& m) {
  std::string line = "{\"kind\":\"assign\"";
  codec::append_u64(line, "job", m.job);
  codec::append_u64(line, "run", m.run);
  if (m.ts_ns != 0) codec::append_u64(line, "ts_ns", m.ts_ns);
  codec::append_fault(line, m.fault);
  line += "}";
  return line;
}

AssignMsg decode_assign(const std::string& payload) {
  const codec::LineParser p(payload);
  ensure(p.str("kind") == "assign", "dist: ASSIGN payload is not an assign message");
  AssignMsg m;
  m.job = p.has("job") ? p.u64("job") : 0;
  m.run = p.u64("run");
  m.ts_ns = p.has("ts_ns") ? p.u64("ts_ns") : 0;
  m.fault = codec::fault_from(p);
  return m;
}

std::string encode_result(const ResultMsg& m) {
  std::string line = "{\"kind\":\"result\"";
  codec::append_u64(line, "job", m.job);
  codec::append_u64(line, "run", m.run);
  if (m.replay_ns != 0) codec::append_u64(line, "replay_ns", m.replay_ns);
  if (m.queue_ns != 0) codec::append_u64(line, "queue_ns", m.queue_ns);
  codec::append_replay(line, m.replay.outcome, m.replay.attempts, m.replay.crash_what,
                       m.replay.provenance);
  line += "}";
  return line;
}

ResultMsg decode_result(const std::string& payload) {
  const codec::LineParser p(payload);
  ensure(p.str("kind") == "result", "dist: RESULT payload is not a result message");
  ResultMsg m;
  m.job = p.has("job") ? p.u64("job") : 0;
  m.run = p.u64("run");
  m.replay_ns = p.has("replay_ns") ? p.u64("replay_ns") : 0;
  m.queue_ns = p.has("queue_ns") ? p.u64("queue_ns") : 0;
  codec::ReplayFields fields = codec::replay_from(p);
  m.replay.outcome = fields.outcome;
  m.replay.attempts = fields.attempts;
  m.replay.crash_what = std::move(fields.crash_what);
  m.replay.provenance = std::move(fields.provenance);
  return m;
}

std::string encode_register(const RegisterMsg& m) {
  std::string line = "{\"kind\":\"register\"";
  codec::append_u64(line, "version", m.version);
  codec::append_u64(line, "pid", m.pid);
  if (m.reconnects != 0) codec::append_u64(line, "reconnects", m.reconnects);
  if (m.ts_ns != 0) codec::append_u64(line, "ts_ns", m.ts_ns);
  line += "}";
  return line;
}

RegisterMsg decode_register(const std::string& payload) {
  const codec::LineParser p(payload);
  ensure(p.str("kind") == "register", "dist: REGISTER payload is not a register message");
  RegisterMsg m;
  m.version = static_cast<std::uint32_t>(p.u64("version"));
  m.pid = p.u64("pid");
  m.reconnects = p.has("reconnects") ? p.u64("reconnects") : 0;
  m.ts_ns = p.has("ts_ns") ? p.u64("ts_ns") : 0;
  return m;
}

std::string encode_submit(const SubmitMsg& m) {
  std::string line = "{\"kind\":\"submit\"";
  codec::append_u64(line, "version", m.version);
  codec::append_str(line, "tenant", m.tenant);
  codec::append_str(line, "scenario_spec", m.scenario_spec);
  codec::append_str(line, "scenario", m.scenario);
  codec::append_u64(line, "max_requeues", m.max_requeues);
  if (m.job_token != 0) codec::append_u64(line, "job_token", m.job_token);
  if (m.ts_ns != 0) codec::append_u64(line, "ts_ns", m.ts_ns);
  codec::append_config(line, m.config);
  codec::append_observation(line, m.golden);
  line += "}";
  return line;
}

SubmitMsg decode_submit(const std::string& payload) {
  const codec::LineParser p(payload);
  ensure(p.str("kind") == "submit", "dist: SUBMIT payload is not a submit message");
  SubmitMsg m;
  m.version = static_cast<std::uint32_t>(p.u64("version"));
  m.tenant = p.str("tenant");
  m.scenario_spec = p.str("scenario_spec");
  m.scenario = p.str("scenario");
  m.max_requeues = p.u64("max_requeues");
  m.job_token = p.has("job_token") ? p.u64("job_token") : 0;
  m.ts_ns = p.has("ts_ns") ? p.u64("ts_ns") : 0;
  m.config = codec::config_from(p);
  m.golden = codec::observation_from(p);
  return m;
}

std::string encode_accept(const AcceptMsg& m) {
  std::string line = "{\"kind\":\"accept\"";
  codec::append_u64(line, "job", m.job);
  line += "}";
  return line;
}

AcceptMsg decode_accept(const std::string& payload) {
  const codec::LineParser p(payload);
  ensure(p.str("kind") == "accept", "dist: ACCEPT payload is not an accept message");
  return AcceptMsg{p.u64("job")};
}

std::string encode_reject(const RejectMsg& m) {
  std::string line = "{\"kind\":\"reject\"";
  codec::append_str(line, "reason", m.reason);
  line += "}";
  return line;
}

RejectMsg decode_reject(const std::string& payload) {
  const codec::LineParser p(payload);
  ensure(p.str("kind") == "reject", "dist: REJECT payload is not a reject message");
  return RejectMsg{p.str("reason")};
}

std::string encode_job(const JobMsg& m) {
  std::string line = "{\"kind\":\"job\"";
  codec::append_u64(line, "job", m.job);
  line += "}";
  return line;
}

JobMsg decode_job(const std::string& payload) {
  const codec::LineParser p(payload);
  ensure(p.str("kind") == "job", "dist: RELEASE payload is not a job message");
  return JobMsg{p.u64("job")};
}

}  // namespace vps::dist
