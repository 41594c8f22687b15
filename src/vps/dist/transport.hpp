#pragma once

/// Byte transport under the framed protocol: a Channel owns one end of a
/// stream socket — the campaign server and its pool workers/clients speak
/// the frames over loopback/LAN TCP, a socketpair carries them in tests —
/// and moves whole frames over it.
/// Writes use MSG_NOSIGNAL and the process ignores SIGPIPE
/// (ignore_sigpipe()), so a peer that died mid-write surfaces as a
/// ChannelClosed error the supervision loop can handle — never as a fatal
/// signal. A send against a full socket buffer (EAGAIN/EWOULDBLOCK on a
/// nonblocking fd) polls for writability and resumes the partial write.

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "vps/dist/chaos.hpp"
#include "vps/dist/protocol.hpp"

namespace vps::dist {

/// Installs SIG_IGN for SIGPIPE once, process-wide. Idempotent; called by
/// every Channel constructor so no user of the transport can forget it.
void ignore_sigpipe() noexcept;

/// Creates a connected SOCK_STREAM socketpair (coordinator end first).
/// Throws support::InvariantError on failure.
struct SocketPair {
  int coordinator_fd = -1;
  int worker_fd = -1;
};
[[nodiscard]] SocketPair make_socket_pair();

/// A bound+listening TCP socket. `port` is the actual bound port — pass
/// port 0 to let the kernel pick an ephemeral one (tests, vps-serverd's
/// default). The fd is nonblocking so an accept sweep can drain the backlog
/// without stalling the server's poll loop.
struct TcpListener {
  int fd = -1;
  std::uint16_t port = 0;
};

/// Binds `host:port` (SO_REUSEADDR) and listens. Throws
/// support::InvariantError on failure.
[[nodiscard]] TcpListener make_tcp_listener(const std::string& host, std::uint16_t port);

/// Accepts one pending connection from a nonblocking listener. Returns the
/// connected fd (TCP_NODELAY set — the protocol is request/response-ish and
/// latency-bound), or -1 when the backlog is empty. Throws on real errors.
[[nodiscard]] int tcp_accept(int listener_fd);

/// Connects to `host:port` (numeric IPv4, e.g. "127.0.0.1") and returns the
/// fd with TCP_NODELAY set. The connect is performed nonblocking and bounded
/// by `connect_timeout_ms` (poll for POLLOUT, then SO_ERROR) — an unroutable
/// or blackholed host surfaces as a clean InvariantError within the timeout
/// instead of hanging for the kernel's SYN-retry minutes. The returned fd is
/// restored to blocking mode. Throws support::InvariantError on failure.
[[nodiscard]] int tcp_connect(const std::string& host, std::uint16_t port,
                              int connect_timeout_ms = 10'000);

/// Transfer counters of one channel, for the dist.* metrics.
struct ChannelStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

/// One end of a framed byte stream over a socket fd. Owns (and closes) the
/// fd. Not thread-safe — each channel belongs to one thread.
class Channel {
 public:
  /// Takes ownership of `fd`.
  explicit Channel(int fd);
  ~Channel();
  Channel(Channel&& other) noexcept;
  Channel& operator=(Channel&&) = delete;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool open() const noexcept { return fd_ >= 0; }
  void close() noexcept;

  /// Sends one complete frame. Returns false when the peer is gone (EPIPE /
  /// ECONNRESET — a dead worker, handled by the supervision loop); throws
  /// support::InvariantError on any other send error. A full send buffer
  /// (EAGAIN/EWOULDBLOCK on a nonblocking fd, or a short write on a blocking
  /// one) polls for writability and resumes the partial write — backpressure
  /// stalls the sender, it never corrupts or tears a frame.
  [[nodiscard]] bool send_frame(MsgType type, std::string_view payload);

  /// Non-blocking-ish receive step: reads whatever bytes are available
  /// (one recv) into the frame reader. Returns false on EOF/peer-reset,
  /// true otherwise (including "no data right now"). Frame decoding errors
  /// (bad magic/CRC) propagate as support::InvariantError.
  [[nodiscard]] bool pump();

  /// Injects bytes that were read outside the channel — e.g. the preamble
  /// the campaign server reads to tell a framed peer from a metrics scrape
  /// before it knows which protocol the connection speaks — as if pump()
  /// had received them.
  void feed_inbound(const char* data, std::size_t n);

  /// Next fully buffered frame, if any. Call pump() (or wait_frame) first.
  [[nodiscard]] std::optional<Frame> next_frame() {
    auto frame = reader_.next();
    if (frame) ++stats_.frames_received;
    refresh_partial();
    return frame;
  }

  /// Blocks up to `timeout_ms` (-1 = forever) for one complete frame.
  /// Returns std::nullopt on timeout or peer EOF (distinguish via open():
  /// EOF closes the channel, a timeout leaves it open).
  [[nodiscard]] std::optional<Frame> wait_frame(int timeout_ms);

  /// When the peer is sitting on an incomplete frame (header or payload
  /// tail missing): the instant the current partial started accumulating.
  /// The supervision loops bound this with the heartbeat deadline — a peer
  /// that trickles or truncates a frame is a wedged worker to kill, never
  /// an indefinite reassembly stall. Reset whenever the buffer reaches a
  /// frame boundary.
  [[nodiscard]] std::optional<std::chrono::steady_clock::time_point> partial_since()
      const noexcept {
    return partial_since_;
  }

  [[nodiscard]] const ChannelStats& stats() const noexcept { return stats_; }

  /// Arms deterministic fault injection on this channel's *outbound* frames
  /// (see chaos.hpp). Pass nullptr (or never call) for a faithful transport.
  /// shared_ptr because channels are movable and tests want to inspect the
  /// policy's counters after the channel is gone.
  void set_chaos(std::shared_ptr<ChaosPolicy> chaos) noexcept { chaos_ = std::move(chaos); }
  [[nodiscard]] const std::shared_ptr<ChaosPolicy>& chaos() const noexcept { return chaos_; }

 private:
  void refresh_partial() noexcept;
  [[nodiscard]] bool send_all(const char* data, std::size_t size);

  int fd_;
  FrameReader reader_;
  ChannelStats stats_;
  std::optional<std::chrono::steady_clock::time_point> partial_since_;
  std::shared_ptr<ChaosPolicy> chaos_;
};

}  // namespace vps::dist
