#include "vps/dist/transport.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <string>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "vps/support/ensure.hpp"

namespace vps::dist {

using support::ensure;

void ignore_sigpipe() noexcept {
  static const bool installed = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)installed;
}

SocketPair make_socket_pair() {
  int fds[2];
  ensure(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
         std::string("dist: socketpair failed: ") + std::strerror(errno));
  return SocketPair{fds[0], fds[1]};
}

namespace {

void set_nodelay(int fd) noexcept {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ensure(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
         "dist: '" + host + "' is not a numeric IPv4 address");
  return addr;
}

}  // namespace

TcpListener make_tcp_listener(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ensure(fd >= 0, std::string("dist: socket failed: ") + std::strerror(errno));
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = make_addr(host, port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ensure(false, "dist: bind/listen on " + host + ":" + std::to_string(port) + " failed: " + err);
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ensure(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
         std::string("dist: listener O_NONBLOCK failed: ") + std::strerror(errno));
  socklen_t len = sizeof addr;
  ensure(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
         std::string("dist: getsockname failed: ") + std::strerror(errno));
  return TcpListener{fd, ntohs(addr.sin_port)};
}

int tcp_accept(int listener_fd) {
  for (;;) {
    const int fd = ::accept(listener_fd, nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      return fd;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    // A connection that reset between poll and accept is not a server error.
    if (errno == ECONNABORTED) continue;
    ensure(false, std::string("dist: accept failed: ") + std::strerror(errno));
  }
}

int tcp_connect(const std::string& host, std::uint16_t port, int connect_timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ensure(fd >= 0, std::string("dist: socket failed: ") + std::strerror(errno));
  const std::string where = host + ":" + std::to_string(port);
  const auto fail = [&](const std::string& what) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ensure(false, "dist: " + what + " to " + where + " failed: " + err);
  };

  // Nonblocking connect so the wait is bounded by our own poll deadline, not
  // the kernel's SYN-retransmit schedule. A blocking connect interrupted by a
  // signal also cannot be safely retried (the 3-way handshake keeps running
  // and the retry races it into EALREADY/EISCONN) — this path sidesteps that
  // entirely: EINTR during connect() means "in progress", same as EINPROGRESS.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) fail("O_NONBLOCK");
  sockaddr_in addr = make_addr(host, port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EINPROGRESS && errno != EINTR) fail("connect");
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(connect_timeout_ms);
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      if (left <= 0) {
        ::close(fd);
        ensure(false, "dist: connect to " + where + " timed out after " +
                          std::to_string(connect_timeout_ms) + " ms");
      }
      struct pollfd pfd{fd, POLLOUT, 0};
      const int rc = ::poll(&pfd, 1, static_cast<int>(left));
      if (rc < 0) {
        if (errno == EINTR) continue;  // recompute the remaining budget
        fail("poll(connect)");
      }
      if (rc > 0) break;
    }
    int so_error = 0;
    socklen_t len = sizeof so_error;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) fail("SO_ERROR");
    if (so_error != 0) {
      errno = so_error;
      fail("connect");
    }
  }
  if (::fcntl(fd, F_SETFL, flags) != 0) fail("restore blocking mode");
  set_nodelay(fd);
  return fd;
}

Channel::Channel(int fd) : fd_(fd) {
  ensure(fd >= 0, "dist: Channel constructed with invalid fd");
  ignore_sigpipe();
}

Channel::~Channel() { close(); }

Channel::Channel(Channel&& other) noexcept
    : fd_(other.fd_),
      reader_(std::move(other.reader_)),
      stats_(other.stats_),
      partial_since_(other.partial_since_),
      chaos_(std::move(other.chaos_)) {
  other.fd_ = -1;
}

void Channel::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Channel::send_all(const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd_, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;  // peer died
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Full send buffer on a nonblocking fd: backpressure, not an error.
        // Wait for writability and resume the partial write — a dead peer
        // surfaces as EPIPE/ECONNRESET on the retried send.
        struct pollfd pfd{fd_, POLLOUT, 0};
        while (::poll(&pfd, 1, -1) < 0) {
          ensure(errno == EINTR, std::string("dist: poll(POLLOUT) failed: ") + std::strerror(errno));
        }
        continue;
      }
      ensure(false, std::string("dist: send failed: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool Channel::send_frame(MsgType type, std::string_view payload) {
  // A closed channel mid-conversation is a normal runtime condition once
  // links can be torn down underneath us (peer reset, injected disconnect):
  // report it like any other dead peer instead of tripping an invariant.
  if (!open()) return false;
  std::string frame = encode_frame(type, payload);

  if (chaos_ && chaos_->config().enabled()) {
    switch (chaos_->next_action()) {
      case ChaosPolicy::Action::kPass:
        break;
      case ChaosPolicy::Action::kDrop:
        // Pretend the frame left: from this endpoint's view the send
        // succeeded; the peer just never hears it. Healing is the silence
        // supervision (server deadlines, the client's re-ASSIGN and budget).
        ++chaos_->counters().frames_dropped;
        ++stats_.frames_sent;
        stats_.bytes_sent += frame.size();
        return true;
      case ChaosPolicy::Action::kCorrupt: {
        // Flip one bit at or after the CRC field — never in magic/length,
        // which would only postpone detection past the frame boundary. The
        // receiver's CRC-32 check throws and tears the connection down.
        const std::size_t at = chaos_->pick_offset(9, frame.size());
        frame[at] = static_cast<char>(frame[at] ^ (1u << chaos_->pick_offset(0, 8)));
        ++chaos_->counters().bytes_corrupted;
        break;
      }
      case ChaosPolicy::Action::kDelay: {
        // A torn write: prefix, pause, rest. Data all arrives — this stresses
        // partial-frame reassembly and the partial_since wedge clock.
        const std::size_t split = chaos_->pick_offset(1, frame.size());
        const int pause = chaos_->pick_delay_ms();
        ++chaos_->counters().frames_delayed;
        if (!send_all(frame.data(), split)) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(pause));
        if (!send_all(frame.data() + split, frame.size() - split)) return false;
        ++stats_.frames_sent;
        stats_.bytes_sent += frame.size();
        return true;
      }
      case ChaosPolicy::Action::kDisconnect: {
        // Mid-stream link loss: a prefix of the frame escapes, then the
        // socket dies. The peer sees a truncated stream + EOF; we report the
        // send as failed, exactly like a real ECONNRESET.
        const std::size_t split = chaos_->pick_offset(0, frame.size());
        ++chaos_->counters().disconnects;
        if (split > 0) (void)send_all(frame.data(), split);
        close();
        return false;
      }
    }
  }

  if (!send_all(frame.data(), frame.size())) return false;
  ++stats_.frames_sent;
  stats_.bytes_sent += frame.size();
  return true;
}

bool Channel::pump() {
  ensure(open(), "dist: pump on a closed channel");
  char buf[16384];
  const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
  if (n > 0) {
    reader_.feed(buf, static_cast<std::size_t>(n));
    stats_.bytes_received += static_cast<std::uint64_t>(n);
    refresh_partial();
    return true;
  }
  if (n == 0) return false;  // orderly EOF
  if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return true;
  if (errno == ECONNRESET) return false;
  ensure(false, std::string("dist: recv failed: ") + std::strerror(errno));
  return false;  // unreachable
}

void Channel::feed_inbound(const char* data, std::size_t n) {
  reader_.feed(data, n);
  stats_.bytes_received += static_cast<std::uint64_t>(n);
  refresh_partial();
}

void Channel::refresh_partial() noexcept {
  if (reader_.partial()) {
    if (!partial_since_) partial_since_ = std::chrono::steady_clock::now();
  } else {
    partial_since_.reset();
  }
}

std::optional<Frame> Channel::wait_frame(int timeout_ms) {
  for (;;) {
    if (auto frame = next_frame()) return frame;
    if (!open()) return std::nullopt;
    struct pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      ensure(false, std::string("dist: poll failed: ") + std::strerror(errno));
    }
    if (rc == 0) return std::nullopt;  // timeout, channel still open
    if (!pump()) {
      // Peer hung up; hand out anything already buffered, then report EOF.
      if (auto frame = next_frame()) return frame;
      close();
      return std::nullopt;
    }
  }
}

}  // namespace vps::dist
