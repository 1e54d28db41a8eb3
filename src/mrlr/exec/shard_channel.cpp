#include "mrlr/exec/shard_channel.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include "mrlr/util/text.hpp"

namespace mrlr::exec {

namespace {

using wire::load;
using wire::store;

[[noreturn]] void io_fail(const char* what, const char* op, int err) {
  throw TransportError(TransportError::Kind::kIo,
                       std::string(what) + ": " + op +
                           " failed: " + std::strerror(err));
}

// MSG_NOSIGNAL: a peer that died mid-job must surface as a typed kIo
// (EPIPE) on the next write, not kill the coordinator with SIGPIPE.
::ssize_t send_nosignal(int fd, const void* buf, std::size_t n) {
  return ::send(fd, buf, n, MSG_NOSIGNAL);
}

::ssize_t recv_plain(int fd, void* buf, std::size_t n) {
  return ::recv(fd, buf, n, 0);
}

int make_tcp_socket() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) io_fail("tcp channel", "socket", errno);
  return fd;
}

void set_nodelay(int fd) {
  const int one = 1;
  // Best effort: NODELAY is a latency optimization for the small
  // round-control frames, not a correctness requirement.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Numeric-or-named host resolution for one IPv4 endpoint.
sockaddr_in resolve_ipv4(const Endpoint& ep, const char* what) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* res = nullptr;
  const std::string port = std::to_string(ep.port);
  const int rc = ::getaddrinfo(ep.host.c_str(), port.c_str(), &hints, &res);
  if (rc != 0 || res == nullptr) {
    throw TransportError(TransportError::Kind::kIo,
                         std::string(what) + ": cannot resolve " +
                             ep.str() + ": " + ::gai_strerror(rc));
  }
  sockaddr_in addr{};
  std::memcpy(&addr, res->ai_addr,
              std::min(sizeof(addr), static_cast<std::size_t>(res->ai_addrlen)));
  ::freeaddrinfo(res);
  return addr;
}

// 24-byte hello/ack blobs, assembled field by field (no struct padding
// on the wire). Layouts:
//   hello: u32 magic "MRLH", u16 version, u16 reserved, u32 shard,
//          u32 reserved, u64 nonce
//   ack:   u32 magic "MRLA", u16 version (responder's own), u16 status,
//          u32 shard echo, u32 reserved, u64 nonce echo
constexpr std::size_t kHandshakeBytes = 24;

void send_ack(ShardChannel& ch, HandshakeStatus status, std::uint32_t shard,
              std::uint64_t nonce) {
  std::byte ack[kHandshakeBytes];
  store<std::uint32_t>(ack + 0, kAckMagic);
  store<std::uint16_t>(ack + 4, kFrameVersion);
  store<std::uint16_t>(ack + 6, static_cast<std::uint16_t>(status));
  store<std::uint32_t>(ack + 8, shard);
  store<std::uint32_t>(ack + 12, 0);
  store<std::uint64_t>(ack + 16, nonce);
  ch.write_all(ack, kHandshakeBytes);
}

}  // namespace

void io_write_all(int fd, const std::byte* data, std::size_t n,
                  IoWriteFn wfn, const char* what) {
  std::size_t sent = 0;
  while (sent < n) {
    const ::ssize_t r = wfn(fd, data + sent, n - sent);
    if (r < 0) {
      if (errno == EINTR) continue;
      io_fail(what, "write", errno);
    }
    if (r == 0) {
      // A stream write that makes no progress without an error would
      // spin forever; treat it as the peer being gone.
      throw TransportError(TransportError::Kind::kIo,
                           std::string(what) +
                               ": write made no progress (peer closed?)");
    }
    sent += static_cast<std::size_t>(r);
  }
}

std::size_t io_read_some(int fd, std::byte* data, std::size_t n,
                         IoReadFn rfn, const char* what) {
  while (true) {
    const ::ssize_t r = rfn(fd, data, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw TransportError(TransportError::Kind::kIo,
                             std::string(what) +
                                 ": read timed out waiting for the peer");
      }
      io_fail(what, "read", errno);
    }
    return static_cast<std::size_t>(r);
  }
}

// ------------------------------------------------------------- TCP --

std::optional<Endpoint> parse_endpoint(std::string_view entry) {
  Endpoint ep{"127.0.0.1", 0};
  std::string_view port = entry;
  if (const std::size_t colon = entry.rfind(':');
      colon != std::string_view::npos) {
    ep.host = std::string(entry.substr(0, colon));
    port = entry.substr(colon + 1);
  }
  const std::optional<std::uint16_t> parsed =
      text::parse_number<std::uint16_t>(port);
  if (!parsed || ep.host.empty()) return std::nullopt;
  ep.port = *parsed;
  return ep;
}

std::vector<Endpoint> parse_endpoints(std::string_view csv) {
  std::vector<Endpoint> out;
  std::size_t at = 0;
  while (at <= csv.size()) {
    const std::size_t comma = std::min(csv.find(',', at), csv.size());
    const std::string_view entry = csv.substr(at, comma - at);
    at = comma + 1;
    if (entry.empty()) {
      throw std::invalid_argument(
          "--workers: empty endpoint in the host:port list");
    }
    std::optional<Endpoint> ep = parse_endpoint(entry);
    if (!ep || ep->port == 0) {
      throw std::invalid_argument("--workers: malformed endpoint '" +
                                  std::string(entry) +
                                  "' (expected host:port)");
    }
    out.push_back(std::move(*ep));
    if (comma == csv.size()) break;
  }
  return out;
}

TcpChannel::~TcpChannel() { close_now(); }

void TcpChannel::close_now() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void TcpChannel::write_all(const std::byte* data, std::size_t n) {
  io_write_all(fd_, data, n, &send_nosignal, "tcp channel");
}

std::size_t TcpChannel::read_some(std::byte* data, std::size_t n) {
  return io_read_some(fd_, data, n, &recv_plain, "tcp channel");
}

void set_receive_timeout(int fd, std::chrono::milliseconds timeout,
                         const char* what) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    io_fail(what, "setsockopt(SO_RCVTIMEO)", errno);
  }
}

void TcpChannel::set_read_timeout(std::chrono::milliseconds timeout) {
  set_receive_timeout(fd_, timeout, "tcp channel");
}

TcpListener::TcpListener(const std::string& host, std::uint16_t port)
    : fd_(-1), port_(port) {
  const sockaddr_in addr = resolve_ipv4(Endpoint{host, port}, "tcp listener");
  fd_ = make_tcp_socket();
  const int one = 1;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in bound = addr;
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&bound),
             sizeof(bound)) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    io_fail("tcp listener", "bind", err);
  }
  if (::listen(fd_, SOMAXCONN) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    io_fail("tcp listener", "listen", err);
  }
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    io_fail("tcp listener", "getsockname", err);
  }
  port_ = ntohs(bound.sin_port);
}

TcpListener::~TcpListener() { close_now(); }

void TcpListener::close_now() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpChannel TcpListener::accept_channel() {
  if (fd_ < 0) {
    throw TransportError(TransportError::Kind::kIo,
                         "tcp listener: accept on a closed listener");
  }
  while (true) {
    const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      io_fail("tcp listener", "accept", errno);
    }
    set_nodelay(fd);
    return TcpChannel(fd);
  }
}

TcpChannel tcp_connect(const Endpoint& ep,
                       std::chrono::milliseconds timeout) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + timeout;
  const sockaddr_in addr = resolve_ipv4(ep, "tcp connect");
  auto backoff = std::chrono::milliseconds(5);
  std::string last_error = "timed out";
  while (true) {
    const int fd = make_tcp_socket();
    // SO_SNDTIMEO bounds the blocking connect itself, and the deadline
    // bounds the whole attempt loop: a silent endpoint can never hang
    // us.
    sockaddr_in target = addr;
    timeval tv{};
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (remaining.count() > 0) {
      tv.tv_sec = static_cast<time_t>(remaining.count() / 1000);
      tv.tv_usec =
          static_cast<suseconds_t>((remaining.count() % 1000) * 1000);
      (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&target),
                  sizeof(target)) == 0) {
      set_nodelay(fd);
      return TcpChannel(fd);
    }
    const int err = errno;
    ::close(fd);
    if (err == ECONNREFUSED || err == EINPROGRESS || err == EAGAIN ||
        err == EWOULDBLOCK || err == ETIMEDOUT || err == EINTR) {
      last_error = std::strerror(err);
    } else {
      io_fail("tcp connect", ("connect to " + ep.str()).c_str(), err);
    }
    if (Clock::now() + backoff >= deadline) {
      throw TransportError(
          TransportError::Kind::kIo,
          "tcp connect: connecting to " + ep.str() + " timed out after " +
              std::to_string(timeout.count()) + "ms (last error: " +
              last_error + ")");
    }
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, std::chrono::milliseconds(100));
  }
}

// ------------------------------------------------ descriptor handoff --

void send_descriptor(ShardChannel& ch, std::uint32_t tag, int fd) {
  std::byte data[4];
  store<std::uint32_t>(data, tag);
  iovec iov{data, sizeof(data)};
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = control;
  msg.msg_controllen = sizeof(control);
  cmsghdr* cm = CMSG_FIRSTHDR(&msg);
  cm->cmsg_level = SOL_SOCKET;
  cm->cmsg_type = SCM_RIGHTS;
  cm->cmsg_len = CMSG_LEN(sizeof(int));
  std::memcpy(CMSG_DATA(cm), &fd, sizeof(int));
  while (true) {
    const ::ssize_t r = ::sendmsg(ch.fd(), &msg, MSG_NOSIGNAL);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) io_fail("descriptor handoff", "sendmsg", errno);
    // A 4-byte message into an empty-enough socket goes whole; the
    // descriptor rides on its first byte.
    if (r != static_cast<::ssize_t>(sizeof(data))) {
      throw TransportError(TransportError::Kind::kIo,
                           "descriptor handoff: short sendmsg");
    }
    return;
  }
}

std::pair<std::uint32_t, int> receive_descriptor(ShardChannel& ch) {
  std::byte data[4];
  iovec iov{data, sizeof(data)};
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = control;
  msg.msg_controllen = sizeof(control);
  ::ssize_t r;
  do {
    r = ::recvmsg(ch.fd(), &msg, MSG_CMSG_CLOEXEC | MSG_WAITALL);
  } while (r < 0 && errno == EINTR);
  if (r < 0) io_fail("descriptor handoff", "recvmsg", errno);
  int fd = -1;
  const cmsghdr* cm = CMSG_FIRSTHDR(&msg);
  if (cm != nullptr && cm->cmsg_level == SOL_SOCKET &&
      cm->cmsg_type == SCM_RIGHTS && cm->cmsg_len == CMSG_LEN(sizeof(int))) {
    std::memcpy(&fd, CMSG_DATA(cm), sizeof(int));
  }
  if (r != static_cast<::ssize_t>(sizeof(data)) || fd < 0 ||
      (msg.msg_flags & MSG_CTRUNC) != 0) {
    if (fd >= 0) ::close(fd);
    throw TransportError(
        r == 0 ? TransportError::Kind::kTruncated
               : TransportError::Kind::kBadPayload,
        "descriptor handoff: expected a 4-byte message carrying one "
        "descriptor");
  }
  return {load<std::uint32_t>(data), fd};
}

// ------------------------------------------------------- handshake --

void handshake_connect(ShardChannel& ch, std::uint32_t shard,
                       std::uint64_t nonce) {
  std::byte hello[kHandshakeBytes];
  store<std::uint32_t>(hello + 0, kHelloMagic);
  store<std::uint16_t>(hello + 4, kFrameVersion);
  store<std::uint16_t>(hello + 6, 0);
  store<std::uint32_t>(hello + 8, shard);
  store<std::uint32_t>(hello + 12, 0);
  store<std::uint64_t>(hello + 16, nonce);
  ch.write_all(hello, kHandshakeBytes);

  std::byte ack[kHandshakeBytes];
  read_exact(ch, ack, kHandshakeBytes, "handshake ack");
  if (load<std::uint32_t>(ack + 0) != kAckMagic) {
    throw TransportError(TransportError::Kind::kBadMagic,
                         "handshake: peer did not answer with a shard "
                         "handshake ack (wrong endpoint?)");
  }
  if (load<std::uint32_t>(ack + 12) != 0) {
    throw TransportError(TransportError::Kind::kBadPayload,
                         "handshake: nonzero reserved ack bits");
  }
  const std::uint16_t peer_version = load<std::uint16_t>(ack + 4);
  const std::uint16_t status = load<std::uint16_t>(ack + 6);
  switch (static_cast<HandshakeStatus>(status)) {
    case HandshakeStatus::kOk:
      break;
    case HandshakeStatus::kVersionMismatch:
      throw TransportError(
          TransportError::Kind::kBadVersion,
          "handshake: refused — peer speaks frame protocol version " +
              std::to_string(peer_version) + ", this build speaks version " +
              std::to_string(kFrameVersion));
    case HandshakeStatus::kDuplicateShard:
      throw TransportError(
          TransportError::Kind::kUnexpected,
          "handshake: refused — shard " + std::to_string(shard) +
              " is already registered with this worker for this job "
              "(reconnecting after a drop cannot restore the lost "
              "resident state; restart the job)");
    case HandshakeStatus::kRefused:
      throw TransportError(TransportError::Kind::kUnexpected,
                           "handshake: refused by the worker");
    default:
      throw TransportError(TransportError::Kind::kBadPayload,
                           "handshake: ack carries unknown status " +
                               std::to_string(status));
  }
  if (load<std::uint32_t>(ack + 8) != shard ||
      load<std::uint64_t>(ack + 16) != nonce) {
    throw TransportError(TransportError::Kind::kUnexpected,
                         "handshake: ack echoes a different shard/nonce "
                         "(crossed connections?)");
  }
  if (peer_version != kFrameVersion) {
    // An "ok" from a different version would still be unsafe to trust.
    throw TransportError(
        TransportError::Kind::kBadVersion,
        "handshake: peer accepted but speaks frame protocol version " +
            std::to_string(peer_version) + ", this build speaks version " +
            std::to_string(kFrameVersion));
  }
}

HandshakeHello handshake_accept(
    ShardChannel& ch,
    const std::function<HandshakeStatus(const HandshakeHello&)>& vet) {
  std::byte hello[kHandshakeBytes];
  read_exact(ch, hello, kHandshakeBytes, "handshake hello");
  if (load<std::uint32_t>(hello + 0) != kHelloMagic) {
    throw TransportError(TransportError::Kind::kBadMagic,
                         "handshake: peer did not open with a shard "
                         "handshake hello (wrong endpoint?)");
  }
  if (load<std::uint16_t>(hello + 6) != 0 ||
      load<std::uint32_t>(hello + 12) != 0) {
    throw TransportError(TransportError::Kind::kBadPayload,
                         "handshake: nonzero reserved hello bits");
  }
  HandshakeHello h;
  h.version = load<std::uint16_t>(hello + 4);
  h.shard = load<std::uint32_t>(hello + 8);
  h.nonce = load<std::uint64_t>(hello + 16);
  if (h.version != kFrameVersion) {
    send_ack(ch, HandshakeStatus::kVersionMismatch, h.shard, h.nonce);
    throw TransportError(
        TransportError::Kind::kBadVersion,
        "handshake: refused — peer speaks frame protocol version " +
            std::to_string(h.version) + ", this build speaks version " +
            std::to_string(kFrameVersion));
  }
  const HandshakeStatus status = vet ? vet(h) : HandshakeStatus::kOk;
  send_ack(ch, status, h.shard, h.nonce);
  if (status != HandshakeStatus::kOk) {
    throw TransportError(
        TransportError::Kind::kUnexpected,
        status == HandshakeStatus::kDuplicateShard
            ? "handshake: refused — shard " + std::to_string(h.shard) +
                  " already registered for job nonce " +
                  std::to_string(h.nonce)
            : "handshake: connection refused by the acceptance policy");
  }
  return h;
}

}  // namespace mrlr::exec
