#pragma once
// Transport endpoints and the connection handshake for the shard frame
// protocol (shard_transport.hpp) — the layer that turns "a byte stream
// between coordinator and worker" from an inherited socketpair into
// something that can also be a TCP connection to another host.
//
// Pieces, bottom up:
//
//   * io_write_all / io_read_some — the one implementation of the
//     EINTR-retry and partial-write(2) continuation loops, shared by
//     FdChannel and TcpChannel. The raw read/write calls are injectable
//     so tests can force short writes and interrupted syscalls without
//     a cooperating kernel.
//
//   * TcpChannel / TcpListener / tcp_connect — a connected TCP stream
//     satisfying ShardChannel (writes use MSG_NOSIGNAL: a dead peer is
//     a typed kIo error, never SIGPIPE), a listening socket (port 0 =
//     kernel-assigned, for loopback tests), and a deadline-bounded
//     connect with retry/backoff on ECONNREFUSED so a coordinator can
//     start slightly before its workers without failing spuriously —
//     but still fails typed when the deadline passes, never hangs.
//
//   * Handshake — every channel (fork socketpair or TCP alike) opens
//     with a fixed 24-byte hello (magic, frame protocol version, shard
//     id, job nonce) answered by a fixed 24-byte ack (status + the
//     responder's own version), so version skew, a misrouted shard id,
//     or a duplicate registration is refused with a typed
//     TransportError naming both sides before any frame is trusted.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

#include "mrlr/exec/shard_transport.hpp"

namespace mrlr::exec {

// ------------------------------------------------- shared I/O loops --

/// Injectable raw syscall shapes (::write / ::read compatible).
using IoWriteFn = ::ssize_t (*)(int fd, const void* buf, std::size_t n);
using IoReadFn = ::ssize_t (*)(int fd, void* buf, std::size_t n);

/// Writes all `n` bytes to `fd` via `wfn`, retrying on EINTR and
/// continuing after partial writes. Throws TransportError(kIo) on any
/// other failure; `what` names the channel kind in the message.
void io_write_all(int fd, const std::byte* data, std::size_t n,
                  IoWriteFn wfn, const char* what);

/// Reads up to `n` bytes from `fd` via `rfn`, retrying on EINTR.
/// Returns the count read (0 = end of stream). EAGAIN/EWOULDBLOCK —
/// which only happen when a receive timeout is armed — throw
/// TransportError(kIo) naming the timeout; other failures throw
/// TransportError(kIo) with the errno text.
std::size_t io_read_some(int fd, std::byte* data, std::size_t n,
                         IoReadFn rfn, const char* what);

/// Arms SO_RCVTIMEO on socket `fd` (0 = wait forever); blocking reads
/// past it fail through io_read_some's timeout error. Throws
/// TransportError(kIo) if the OS refuses.
void set_receive_timeout(int fd, std::chrono::milliseconds timeout,
                         const char* what);

// ------------------------------------------------------------- TCP --

/// A `host:port` pair (host may be a hostname or numeric address).
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;

  std::string str() const { return host + ":" + std::to_string(port); }
};

/// Parses one "[host:]port" (a bare port means 127.0.0.1; port 0, which
/// lets a listener's kernel pick, is kept). nullopt when malformed.
std::optional<Endpoint> parse_endpoint(std::string_view entry);

/// Parses "host:port[,host:port...]" (the --workers flag). A bare
/// "port" means 127.0.0.1. Throws std::invalid_argument on anything
/// malformed (empty entry, missing/unparsable/zero port).
std::vector<Endpoint> parse_endpoints(std::string_view csv);

/// ShardChannel over a connected TCP socket. Owns the descriptor.
/// Writes use send(MSG_NOSIGNAL) so a vanished peer surfaces as a
/// typed TransportError(kIo) instead of SIGPIPE.
class TcpChannel final : public ShardChannel {
 public:
  explicit TcpChannel(int fd) : fd_(fd) {}
  ~TcpChannel() override;

  TcpChannel(const TcpChannel&) = delete;
  TcpChannel& operator=(const TcpChannel&) = delete;
  TcpChannel(TcpChannel&& other) noexcept : fd_(other.fd_) {
    other.fd_ = -1;
  }

  void write_all(const std::byte* data, std::size_t n) override;
  std::size_t read_some(std::byte* data, std::size_t n) override;
  void close_now() override;
  void set_read_timeout(std::chrono::milliseconds timeout) override;

  int fd() const override { return fd_; }

 private:
  int fd_;
};

/// Listening TCP socket bound to `host:port` (SO_REUSEADDR; port 0 asks
/// the kernel for an ephemeral port, readable via port() — how loopback
/// tests avoid fixed-port collisions). Throws TransportError(kIo) if
/// the OS refuses.
class TcpListener {
 public:
  TcpListener(const std::string& host, std::uint16_t port);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;
  TcpListener(TcpListener&& other) noexcept
      : fd_(other.fd_), port_(other.port_) {
    other.fd_ = -1;
  }

  /// Blocks until a peer connects; returns the connected channel
  /// (TCP_NODELAY set — round-control frames are small and latency
  /// bound). Throws TransportError(kIo) on failure or a closed
  /// listener.
  TcpChannel accept_channel();

  std::uint16_t port() const { return port_; }
  int fd() const { return fd_; }
  void close_now();

 private:
  int fd_;
  std::uint16_t port_;
};

/// Connects to `ep` within `timeout`: non-blocking connect with a poll
/// deadline, retrying with doubling backoff on ECONNREFUSED (a worker
/// that has not reached listen() yet). Throws TransportError(kIo)
/// naming the endpoint when the deadline passes — never blocks past it.
TcpChannel tcp_connect(const Endpoint& ep,
                       std::chrono::milliseconds timeout);

// ------------------------------------------------ descriptor handoff --

/// Passes descriptor `fd` over the AF_UNIX socket behind `ch`
/// (SCM_RIGHTS), tagged with `tag`: a 4-byte message carrying the
/// descriptor. The sender keeps its own copy; close it once sent.
/// Throws TransportError(kIo) on failure.
void send_descriptor(ShardChannel& ch, std::uint32_t tag, int fd);

/// Receives one send_descriptor message: returns the tag and the new
/// descriptor (close-on-exec). Throws TransportError on end of stream,
/// a message without exactly one descriptor, or an OS failure.
std::pair<std::uint32_t, int> receive_descriptor(ShardChannel& ch);

// ------------------------------------------------------- handshake --

inline constexpr std::uint32_t kHelloMagic = 0x484C524Du;  // "MRLH"
inline constexpr std::uint32_t kAckMagic = 0x414C524Du;    // "MRLA"

enum class HandshakeStatus : std::uint16_t {
  kOk = 0,
  kVersionMismatch = 1,  ///< peer speaks a different frame version
  kDuplicateShard = 2,   ///< (nonce, shard) was already registered here
  kRefused = 3,          ///< responder-specific refusal (message lost —
                         ///< the 24-byte ack is fixed-size by design)
};

/// The connector's side of the 24-byte hello: who is connecting (shard)
/// for which job (nonce), speaking which frame protocol version.
struct HandshakeHello {
  std::uint16_t version = kFrameVersion;
  std::uint32_t shard = 0;
  std::uint64_t nonce = 0;
};

/// Coordinator side: sends the hello for (shard, nonce), reads the ack,
/// and throws a typed TransportError unless the responder accepted —
/// kBadVersion names both versions on a version refusal, kUnexpected
/// names the shard on a duplicate-registration refusal, kBadMagic on a
/// peer that is not speaking this handshake at all, kBadPayload on an
/// ack with an unknown status or nonzero reserved bits.
void handshake_connect(ShardChannel& ch, std::uint32_t shard,
                       std::uint64_t nonce);

/// Worker side: reads the hello (kBadPayload on nonzero reserved bits,
/// with no ack), refuses a version mismatch itself, then consults `vet`
/// (duplicate-shard policy and any additional acceptance checks) and
/// sends the ack. Returns the hello when accepted; on any refusal the
/// ack is sent first and then a typed
/// TransportError is thrown (the serving loop drops the connection).
HandshakeHello handshake_accept(
    ShardChannel& ch,
    const std::function<HandshakeStatus(const HandshakeHello&)>& vet);

}  // namespace mrlr::exec
