#include "mrlr/exec/shard_transport.hpp"

#include "mrlr/exec/shard_channel.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include <sys/socket.h>
#include <unistd.h>

#include "mrlr/obs/telemetry.hpp"
#include "mrlr/util/mix64.hpp"

namespace mrlr::exec {

namespace {

using wire::load;
using wire::store;

constexpr std::uint64_t kChecksumSeed = 0x6D726C722E6D7366ull;  // "mrlr.msf"
// Seed distance between the four checksum chains (the splitmix64
// golden-ratio increment).
constexpr std::uint64_t kChecksumLaneStep = 0x9E3779B97F4A7C15ull;

[[noreturn]] void io_fail(const char* op, int err) {
  throw TransportError(TransportError::Kind::kIo,
                       std::string("shard transport: ") + op +
                           " failed: " + std::strerror(err));
}

// Fixed 40-byte header, assembled field by field so the wire layout
// never depends on struct padding.
constexpr std::size_t kHeaderBytes = kFrameHeaderBytes;

[[noreturn]] void stream_ended(const char* context, std::uint64_t got,
                               std::uint64_t n) {
  throw TransportError(TransportError::Kind::kTruncated,
                       std::string("shard transport: stream ended inside ") +
                           context + " (" + std::to_string(got) + " of " +
                           std::to_string(n) + " bytes)");
}

/// First buffer size of a payload that outgrows its frame's buffer.
constexpr std::uint64_t kPayloadChunk = std::uint64_t{64} << 10;

/// Growth factor of such a buffer. With few reallocations, a fresh
/// multi-megabyte payload reads about as fast as into an exact-size
/// buffer (doubling is about twice as slow), and the buffer still
/// never exceeds 8x the bytes received.
constexpr std::uint64_t kPayloadGrowth = 8;

/// Reads a `len`-byte payload into `payload`. Within the buffer's
/// capacity it is sized once; past it, the buffer grows as bytes
/// arrive, so a header claiming more than the stream carries ends
/// truncated instead of driving an allocation no bytes back.
void read_payload(ShardChannel& ch, std::vector<std::byte>& payload,
                  std::uint64_t len) {
  // Cleared first when outgrowing, so growth never copies the previous
  // frame; within capacity only bytes past the old size are
  // zero-filled, and the reads overwrite them all.
  if (len > payload.capacity()) payload.clear();
  payload.resize(std::min(len, std::max<std::uint64_t>(payload.capacity(),
                                                       kPayloadChunk)));
  std::uint64_t got = 0;
  while (got < len) {
    if (got == payload.size()) {
      payload.resize(std::min(len, kPayloadGrowth * got));
    }
    const std::size_t r =
        ch.read_some(payload.data() + got, payload.size() - got);
    if (r == 0) stream_ended("frame payload", got, len);
    got += r;
  }
}

}  // namespace

void read_exact(ShardChannel& ch, std::byte* data, std::size_t n,
                const char* context) {
  std::size_t got = 0;
  while (got < n) {
    const std::size_t r = ch.read_some(data + got, n - got);
    if (r == 0) stream_ended(context, got, n);
    got += r;
  }
}

FdChannel::~FdChannel() { close_now(); }

void FdChannel::close_now() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void FdChannel::write_all(const std::byte* data, std::size_t n) {
  // The EINTR-retry / partial-write continuation loop lives in one
  // shared helper (shard_channel.hpp) so FdChannel and TcpChannel can
  // never drift apart on short-write handling.
  io_write_all(fd_, data, n, [](int fd, const void* buf, std::size_t len) {
    // MSG_NOSIGNAL: a fork child that died must surface as a typed kIo
    // (EPIPE), not a SIGPIPE kill of the coordinator. The fd is a
    // socketpair in every production path; plain pipes (ENOTSOCK) fall
    // back to write() for generality.
    const ::ssize_t r = ::send(fd, buf, len, MSG_NOSIGNAL);
    if (r < 0 && errno == ENOTSOCK) return ::write(fd, buf, len);
    return r;
  }, "fd channel");
}

std::size_t FdChannel::read_some(std::byte* data, std::size_t n) {
  return io_read_some(fd_, data, n, [](int fd, void* buf, std::size_t len) {
    return ::read(fd, buf, len);
  }, "fd channel");
}

void FdChannel::set_read_timeout(std::chrono::milliseconds timeout) {
  set_receive_timeout(fd_, timeout, "fd channel");
}

std::pair<FdChannel, FdChannel> make_socketpair_channel() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    io_fail("socketpair", errno);
  }
  return {FdChannel(fds[0]), FdChannel(fds[1])};
}

namespace {

/// The four checksum chains (frame_checksum).
struct Chains {
  std::uint64_t h0 = kChecksumSeed;
  std::uint64_t h1 = kChecksumSeed + kChecksumLaneStep;
  std::uint64_t h2 = kChecksumSeed + 2 * kChecksumLaneStep;
  std::uint64_t h3 = kChecksumSeed + 3 * kChecksumLaneStep;
};

/// Steps the chains over the whole 32-byte blocks of [p, p + n). Taken
/// and returned by value, so the chains stay in registers.
Chains step_blocks(Chains c, const std::byte* p, std::size_t n) {
  for (std::size_t i = 0; i + 32 <= n; i += 32) {
    c.h0 = mix64(c.h0 ^ load<std::uint64_t>(p + i));
    c.h1 = mix64(c.h1 ^ load<std::uint64_t>(p + i + 8));
    c.h2 = mix64(c.h2 ^ load<std::uint64_t>(p + i + 16));
    c.h3 = mix64(c.h3 ^ load<std::uint64_t>(p + i + 24));
  }
  return c;
}

/// Feeds the last `n` < 32 payload bytes at `tail`, folds the chains and
/// absorbs the payload length.
std::uint64_t finish_chains(Chains c, const std::byte* tail, std::size_t n,
                            std::uint64_t length) {
  // At most three whole words remain; they continue the interleave.
  if (n >= 8) {
    c.h0 = mix64(c.h0 ^ load<std::uint64_t>(tail));
    tail += 8;
    n -= 8;
  }
  if (n >= 8) {
    c.h1 = mix64(c.h1 ^ load<std::uint64_t>(tail));
    tail += 8;
    n -= 8;
  }
  if (n >= 8) {
    c.h2 = mix64(c.h2 ^ load<std::uint64_t>(tail));
    tail += 8;
    n -= 8;
  }
  if (n > 0) {
    std::uint64_t last = 0;
    std::memcpy(&last, tail, n);
    c.h0 = mix64(c.h0 ^ last);
  }
  // Ordered fold: the chains are not interchangeable.
  std::uint64_t h = mix64(c.h0);
  h = mix64(h ^ c.h1);
  h = mix64(h ^ c.h2);
  h = mix64(h ^ c.h3);
  return mix64(h ^ length);
}

}  // namespace

std::uint64_t frame_checksum(std::span<const std::byte> payload) {
  const std::size_t whole = payload.size() - payload.size() % 32;
  return finish_chains(step_blocks(Chains{}, payload.data(), whole),
                       payload.data() + whole, payload.size() - whole,
                       payload.size());
}

void write_frame(ShardChannel& ch, FrameKind kind, std::uint32_t shard,
                 std::uint64_t sequence,
                 std::span<const std::byte> payload) {
  write_frame_parts(ch, kind, shard, sequence, {&payload, 1});
}

std::uint64_t frame_checksum_parts(
    std::span<const std::span<const std::byte>> parts) {
  // Whole 32-byte blocks go straight through the chains, and a block
  // split across pieces is assembled in `carry` first.
  Chains chains;
  std::byte carry[32];
  std::size_t fill = 0;
  std::uint64_t size = 0;
  for (std::span<const std::byte> part : parts) {
    size += part.size();
    if (fill > 0) {
      const std::size_t take = std::min(part.size(), sizeof(carry) - fill);
      std::memcpy(carry + fill, part.data(), take);
      fill += take;
      part = part.subspan(take);
      if (fill < sizeof(carry)) continue;
      chains = step_blocks(chains, carry, sizeof(carry));
      fill = 0;
    }
    const std::size_t whole = part.size() - part.size() % 32;
    chains = step_blocks(chains, part.data(), whole);
    fill = part.size() - whole;
    if (fill > 0) std::memcpy(carry, part.data() + whole, fill);
  }
  return finish_chains(chains, carry, fill, size);
}

void encode_frame_header(std::byte* header, FrameKind kind,
                         std::uint32_t shard, std::uint64_t sequence,
                         std::uint64_t size, std::uint64_t checksum) {
  store<std::uint32_t>(header + 0, kFrameMagic);
  store<std::uint16_t>(header + 4, kFrameVersion);
  store<std::uint16_t>(header + 6, static_cast<std::uint16_t>(kind));
  store<std::uint32_t>(header + 8, shard);
  store<std::uint32_t>(header + 12, 0);  // reserved
  store<std::uint64_t>(header + 16, sequence);
  store<std::uint64_t>(header + 24, size);
  store<std::uint64_t>(header + 32, checksum);
}

void write_frame_parts(ShardChannel& ch, FrameKind kind, std::uint32_t shard,
                       std::uint64_t sequence,
                       std::span<const std::span<const std::byte>> parts) {
  std::uint64_t size = 0;
  for (const std::span<const std::byte> part : parts) size += part.size();
  std::byte header[kHeaderBytes];
  encode_frame_header(header, kind, shard, sequence, size,
                      frame_checksum_parts(parts));
  ch.write_all(header, kHeaderBytes);
  for (const std::span<const std::byte> part : parts) {
    if (!part.empty()) ch.write_all(part.data(), part.size());
  }
  obs::count("exec.frames_sent");
  obs::count("exec.wire_bytes_out", kHeaderBytes + size);
}

Frame decode_frame_header(const std::byte* header, std::uint64_t max_payload,
                          std::uint64_t& length) {
  const std::uint32_t magic = load<std::uint32_t>(header + 0);
  if (magic != kFrameMagic) {
    throw TransportError(TransportError::Kind::kBadMagic,
                         "shard transport: bad frame magic 0x" +
                             [&] {
                               char buf[16];
                               std::snprintf(buf, sizeof(buf), "%08X", magic);
                               return std::string(buf);
                             }());
  }
  const std::uint16_t version = load<std::uint16_t>(header + 4);
  if (version != kFrameVersion) {
    throw TransportError(TransportError::Kind::kBadVersion,
                         "shard transport: unsupported frame version " +
                             std::to_string(version));
  }
  const std::uint16_t kind_raw = load<std::uint16_t>(header + 6);
  // The kind space is dense: [kShardData, kMaxFrameKind] with no holes.
  if (kind_raw < static_cast<std::uint16_t>(FrameKind::kShardData) ||
      kind_raw > kMaxFrameKind) {
    // A kind this build does not know (version skew, corruption) fails
    // typed here, before any payload is trusted — never a hang.
    throw TransportError(TransportError::Kind::kBadMagic,
                         "shard transport: unknown frame kind " +
                             std::to_string(kind_raw));
  }
  if (load<std::uint32_t>(header + 12) != 0) {
    throw TransportError(TransportError::Kind::kBadMagic,
                         "shard transport: nonzero reserved header bits");
  }
  length = load<std::uint64_t>(header + 24);
  if (length > max_payload) {
    throw TransportError(TransportError::Kind::kBadLength,
                         "shard transport: frame payload length " +
                             std::to_string(length) + " exceeds the cap " +
                             std::to_string(max_payload));
  }
  Frame f;
  f.kind = static_cast<FrameKind>(kind_raw);
  f.shard = load<std::uint32_t>(header + 8);
  f.sequence = load<std::uint64_t>(header + 16);
  f.checksum = load<std::uint64_t>(header + 32);
  return f;
}

void read_frame(ShardChannel& ch, Frame& into, std::uint64_t max_payload) {
  std::byte header[kHeaderBytes];
  read_exact(ch, header, kHeaderBytes, "frame header");
  std::uint64_t payload_len = 0;
  const Frame head = decode_frame_header(header, max_payload, payload_len);
  into.kind = head.kind;
  into.shard = head.shard;
  into.sequence = head.sequence;
  into.checksum = head.checksum;
  // The checksum covers exactly payload_len bytes, so stale bytes past
  // the end of this frame can never validate it.
  read_payload(ch, into.payload, payload_len);
  if (into.checksum != frame_checksum(into.payload)) {
    throw TransportError(TransportError::Kind::kBadChecksum,
                         "shard transport: frame checksum mismatch "
                         "(corrupt payload)");
  }
  obs::count("exec.frames_received");
  obs::count("exec.wire_bytes_in", kHeaderBytes + payload_len);
}

Frame read_frame(ShardChannel& ch, std::uint64_t max_payload) {
  Frame f;
  read_frame(ch, f, max_payload);
  return f;
}

void expect_frame(ShardChannel& ch, Frame& into, FrameKind kind,
                  std::uint32_t shard, std::uint64_t sequence,
                  std::uint64_t max_payload) {
  read_frame(ch, into, max_payload);
  if (into.kind != kind || into.shard != shard ||
      into.sequence != sequence) {
    throw TransportError(
        TransportError::Kind::kUnexpected,
        "shard transport: unexpected frame (kind " +
            std::to_string(static_cast<int>(into.kind)) + ", shard " +
            std::to_string(into.shard) + ", seq " +
            std::to_string(into.sequence) + ") while expecting (kind " +
            std::to_string(static_cast<int>(kind)) + ", shard " +
            std::to_string(shard) + ", seq " + std::to_string(sequence) +
            ") — reordered or misrouted");
  }
}

Frame expect_frame(ShardChannel& ch, FrameKind kind, std::uint32_t shard,
                   std::uint64_t sequence, std::uint64_t max_payload) {
  Frame f;
  expect_frame(ch, f, kind, shard, sequence, max_payload);
  return f;
}

}  // namespace mrlr::exec
