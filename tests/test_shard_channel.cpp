// Tests for the connect/accept/handshake layer (exec/shard_channel):
// the shared EINTR/partial-write io helpers, endpoint parsing, TCP
// listen/connect with a bounded typed timeout, and the 24-byte job
// handshake — version mismatches, duplicate shard registrations, and
// crossed connections must all refuse with the precise TransportError,
// never hang and never half-accept — and the job bootstrap that follows
// the handshake, whose shard table must describe one contiguous
// partition of the job's machines.

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "mrlr/exec/shard_channel.hpp"
#include "mrlr/exec/shard_transport.hpp"
#include "mrlr/exec/shard_worker.hpp"

namespace mrlr::exec {
namespace {

// ------------------------------------------------------ io helpers --

// Injection state for the choppy io functions. IoWriteFn/IoReadFn are
// captureless function pointers, so the knobs are file-scope.
int g_io_calls = 0;

/// Writes at most 3 bytes per call and fails every other call with
/// EINTR — the worst-behaved POSIX stream short of an actual error.
::ssize_t choppy_write(int fd, const void* buf, std::size_t n) {
  if (++g_io_calls % 2 == 1) {
    errno = EINTR;
    return -1;
  }
  return ::write(fd, buf, std::min<std::size_t>(n, 3));
}

/// Reads at most 2 bytes per call, failing every third call with EINTR.
::ssize_t choppy_read(int fd, void* buf, std::size_t n) {
  if (++g_io_calls % 3 == 1) {
    errno = EINTR;
    return -1;
  }
  return ::read(fd, buf, std::min<std::size_t>(n, 2));
}

TEST(IoHelpers, WriteAllSurvivesShortWritesAndEintr) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::vector<std::byte> payload(257);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 31 + 5);
  }
  g_io_calls = 0;
  io_write_all(fds[1], payload.data(), payload.size(), &choppy_write,
               "test");
  // 3 bytes per successful call, and half the calls fail with EINTR:
  // the helper must have retried both conditions many times over.
  EXPECT_GE(g_io_calls, 2 * 257 / 3);
  std::vector<std::byte> got(payload.size());
  std::size_t at = 0;
  while (at < got.size()) {
    const ::ssize_t r = ::read(fds[0], got.data() + at, got.size() - at);
    ASSERT_GT(r, 0);
    at += static_cast<std::size_t>(r);
  }
  EXPECT_EQ(got, payload);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(IoHelpers, ReadSomeRetriesEintrAndReturnsPartial) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const char msg[] = "abcdefgh";
  ASSERT_EQ(::write(fds[1], msg, 8), 8);
  std::byte buf[8];
  g_io_calls = 0;
  std::size_t total = 0;
  while (total < 8) {
    // Short reads are the caller's problem (that is read_exact's job);
    // io_read_some just may not spuriously fail or lose bytes.
    total += io_read_some(fds[0], buf + total, 8 - total, &choppy_read,
                          "test");
  }
  EXPECT_EQ(std::memcmp(buf, msg, 8), 0);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(IoHelpers, ReadAfterPeerCloseReturnsZeroNotError) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[1]);
  std::byte buf[4];
  const IoReadFn plain = [](int fd, void* b, std::size_t n) {
    return ::read(fd, b, n);
  };
  EXPECT_EQ(io_read_some(fds[0], buf, 4, plain, "test"), 0u);
  ::close(fds[0]);
}

// -------------------------------------------------------- endpoints --

TEST(ParseEndpoints, AcceptsHostPortListsAndBarePorts) {
  const auto eps = parse_endpoints("10.0.0.7:7001,127.0.0.1:7002,7003");
  ASSERT_EQ(eps.size(), 3u);
  EXPECT_EQ(eps[0].host, "10.0.0.7");
  EXPECT_EQ(eps[0].port, 7001);
  EXPECT_EQ(eps[1].str(), "127.0.0.1:7002");
  // A bare port means loopback.
  EXPECT_EQ(eps[2].host, "127.0.0.1");
  EXPECT_EQ(eps[2].port, 7003);
}

TEST(ParseEndpoints, RejectsMalformedEntries) {
  EXPECT_THROW(parse_endpoints(""), std::invalid_argument);
  EXPECT_THROW(parse_endpoints("a:1,,b:2"), std::invalid_argument);
  EXPECT_THROW(parse_endpoints("host:"), std::invalid_argument);
  EXPECT_THROW(parse_endpoints(":7001"), std::invalid_argument);
  EXPECT_THROW(parse_endpoints("host:notaport"), std::invalid_argument);
  EXPECT_THROW(parse_endpoints("host:0"), std::invalid_argument);
  EXPECT_THROW(parse_endpoints("host:70000"), std::invalid_argument);
  EXPECT_THROW(parse_endpoints("host:7001junk"), std::invalid_argument);
}

// -------------------------------------------------------------- tcp --

TEST(Tcp, ListenConnectRoundTripsFrames) {
  TcpListener listener("127.0.0.1", 0);
  ASSERT_GT(listener.port(), 0);
  std::thread server([&] {
    TcpChannel ch = listener.accept_channel();
    const Frame f = expect_frame(ch, FrameKind::kShardData, 1, 4);
    write_frame(ch, FrameKind::kShardStatus, 1, 4, f.payload);
  });
  TcpChannel client = tcp_connect({"127.0.0.1", listener.port()},
                                  std::chrono::milliseconds(2000));
  std::vector<std::byte> payload(100000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 7);
  }
  write_frame(client, FrameKind::kShardData, 1, 4, payload);
  const Frame echo = expect_frame(client, FrameKind::kShardStatus, 1, 4);
  EXPECT_EQ(echo.payload, payload);
  server.join();
}

/// A TCP socket bound to an ephemeral loopback port that never listens:
/// the kernel refuses connections to the port, and no other socket can
/// take the port while this one holds it.
struct BoundNotListening {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ~BoundNotListening() {
    if (fd >= 0) ::close(fd);
  }

  /// Binds to 127.0.0.1:0; returns the port, or 0 on failure.
  std::uint16_t bind_ephemeral() const {
    ::sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ::socklen_t len = sizeof(addr);
    if (fd < 0 ||
        ::bind(fd, reinterpret_cast<const ::sockaddr*>(&addr), len) != 0 ||
        ::getsockname(fd, reinterpret_cast<::sockaddr*>(&addr), &len) != 0) {
      return 0;
    }
    return ntohs(addr.sin_port);
  }
};

TEST(Tcp, ConnectToClosedPortFailsTypedWithinTimeout) {
  // A port held by a bound socket that never listens refuses every
  // connection for the whole test (a port closed before connecting could
  // be taken by a test running in parallel); the connector's
  // refused-connection backoff must give up at the deadline with a typed
  // error naming the endpoint, never hang.
  const BoundNotListening holder;
  const std::uint16_t port = holder.bind_ephemeral();
  ASSERT_NE(port, 0) << std::strerror(errno);
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)tcp_connect({"127.0.0.1", port},
                      std::chrono::milliseconds(250));
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kIo);
    const std::string what = e.what();
    EXPECT_NE(what.find("timed out"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(port)), std::string::npos) << what;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(Tcp, ReadTimeoutSurfacesAsTypedError) {
  TcpListener listener("127.0.0.1", 0);
  std::thread server([&] {
    TcpChannel ch = listener.accept_channel();
    // Accept, then say nothing: the peer's armed read timeout must
    // fire (a silent worker must not hang the coordinator).
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  });
  TcpChannel client = tcp_connect({"127.0.0.1", listener.port()},
                                  std::chrono::milliseconds(2000));
  client.set_read_timeout(std::chrono::milliseconds(100));
  std::byte buf[8];
  try {
    (void)client.read_some(buf, 8);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kIo);
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos);
  }
  server.join();
}

// -------------------------------------------------------- handshake --

void put_u16(std::byte* p, std::uint16_t v) { std::memcpy(p, &v, 2); }
void put_u32(std::byte* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put_u64(std::byte* p, std::uint64_t v) { std::memcpy(p, &v, 8); }

/// The 24-byte hello as an arbitrary (possibly stale) peer would send
/// it — lets tests forge protocol versions this build does not speak.
std::vector<std::byte> forge_hello(std::uint16_t version,
                                   std::uint32_t shard,
                                   std::uint64_t nonce) {
  std::vector<std::byte> hello(24);
  put_u32(hello.data() + 0, kHelloMagic);
  put_u16(hello.data() + 4, version);
  put_u16(hello.data() + 6, 0);
  put_u32(hello.data() + 8, shard);
  put_u32(hello.data() + 12, 0);
  put_u64(hello.data() + 16, nonce);
  return hello;
}

TEST(Handshake, RoundTripAcceptsAndEchoes) {
  auto [a, b] = make_socketpair_channel();
  std::thread acceptor([&] {
    const HandshakeHello h = handshake_accept(
        b, [](const HandshakeHello&) { return HandshakeStatus::kOk; });
    EXPECT_EQ(h.version, kFrameVersion);
    EXPECT_EQ(h.shard, 3u);
    EXPECT_EQ(h.nonce, 0xDEADBEEFull);
  });
  handshake_connect(a, 3, 0xDEADBEEFull);  // throws on any refusal
  acceptor.join();
}

TEST(Handshake, OldVersionHelloRefusedNamingBothVersions) {
  // Regression pin for the version bump: a peer still speaking frame
  // protocol version 6 (a writer-open word in every kShardData
  // accounting record) must be refused by a version-7 build at the
  // handshake, with both numbers in the error on BOTH sides of the
  // wire, instead of misreading every data frame.
  static_assert(kFrameVersion == 7,
                "update the forged version below when bumping again");
  auto [a, b] = make_socketpair_channel();
  const auto hello = forge_hello(/*version=*/6, /*shard=*/2, /*nonce=*/7);
  a.write_all(hello.data(), hello.size());
  try {
    (void)handshake_accept(b, nullptr);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kBadVersion);
    const std::string what = e.what();
    EXPECT_NE(what.find("version 6"), std::string::npos) << what;
    EXPECT_NE(what.find("version 7"), std::string::npos) << what;
  }
  // The refusal ack reaches the stale connector before the drop: its
  // status decodes as a version mismatch and names the responder's
  // version, so even the old build can print a useful error.
  std::byte ack[24];
  std::size_t at = 0;
  while (at < 24) {
    const std::size_t r = a.read_some(ack + at, 24 - at);
    ASSERT_GT(r, 0u);
    at += r;
  }
  std::uint16_t acked_version = 0;
  std::uint16_t status = 0;
  std::memcpy(&acked_version, ack + 4, 2);
  std::memcpy(&status, ack + 6, 2);
  EXPECT_EQ(acked_version, 7);
  EXPECT_EQ(status,
            static_cast<std::uint16_t>(HandshakeStatus::kVersionMismatch));
}

TEST(Handshake, ConnectorReportsVersionRefusalNamingBothVersions) {
  auto [a, b] = make_socketpair_channel();
  // Forge the responder: an old build acking kVersionMismatch with its
  // own version 4.
  std::thread responder([&] {
    std::byte hello[24];
    std::size_t at = 0;
    while (at < 24) {
      const std::size_t r = b.read_some(hello + at, 24 - at);
      ASSERT_GT(r, 0u);
      at += r;
    }
    std::vector<std::byte> ack(24);
    put_u32(ack.data() + 0, kAckMagic);
    put_u16(ack.data() + 4, /*version=*/4);
    put_u16(ack.data() + 6,
            static_cast<std::uint16_t>(HandshakeStatus::kVersionMismatch));
    put_u32(ack.data() + 8, 5);
    put_u32(ack.data() + 12, 0);
    put_u64(ack.data() + 16, 99);
    b.write_all(ack.data(), ack.size());
  });
  try {
    handshake_connect(a, 5, 99);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kBadVersion);
    const std::string what = e.what();
    EXPECT_NE(what.find("version 4"), std::string::npos) << what;
    EXPECT_NE(what.find("version 7"), std::string::npos) << what;
  }
  responder.join();
}

TEST(Handshake, RefusesUnknownAckStatusAndReservedBits) {
  // Forged acks with the right magic, shard, nonce and version: one
  // carries a status no build defines, one sets reserved bits. Neither
  // may pass for an accepted handshake.
  struct ForgedAck {
    std::uint16_t status;
    std::uint32_t reserved;
    const char* needle;
  };
  for (const ForgedAck forged : {ForgedAck{9, 0, "unknown status 9"},
                                 ForgedAck{0, 1, "reserved ack bits"}}) {
    auto [a, b] = make_socketpair_channel();
    std::thread responder([&] {
      std::byte hello[24];
      std::size_t at = 0;
      while (at < 24) {
        const std::size_t r = b.read_some(hello + at, 24 - at);
        ASSERT_GT(r, 0u);
        at += r;
      }
      std::vector<std::byte> ack(24);
      put_u32(ack.data() + 0, kAckMagic);
      put_u16(ack.data() + 4, kFrameVersion);
      put_u16(ack.data() + 6, forged.status);
      put_u32(ack.data() + 8, 5);
      put_u32(ack.data() + 12, forged.reserved);
      put_u64(ack.data() + 16, 99);
      b.write_all(ack.data(), ack.size());
    });
    try {
      handshake_connect(a, 5, 99);
      ADD_FAILURE() << "accepted an ack that should fail on "
                    << forged.needle;
    } catch (const TransportError& e) {
      EXPECT_EQ(e.kind, TransportError::Kind::kBadPayload);
      EXPECT_NE(std::string(e.what()).find(forged.needle), std::string::npos)
          << e.what();
    }
    responder.join();
  }

  // The acceptor refuses a hello with reserved bits set, before any ack.
  auto [a, b] = make_socketpair_channel();
  auto hello = forge_hello(kFrameVersion, /*shard=*/2, /*nonce=*/7);
  put_u16(hello.data() + 6, 1);
  a.write_all(hello.data(), hello.size());
  try {
    (void)handshake_accept(b, nullptr);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kBadPayload);
    EXPECT_NE(std::string(e.what()).find("reserved hello bits"),
              std::string::npos)
        << e.what();
  }
}

TEST(Handshake, DuplicateShardVetRefusesBothSides) {
  auto [a, b] = make_socketpair_channel();
  std::thread acceptor([&] {
    try {
      (void)handshake_accept(b, [](const HandshakeHello&) {
        return HandshakeStatus::kDuplicateShard;
      });
      FAIL() << "expected TransportError";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.kind, TransportError::Kind::kUnexpected);
      EXPECT_NE(std::string(e.what()).find("already registered"),
                std::string::npos);
    }
  });
  try {
    handshake_connect(a, 4, 11);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kUnexpected);
    EXPECT_NE(std::string(e.what()).find("already registered"),
              std::string::npos);
  }
  acceptor.join();
}

TEST(Handshake, GarbageHelloIsBadMagic) {
  auto [a, b] = make_socketpair_channel();
  const std::vector<std::byte> garbage(24, std::byte{0x5A});
  a.write_all(garbage.data(), garbage.size());
  try {
    (void)handshake_accept(b, nullptr);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kBadMagic);
  }
}

TEST(Handshake, PeerDeathBeforeAckIsTyped) {
  auto [a, b] = make_socketpair_channel();
  b.close_now();  // worker died between launch and handshake
  try {
    handshake_connect(a, 1, 1);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    // EPIPE on the hello write (kIo) or EOF on the ack read
    // (kTruncated), depending on where the race lands — both are typed,
    // and neither is a SIGPIPE kill or a hang.
    EXPECT_TRUE(e.kind == TransportError::Kind::kIo ||
                e.kind == TransportError::Kind::kTruncated)
        << e.what();
  }
}

TEST(Handshake, CrossedAckIsUnexpected) {
  auto [a, b] = make_socketpair_channel();
  std::thread responder([&] {
    std::byte hello[24];
    std::size_t at = 0;
    while (at < 24) {
      const std::size_t r = b.read_some(hello + at, 24 - at);
      ASSERT_GT(r, 0u);
      at += r;
    }
    // Ok ack, but echoing a different shard — two coordinators whose
    // connections crossed must not silently adopt each other's workers.
    std::vector<std::byte> ack(24);
    put_u32(ack.data() + 0, kAckMagic);
    put_u16(ack.data() + 4, kFrameVersion);
    put_u16(ack.data() + 6,
            static_cast<std::uint16_t>(HandshakeStatus::kOk));
    put_u32(ack.data() + 8, 9);
    put_u32(ack.data() + 12, 0);
    put_u64(ack.data() + 16, 42);
    b.write_all(ack.data(), ack.size());
  });
  try {
    handshake_connect(a, 4, 42);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kUnexpected);
  }
  responder.join();
}

// ------------------------------------------------------ job bootstrap --

/// A valid bootstrap for shard 1 of a 3-shard, 10-machine job.
JobBootstrap sample_bootstrap() {
  JobBootstrap b;
  b.first = 4;
  b.last = 7;
  b.machines = 10;
  b.shard_ranges = {{0, 4}, {4, 7}, {7, 10}};
  b.nonce = 77;
  b.round_labels = {"a", "b"};
  return b;
}

void expect_bootstrap_refused(const JobBootstrap& b,
                              const std::string& needle) {
  try {
    (void)decode_bootstrap(encode_bootstrap(b));
    FAIL() << "accepted a bootstrap that should fail on " << needle;
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kBadPayload) << e.what();
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(JobBootstrap, ShardTableRoundTrips) {
  const JobBootstrap b = sample_bootstrap();
  const JobBootstrap d = decode_bootstrap(encode_bootstrap(b));
  EXPECT_EQ(d.first, 4u);
  EXPECT_EQ(d.last, 7u);
  EXPECT_EQ(d.machines, 10u);
  EXPECT_EQ(d.shard_ranges, b.shard_ranges);
  EXPECT_EQ(d.round_labels, b.round_labels);
}

TEST(JobBootstrap, RefusesShardTablesThatAreNotOnePartition) {
  JobBootstrap gap = sample_bootstrap();
  gap.shard_ranges = {{0, 4}, {5, 7}, {7, 10}};
  expect_bootstrap_refused(gap, "shard 1 range [5, 7) is empty or not "
                                "contiguous with the previous shard's end 4");
  JobBootstrap overlap = sample_bootstrap();
  overlap.shard_ranges = {{0, 5}, {4, 7}, {7, 10}};
  expect_bootstrap_refused(overlap, "not contiguous");
  JobBootstrap late = sample_bootstrap();
  late.shard_ranges = {{1, 4}, {4, 7}, {7, 10}};
  expect_bootstrap_refused(late, "shard 0 range [1, 4)");
  JobBootstrap empty = sample_bootstrap();
  empty.shard_ranges = {{0, 4}, {4, 7}, {7, 7}, {7, 10}};
  expect_bootstrap_refused(empty, "shard 2 range [7, 7) is empty");
  JobBootstrap short_cover = sample_bootstrap();
  short_cover.shard_ranges = {{0, 4}, {4, 7}, {7, 9}};
  expect_bootstrap_refused(short_cover,
                           "shard ranges cover [0, 9), the job has 10");
  JobBootstrap long_cover = sample_bootstrap();
  long_cover.shard_ranges = {{0, 4}, {4, 7}, {7, 12}};
  expect_bootstrap_refused(long_cover, "cover [0, 12)");
  JobBootstrap own = sample_bootstrap();
  own.last = 6;
  expect_bootstrap_refused(own,
                           "own range [4, 6) is not one of the shard ranges");
  JobBootstrap single = sample_bootstrap();
  single.first = 0;
  single.last = 10;
  single.shard_ranges = {{0, 10}};
  expect_bootstrap_refused(single, "shard count 1");
  JobBootstrap flags = sample_bootstrap();
  flags.flags |= 1ull << 10;
  expect_bootstrap_refused(flags, "unknown flag bits 0x400");
  for (const std::uint64_t count : {0ull, 1025ull}) {
    JobBootstrap threads = sample_bootstrap();
    threads.threads = count;
    expect_bootstrap_refused(threads, "thread count " + std::to_string(count) +
                                          " is outside [1, 1024]");
  }
}

TEST(JobBootstrap, RefusesTruncatedShardTable) {
  std::vector<std::byte> bytes = encode_bootstrap(sample_bootstrap());
  // The shard count sits after six u64 fields; a count no payload can
  // carry fails before any range is read.
  put_u64(bytes.data() + 48, 1ull << 40);
  try {
    (void)decode_bootstrap(bytes);
    FAIL() << "accepted an oversized shard count";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kBadPayload);
    EXPECT_NE(std::string(e.what()).find("exceeds the remaining payload"),
              std::string::npos)
        << e.what();
  }
}

/// The smallest job plane validate_bootstrap can check against: two
/// rounds, "a" and "b"; the data plane is never used.
class StubPlane final : public ShardJobPlane {
 public:
  void set_shards(std::span<const std::uint64_t>, std::uint32_t) override {}
  void serialize_round_input(
      std::uint32_t, std::vector<std::byte>&,
      std::vector<std::span<const std::byte>>&) override {}
  std::uint64_t peer_generation(
      std::span<const std::byte>) const override {
    return 0;
  }
  void apply_round_input(std::span<const std::byte>,
                         const PeerBucketFn&) override {}
  void serialize_machines(std::vector<std::vector<std::byte>>&) override {}
  void route_local_sends() override {}
  void apply_machines(std::uint32_t, std::span<const std::byte>) override {}
  void run_registered(std::uint64_t, std::uint64_t,
                      std::span<const std::uint64_t>) override {}
  std::uint64_t registered_rounds() const override { return 2; }
  std::string_view round_label(std::uint64_t i) const override {
    return i == 0 ? "a" : "b";
  }
};

TEST(JobBootstrap, WorkerChecksItsShardTableEntry) {
  const JobBootstrap b = sample_bootstrap();
  const StubPlane plane;
  EXPECT_NO_THROW(validate_bootstrap(b, plane, 10, /*shard=*/1));
  for (const std::uint32_t shard : {0u, 2u, 3u}) {
    try {
      validate_bootstrap(b, plane, 10, shard);
      FAIL() << "shard " << shard << " accepted shard 1's range";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.kind, TransportError::Kind::kUnexpected);
      EXPECT_NE(std::string(e.what()).find("shard-table entry"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace mrlr::exec
