// Adversarial tests for the shard transport (exec/shard_transport.hpp):
// frame round-trips over real socketpairs, and the typed TransportError
// taxonomy on truncated, corrupt, reordered, oversized, and misrouted
// frames — a bad peer must fail loudly with the precise kind, never
// deadlock or silently merge.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "mrlr/exec/frame_pump.hpp"
#include "mrlr/exec/shard_transport.hpp"

namespace mrlr::exec {
namespace {

std::vector<std::byte> bytes_of(std::initializer_list<unsigned> vals) {
  std::vector<std::byte> out;
  for (const unsigned v : vals) out.push_back(static_cast<std::byte>(v));
  return out;
}

/// In-memory loopback channel: writes append to a buffer, reads drain
/// it. Lets tests hand-craft corrupt byte streams without an OS pipe.
class MemChannel final : public ShardChannel {
 public:
  void write_all(const std::byte* data, std::size_t n) override {
    buf_.insert(buf_.end(), data, data + n);
  }
  std::size_t read_some(std::byte* data, std::size_t n) override {
    const std::size_t take = std::min(n, buf_.size() - pos_);
    std::memcpy(data, buf_.data() + pos_, take);
    pos_ += take;
    return take;
  }

  std::vector<std::byte>& buffer() { return buf_; }
  void truncate_to(std::size_t n) { buf_.resize(n); }

 private:
  std::vector<std::byte> buf_;
  std::size_t pos_ = 0;
};

TEST(FrameChecksum, SensitiveToEveryByteAndLength) {
  const auto a = bytes_of({1, 2, 3, 4, 5, 6, 7, 8, 9});
  auto b = a;
  b[8] = std::byte{10};
  EXPECT_NE(frame_checksum(a), frame_checksum(b));
  // Length matters even when the content prefix matches (zero padding
  // must not alias a shorter payload).
  const auto c = bytes_of({1, 2, 3, 4, 5, 6, 7, 8});
  const auto d = bytes_of({1, 2, 3, 4, 5, 6, 7, 8, 0});
  EXPECT_NE(frame_checksum(c), frame_checksum(d));
  EXPECT_EQ(frame_checksum(a), frame_checksum(a));
}

/// 59 bytes: one 32-byte block (lanes 0-3), three more whole words
/// (lanes 0-2) and a 3-byte tail (lane 0).
std::vector<std::byte> kat_payload() {
  std::vector<std::byte> out(59);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>(i * 13 + 7);
  }
  return out;
}

TEST(FrameChecksum, KnownAnswers) {
  // Pinned values of the version-3 construction (four interleaved mix64
  // chains); a change here is a wire-format change and needs a
  // kFrameVersion bump.
  EXPECT_EQ(frame_checksum(kat_payload()), 0x238a36a445c49863ull);
  EXPECT_EQ(frame_checksum({}), 0x7fa98b663a499de1ull);
  EXPECT_EQ(frame_checksum(bytes_of({1, 2, 3, 4, 5, 6, 7, 8, 9})),
            0x951431dd87806a01ull);
}

TEST(FrameChecksum, EveryLaneTailOrderAndLengthMatter) {
  const std::vector<std::byte> base = kat_payload();
  const std::uint64_t want = frame_checksum(base);
  // A bit flip in each of the four lanes of the first block, in a
  // later word, and in the sub-8-byte tail.
  for (const std::size_t at : {0u, 9u, 18u, 27u, 40u, 57u}) {
    auto v = base;
    v[at] ^= std::byte{0x01};
    EXPECT_NE(frame_checksum(v), want) << "bit flip at byte " << at;
  }
  // Swapping two adjacent 8-byte words (lanes 0 and 1, then 3 and the
  // next block's lane 0).
  for (const std::size_t word : {0u, 3u}) {
    auto v = base;
    std::swap_ranges(v.begin() + word * 8, v.begin() + word * 8 + 8,
                     v.begin() + word * 8 + 8);
    EXPECT_NE(frame_checksum(v), want) << "swapped words " << word;
  }
  // Appending a zero byte (the tail is zero-padded, so only the length
  // tells these apart).
  auto longer = base;
  longer.push_back(std::byte{0});
  EXPECT_NE(frame_checksum(longer), want);
}

TEST(FrameRoundTrip, EmptySmallAndLargePayloads) {
  for (const std::size_t size : {0u, 1u, 7u, 8u, 9u, 100000u}) {
    MemChannel ch;
    std::vector<std::byte> payload(size);
    for (std::size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<std::byte>(i * 13 + 7);
    }
    write_frame(ch, FrameKind::kShardData, 3, 42, payload);
    const Frame f = read_frame(ch);
    EXPECT_EQ(f.kind, FrameKind::kShardData);
    EXPECT_EQ(f.shard, 3u);
    EXPECT_EQ(f.sequence, 42u);
    EXPECT_EQ(f.payload, payload);
  }
}

std::vector<std::byte> patterned(std::size_t size, unsigned salt) {
  std::vector<std::byte> out(size);
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = static_cast<std::byte>(i * 31 + salt);
  }
  return out;
}

TEST(FrameRoundTrip, ReusedFrameShrinksExactly) {
  // One caller-owned Frame read into again and again, shrinking each
  // time: every payload and header field must be exactly the new
  // frame's, never the old frame's tail.
  MemChannel ch;
  const auto big = patterned(100000, 1);
  const auto small = patterned(9, 2);
  write_frame(ch, FrameKind::kShardData, 1, 10, big);
  write_frame(ch, FrameKind::kShardStatus, 2, 11, small);
  write_frame(ch, FrameKind::kShardTelemetry, 3, 12, {});
  Frame f;
  read_frame(ch, f);
  EXPECT_EQ(f.kind, FrameKind::kShardData);
  EXPECT_EQ(f.shard, 1u);
  EXPECT_EQ(f.sequence, 10u);
  EXPECT_EQ(f.payload, big);
  expect_frame(ch, f, FrameKind::kShardStatus, 2, 11);
  EXPECT_EQ(f.payload, small);
  read_frame(ch, f);
  EXPECT_EQ(f.kind, FrameKind::kShardTelemetry);
  EXPECT_EQ(f.sequence, 12u);
  EXPECT_TRUE(f.payload.empty());
  // The buffer kept the largest frame's capacity.
  EXPECT_GE(f.payload.capacity(), big.size());
}

TEST(FrameRoundTrip, PartsWriteExactlyTheirConcatenation) {
  // A frame written from pieces is byte for byte the frame of the
  // concatenated payload, however the pieces split the checksum's
  // 32-byte blocks — empty pieces included.
  const auto payload = patterned(101, 4);
  MemChannel whole;
  write_frame(whole, FrameKind::kRoundControl, 2, 5, payload);
  const std::span<const std::byte> all = payload;
  for (std::size_t a = 0; a <= payload.size(); ++a) {
    for (const std::size_t b : {a, std::min(a + 1, payload.size()),
                                std::min(a + 37, payload.size()),
                                payload.size()}) {
      const std::span<const std::byte> parts[] = {
          all.first(a), all.subspan(a, b - a), all.subspan(b)};
      MemChannel pieces;
      write_frame_parts(pieces, FrameKind::kRoundControl, 2, 5, parts);
      ASSERT_EQ(pieces.buffer(), whole.buffer())
          << "split at " << a << " and " << b;
    }
  }
  MemChannel none;
  write_frame_parts(none, FrameKind::kShardStatus, 1, 1, {});
  EXPECT_EQ(read_frame(none).payload.size(), 0u);
}

TEST(FrameRead, CorruptFrameAfterALargerOneStillFailsChecksum) {
  // The corrupt frame is shorter than the one read before it, so the
  // reused buffer held stale bytes past its end; only its own bytes may
  // enter the check.
  MemChannel ch;
  const auto big = patterned(4096, 3);
  const std::vector<std::byte> prefix(big.begin(), big.begin() + 100);
  write_frame(ch, FrameKind::kShardData, 0, 1, big);
  const std::size_t second = ch.buffer().size();
  write_frame(ch, FrameKind::kShardData, 0, 2, prefix);
  ch.buffer()[second + 40 + 50] ^= std::byte{0x10};
  Frame f;
  read_frame(ch, f);
  ASSERT_EQ(f.payload, big);
  try {
    read_frame(ch, f);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kBadChecksum);
  }
}

TEST(FrameRoundTrip, OverARealSocketpair) {
  auto [parent, child] = make_socketpair_channel();
  std::vector<std::byte> payload(1 << 20);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i);
  }
  // A megabyte exceeds the socket buffer, so writer and reader must
  // overlap: ship from a thread like a worker process would.
  std::thread writer([&] {
    write_frame(child, FrameKind::kShardStatus, 1, 9, payload);
  });
  const Frame f = expect_frame(parent, FrameKind::kShardStatus, 1, 9);
  writer.join();
  EXPECT_EQ(f.payload, payload);
}

TEST(FrameRead, TruncatedHeaderAndPayloadAreTyped) {
  // Stream ends inside the header.
  {
    MemChannel ch;
    write_frame(ch, FrameKind::kShardData, 0, 1, bytes_of({1, 2, 3}));
    ch.truncate_to(10);
    try {
      (void)read_frame(ch);
      FAIL() << "expected TransportError";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.kind, TransportError::Kind::kTruncated);
      EXPECT_NE(std::string(e.what()).find("header"), std::string::npos);
    }
  }
  // Stream ends inside the payload (peer death mid-round looks exactly
  // like this).
  {
    MemChannel ch;
    write_frame(ch, FrameKind::kShardData, 0, 1,
                std::vector<std::byte>(64));
    ch.truncate_to(40 + 10);
    try {
      (void)read_frame(ch);
      FAIL() << "expected TransportError";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.kind, TransportError::Kind::kTruncated);
      EXPECT_NE(std::string(e.what()).find("payload"), std::string::npos);
    }
  }
}

TEST(FrameRead, CorruptionIsTyped) {
  const auto corrupt_at = [](std::size_t offset, auto check) {
    MemChannel ch;
    write_frame(ch, FrameKind::kShardData, 2, 7, bytes_of({9, 9, 9, 9}));
    ch.buffer()[offset] ^= std::byte{0x40};
    try {
      (void)read_frame(ch);
      FAIL() << "expected TransportError at offset " << offset;
    } catch (const TransportError& e) {
      check(e);
    }
  };
  // Magic (offset 0), version (offset 4), checksum field (offset 32),
  // payload byte (offset 40).
  corrupt_at(0, [](const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kBadMagic);
  });
  corrupt_at(4, [](const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kBadVersion);
  });
  corrupt_at(32, [](const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kBadChecksum);
  });
  corrupt_at(40, [](const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kBadChecksum);
  });
}

TEST(FrameRead, UnknownKindAndReservedBitsRejected) {
  {
    MemChannel ch;
    write_frame(ch, FrameKind::kShardData, 0, 0, {});
    ch.buffer()[6] = std::byte{0x7F};  // kind -> unknown
    EXPECT_THROW((void)read_frame(ch), TransportError);
  }
  {
    MemChannel ch;
    write_frame(ch, FrameKind::kShardData, 0, 0, {});
    ch.buffer()[12] = std::byte{1};  // reserved must be zero
    EXPECT_THROW((void)read_frame(ch), TransportError);
  }
}

TEST(FrameRead, UnknownKindFailsTypedBeforePayloadIsTrusted) {
  // A frame kind one past the known set (a newer peer, or corruption
  // that lands in the kind field) must fail with a typed error while
  // still reading the header — never hang waiting for payload bytes it
  // cannot interpret, and never surface the payload to the caller.
  MemChannel ch;
  write_frame(ch, FrameKind::kShardData, 0, 3, bytes_of({1, 2, 3, 4}));
  ch.buffer()[6] = std::byte{kMaxFrameKind + 1};  // one past the known set
  try {
    (void)read_frame(ch);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kBadMagic);
    EXPECT_NE(std::string(e.what()).find("kind"), std::string::npos);
  }
}

TEST(FrameRoundTrip, TelemetryFramesShipLikeDataFrames) {
  // The telemetry frame kind added for cross-process span shipping
  // rides the same checksummed protocol as the data plane.
  MemChannel ch;
  const auto payload = bytes_of({8, 6, 7, 5, 3, 0, 9});
  write_frame(ch, FrameKind::kShardTelemetry, 2, 11, payload);
  const Frame f = expect_frame(ch, FrameKind::kShardTelemetry, 2, 11);
  EXPECT_EQ(f.kind, FrameKind::kShardTelemetry);
  EXPECT_EQ(f.shard, 2u);
  EXPECT_EQ(f.sequence, 11u);
  EXPECT_EQ(f.payload, payload);
}

TEST(FrameRead, TelemetryFrameWhereDataExpectedIsUnexpected) {
  // Protocol-position validation covers the new kind: a telemetry
  // frame arriving where the coordinator expects shard data is a typed
  // kUnexpected, not a hang or a misinterpreted merge.
  MemChannel ch;
  write_frame(ch, FrameKind::kShardTelemetry, 1, 5, {});
  try {
    (void)expect_frame(ch, FrameKind::kShardData, 1, 5);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kUnexpected);
  }
}

TEST(FrameRead, OversizedLengthRejectedBeforeAllocation) {
  MemChannel ch;
  write_frame(ch, FrameKind::kShardData, 0, 0, bytes_of({1}));
  // Rewrite payload_len (offset 24) to an absurd value; the reader must
  // throw kBadLength without trying to allocate it.
  const std::uint64_t huge = ~std::uint64_t{0} / 2;
  std::memcpy(ch.buffer().data() + 24, &huge, 8);
  try {
    (void)read_frame(ch);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kBadLength);
  }
  // And a tight caller-provided cap also applies.
  MemChannel ch2;
  write_frame(ch2, FrameKind::kShardData, 0, 0,
              std::vector<std::byte>(128));
  try {
    (void)read_frame(ch2, /*max_payload=*/64);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kBadLength);
  }
}

TEST(FrameRead, ReorderedAndMisroutedFramesAreTyped) {
  // A status frame arriving where data is expected (worker protocol
  // violation / reordering).
  {
    MemChannel ch;
    write_frame(ch, FrameKind::kShardStatus, 1, 5, {});
    try {
      (void)expect_frame(ch, FrameKind::kShardData, 1, 5);
      FAIL() << "expected TransportError";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.kind, TransportError::Kind::kUnexpected);
    }
  }
  // Wrong shard (misrouted) and stale sequence (replayed round).
  {
    MemChannel ch;
    write_frame(ch, FrameKind::kShardData, 2, 5, {});
    EXPECT_THROW((void)expect_frame(ch, FrameKind::kShardData, 1, 5),
                 TransportError);
  }
  {
    MemChannel ch;
    write_frame(ch, FrameKind::kShardData, 1, 4, {});
    try {
      (void)expect_frame(ch, FrameKind::kShardData, 1, 5);
      FAIL() << "expected TransportError";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.kind, TransportError::Kind::kUnexpected);
      EXPECT_NE(std::string(e.what()).find("reordered"),
                std::string::npos);
    }
  }
}

TEST(FdChannel, PeerCloseReadsAsTruncation) {
  auto [parent, child] = make_socketpair_channel();
  child.close_now();  // worker died before shipping anything
  try {
    (void)read_frame(parent);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kTruncated);
  }
}

TEST(FramePump, EndOfStreamFailsOnlyAWaitingCaller) {
  // A peer may close right after the frame that ends its part (a
  // teardown): the pump delivers the frame and returns. Only a caller
  // still waiting on the closed channel fails, typed, naming the peer.
  auto [a, b] = make_socketpair_channel();
  const std::vector<std::byte> payload(100, std::byte{7});
  write_frame(a, FrameKind::kJobTeardown, 3, 9, payload);
  a.close_now();
  int frames = 0;
  FramePump pump([&](std::size_t, Frame& f) {
    EXPECT_EQ(f.kind, FrameKind::kJobTeardown);
    EXPECT_EQ(f.payload, payload);
    ++frames;
  });
  pump.add(b, /*peer=*/3);
  EXPECT_NO_THROW(pump.run([&] { return frames == 1; }));
  try {
    pump.run([&] { return frames == 2; });
    FAIL() << "waited on a closed channel";
  } catch (const PumpError& e) {
    EXPECT_EQ(e.peer, 3u);
    EXPECT_EQ(e.kind, TransportError::Kind::kTruncated);
    EXPECT_NE(std::string(e.what()).find("closed"), std::string::npos)
        << e.what();
  }
}

TEST(FramePump, SilentWatchedPeerFailsAfterTheBound) {
  // A watched channel that sends nothing fails once the bound passes;
  // one that keeps sending heartbeats does not.
  auto [a, b] = make_socketpair_channel();
  auto [c, d] = make_socketpair_channel();
  FramePump sender([](std::size_t, Frame&) {});
  sender.add(c, 0);
  sender.heartbeat(0, /*shard=*/2, /*sequence=*/1);
  int beats = 0;
  FramePump pump([&](std::size_t, Frame& f) {
    EXPECT_EQ(f.kind, FrameKind::kHeartbeat);
    ++beats;
  });
  pump.add(b, /*peer=*/1);
  pump.add(d, /*peer=*/2);
  pump.set_silence_bound(std::chrono::milliseconds(300));
  const auto start = std::chrono::steady_clock::now();
  pump.watch(0, true);
  pump.watch(1, true);
  std::thread beating([&] {
    // Heartbeats for longer than the bound; the pump below fails on
    // the silent channel first.
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(1500);
    try {
      sender.run([&] { return std::chrono::steady_clock::now() >= until; });
    } catch (const PumpError&) {
    }
  });
  try {
    pump.run([] { return false; });
    FAIL() << "a silent watched channel did not fail";
  } catch (const PumpError& e) {
    EXPECT_EQ(e.peer, 1u);
    EXPECT_NE(std::string(e.what()).find("sent nothing for 300 ms"),
              std::string::npos)
        << e.what();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(300));
  EXPECT_LT(elapsed, std::chrono::milliseconds(1400));
  EXPECT_GE(beats, 1);
  beating.join();
  (void)a;
}

TEST(ErrorTaxonomy, DerivesFromExecError) {
  // Callers can catch the whole backend-failure family at one level.
  try {
    throw TransportError(TransportError::Kind::kBadChecksum, "x");
  } catch (const ExecError&) {
  }
  try {
    throw WorkerError(3, 17, "shard 3 died");
  } catch (const ExecError& e) {
    EXPECT_STREQ(e.what(), "shard 3 died");
  }
  try {
    throw ShardCallbackError(11, 4, "machine 11 threw");
  } catch (const ExecError&) {
  }
  const WorkerError w(3, 17, "x");
  EXPECT_EQ(w.shard, 3u);
  EXPECT_EQ(w.round, 17u);
  const ShardCallbackError c(11, 4, "y");
  EXPECT_EQ(c.machine, 11u);
  EXPECT_EQ(c.round, 4u);
}

}  // namespace
}  // namespace mrlr::exec
