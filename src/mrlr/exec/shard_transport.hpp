#pragma once
// Wire transport between the coordinator and shard worker processes of
// the process-sharded execution backend.
//
// Layers, bottom up:
//
//   * ShardChannel — an abstract ordered byte stream. The in-tree
//     implementation (FdChannel) wraps one end of a socketpair; a TCP
//     socket satisfies the same interface, which is the seam where a
//     true multi-host backend plugs in later without touching the
//     engine or the framing layer.
//
//   * Frames — every message on a channel is one length-prefixed,
//     checksummed frame:
//
//       offset  size  field
//       0       4     magic     0x3146534D ("MSF1")
//       4       2     version   7 (kFrameVersion)
//       6       2     kind      FrameKind
//       8       4     shard     sender shard index
//       12      4     reserved  must be zero
//       16      8     sequence  round sequence number
//       24      8     payload_len (bytes; capped, see kMaxFramePayload)
//       32      8     checksum  4-lane mix64 over the payload bytes
//                               (see frame_checksum)
//       40      ...   payload
//
//     Readers validate everything before trusting the payload and throw
//     a typed TransportError (same taxonomy spirit as graph::ParseError)
//     on any malformed, truncated, reordered, or corrupt frame — a bad
//     peer must fail loudly, never deadlock or silently merge.
//
// Error taxonomy (all derive from ExecError):
//   * TransportError — the byte stream or a frame on it is bad; `kind`
//     says how (truncated, bad magic/version, length cap, checksum
//     mismatch, out-of-order/unexpected frame, malformed payload, OS
//     I/O error).
//   * WorkerError — a shard worker process failed (died mid-round,
//     nonzero exit); carries the shard index and round sequence.
//   * ShardCallbackError — a machine callback threw inside a worker
//     process; carries the machine id and round sequence, message text
//     preserved from the original exception.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "mrlr/exec/wire.hpp"

namespace mrlr::exec {

/// Base class for every execution-backend failure.
class ExecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class TransportError : public ExecError {
 public:
  enum class Kind {
    kTruncated,     ///< stream ended inside a header or payload
    kBadMagic,      ///< frame does not start with the MSF1 magic
    kBadVersion,    ///< unsupported protocol version
    kBadLength,     ///< payload_len exceeds the sanity cap
    kBadChecksum,   ///< payload bytes do not match the header checksum
    kUnexpected,    ///< wrong kind / shard / sequence for this point in
                    ///< the protocol (reordered or replayed frame)
    kBadPayload,    ///< frame intact but its payload fails validation
    kIo,            ///< read/write failed at the OS level
  };

  TransportError(Kind kind, std::string what)
      : ExecError(std::move(what)), kind(kind) {}

  Kind kind;
};

class WorkerError : public ExecError {
 public:
  WorkerError(std::uint32_t shard, std::uint64_t round, std::string what)
      : ExecError(std::move(what)), shard(shard), round(round) {}

  std::uint32_t shard;
  std::uint64_t round;
};

class ShardCallbackError : public ExecError {
 public:
  ShardCallbackError(std::uint64_t machine, std::uint64_t round,
                     std::string what)
      : ExecError(std::move(what)), machine(machine), round(round) {}

  std::uint64_t machine;
  std::uint64_t round;
};

/// Abstract ordered byte stream between two transport endpoints.
class ShardChannel {
 public:
  virtual ~ShardChannel() = default;

  /// Writes all `n` bytes. Throws TransportError(kIo) on failure
  /// (including a closed peer).
  virtual void write_all(const std::byte* data, std::size_t n) = 0;

  /// Reads up to `n` bytes into `data`; returns the count actually
  /// read, 0 only at end of stream. Throws TransportError(kIo) on
  /// failure.
  virtual std::size_t read_some(std::byte* data, std::size_t n) = 0;

  /// Closes the underlying endpoint immediately (so a stuck peer sees
  /// EOF/EPIPE instead of blocking forever). Default: nothing to close.
  virtual void close_now() {}

  /// Bounds how long read_some may block (0 = wait forever, the
  /// default). Channels without timeout support ignore the call; the
  /// coordinator arms this for connect/handshake/bootstrap, where a
  /// silent peer must fail typed instead of hanging. The frame pump
  /// (frame_pump.hpp) never blocks in a read, so it is unaffected.
  virtual void set_read_timeout(std::chrono::milliseconds timeout) {
    (void)timeout;
  }

  /// The pollable socket behind the channel, or -1 when there is none.
  /// The frame pump needs one; the blocking helpers below do not.
  virtual int fd() const { return -1; }
};

/// Reads exactly n bytes or throws TransportError(kTruncated) if the
/// stream ends first; `context` names what was being read.
void read_exact(ShardChannel& ch, std::byte* data, std::size_t n,
                const char* context);

/// ShardChannel over an OS file descriptor (one end of a socketpair or
/// pipe). Owns the descriptor and closes it on destruction.
class FdChannel final : public ShardChannel {
 public:
  explicit FdChannel(int fd) : fd_(fd) {}
  ~FdChannel() override;

  FdChannel(const FdChannel&) = delete;
  FdChannel& operator=(const FdChannel&) = delete;
  FdChannel(FdChannel&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

  void write_all(const std::byte* data, std::size_t n) override;
  std::size_t read_some(std::byte* data, std::size_t n) override;
  void set_read_timeout(std::chrono::milliseconds timeout) override;

  int fd() const override { return fd_; }
  void close_now() override;

 private:
  int fd_;
};

/// A connected AF_UNIX stream socketpair (CLOEXEC), as {parent end,
/// child end}. Throws TransportError(kIo) if the OS refuses.
std::pair<FdChannel, FdChannel> make_socketpair_channel();

// ------------------------------------------------------------ frames --

inline constexpr std::uint32_t kFrameMagic = 0x3146534Du;  // "MSF1"
/// Version 7 drops the writer-open word from kShardData's per-machine
/// accounting record, which is now two words: outbox and resident.
/// Version 6 shrinks kRoundControl's round input to one peer-bucket
/// generation, the per-machine totals and the coordinator's records,
/// and always carries the shard-local thread count in kJobSetup.
/// Version 5 delivers worker-to-worker records straight to their
/// destination: kShardData carries only what the coordinator needs
/// (accounting slots, per-destination totals, bucket lengths and the
/// shard-0 bucket), each other bucket travels as a kPeerBucket frame,
/// and a worker still running its machines sends kHeartbeat frames.
/// Version 4 carried messages as records (from, to, len, payload) in
/// both directions, with every bucket relayed by the coordinator, and
/// kJobSetup carrying the shard table. Version 3 changed the payload
/// checksum from one mix64 chain to four interleaved lanes
/// (frame_checksum). Version 2 introduced the handshake: every channel
/// (fork socketpair or TCP) opens with an explicit hello/ack handshake
/// (see shard_channel.hpp) and kJobSetup carries the full wire
/// bootstrap (machine range, round-label table, optional job spec). An
/// older peer is refused during the handshake with a typed kBadVersion
/// naming both versions, instead of failing every frame's checksum.
inline constexpr std::uint16_t kFrameVersion = 7;

/// Sanity cap on a single frame payload (1 TiB of words is far beyond
/// any simulated round): an adversarial or corrupt length field fails
/// the cap check, and below the cap read_frame grows the payload
/// buffer only as the bytes arrive.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 40;

enum class FrameKind : std::uint16_t {
  kShardData = 1,       ///< worker -> coordinator, once per round: the
                        ///< worker's accounting slots, per-destination
                        ///< totals, every bucket's length, and the
                        ///< record bucket bound for shard 0
  kShardStatus = 2,     ///< worker round status (ok / callback exception)
  kShardTelemetry = 3,  ///< worker span/counter buffer (obs::Telemetry
                        ///< wire encoding); sent between data and status
                        ///< only when telemetry is enabled — workers
                        ///< inherit the flag at fork, so both ends of
                        ///< the channel always agree on the protocol
  kJobSetup = 4,        ///< coordinator -> worker, once per job
                        ///< (sequence 0): the worker's machine range,
                        ///< total machine count, and the number of
                        ///< registered rounds — the persistent worker
                        ///< validates its inherited job plane against
                        ///< the coordinator's before serving rounds
  kRoundControl = 5,    ///< coordinator -> worker, once per registered
                        ///< round: round id, invoke parameters, and the
                        ///< inbox totals and record stream for the
                        ///< worker's machine range (the worker holds no
                        ///< coordinator memory after setup, so every
                        ///< round's inputs arrive on the wire)
  kJobTeardown = 6,     ///< coordinator -> worker: the job is over;
                        ///< the worker exits cleanly
  kBootstrapAck = 7,    ///< worker -> coordinator, once per job
                        ///< (sequence 0): the worker validated the
                        ///< kJobSetup bootstrap against its own job
                        ///< plane (inherited at fork, or reconstructed
                        ///< from the shipped spec) and either accepts
                        ///< the job or refuses it with a message — so a
                        ///< bootstrap mismatch fails typed on the
                        ///< coordinator before any round is shipped

  // Serve-mode kinds (src/mrlr/serve/): the job-submission protocol a
  // long-running mrlr_serve daemon speaks with its clients, on the same
  // framing and handshake as the shard protocol above.
  kJobSubmit = 8,       ///< client -> daemon: one encoded JobSpec
  kJobAdmission = 9,    ///< daemon -> client: the admission decision —
                        ///< accepted (job id) or rejected with a typed
                        ///< reason (serve/protocol.hpp)
  kJobResult = 10,      ///< daemon -> client (and job process ->
                        ///< daemon): the encoded JobResult, or a typed
                        ///< execution error
  kServeStats = 11,     ///< client -> daemon: empty request; daemon ->
                        ///< client: counter snapshot
  kServeHealth = 12,    ///< client -> daemon: empty request; daemon ->
                        ///< client: liveness summary
  kServeShutdown = 13,  ///< client -> daemon: drain and stop accepting;
                        ///< daemon -> client: empty ack

  // Worker mesh kinds (process backend, version 5).
  kPeerBucket = 14,     ///< worker -> worker, once per round and peer:
                        ///< u64 destination shard, then the sender's
                        ///< records bound for it (sequence = the
                        ///< generation: the job's count of registered
                        ///< rounds so far). Over TCP it travels via the
                        ///< coordinator, which forwards it unopened
  kHeartbeat = 15,      ///< worker -> coordinator, empty: the worker is
                        ///< alive and still working on its round
};

/// Highest FrameKind this build understands; read_frame rejects
/// anything outside [kShardData, kMaxFrameKind] typed before the
/// payload is trusted.
inline constexpr std::uint16_t kMaxFrameKind =
    static_cast<std::uint16_t>(FrameKind::kHeartbeat);

struct Frame {
  FrameKind kind;
  std::uint32_t shard = 0;
  std::uint64_t sequence = 0;
  std::vector<std::byte> payload;
  /// The header's payload checksum (checked by read_frame; the frame
  /// pump keeps it unchecked for frames it only forwards).
  std::uint64_t checksum = 0;
};

/// Size of the fixed frame header.
inline constexpr std::size_t kFrameHeaderBytes = 40;

/// Validates a frame header (magic, version, kind, reserved bits, the
/// length cap) and returns it as a payload-less Frame, with the payload
/// length in `length`. Throws the TransportError taxonomy above.
Frame decode_frame_header(const std::byte* header, std::uint64_t max_payload,
                          std::uint64_t& length);

/// Writes the header of a frame with a `size`-byte payload whose
/// frame_checksum is `checksum`.
void encode_frame_header(std::byte* header, FrameKind kind,
                         std::uint32_t shard, std::uint64_t sequence,
                         std::uint64_t size, std::uint64_t checksum);

/// Payload checksum: four independent mix64 chains over interleaved
/// 8-byte little-endian words (word k feeds chain k mod 4, each chain
/// with its own seed), the zero-padded sub-8-byte tail fed to chain 0,
/// then the chains folded in order and the length absorbed last. The
/// chains do not wait on each other, so this runs about 3x faster than
/// one chain while every byte, word position and the length still
/// change the result.
std::uint64_t frame_checksum(std::span<const std::byte> payload);

/// frame_checksum of the concatenation of `parts`, without assembling it.
std::uint64_t frame_checksum_parts(
    std::span<const std::span<const std::byte>> parts);

void write_frame(ShardChannel& ch, FrameKind kind, std::uint32_t shard,
                 std::uint64_t sequence, std::span<const std::byte> payload);

/// write_frame of the concatenation of `parts`, written piece by piece
/// without assembling it.
void write_frame_parts(ShardChannel& ch, FrameKind kind, std::uint32_t shard,
                       std::uint64_t sequence,
                       std::span<const std::span<const std::byte>> parts);

/// Reads and fully validates one frame into `into`, whose payload
/// buffer keeps its capacity, so a caller reading frame after frame
/// into one Frame allocates only when a payload outgrows every earlier
/// one. Throws the TransportError taxonomy above on anything malformed
/// (`into` is then unspecified).
void read_frame(ShardChannel& ch, Frame& into,
                std::uint64_t max_payload = kMaxFramePayload);
Frame read_frame(ShardChannel& ch,
                 std::uint64_t max_payload = kMaxFramePayload);

/// read_frame + protocol-position validation: the frame must have
/// exactly this kind, shard, and sequence, else TransportError
/// (kUnexpected) — a reordered, replayed, or misrouted frame never
/// reaches the merge.
void expect_frame(ShardChannel& ch, Frame& into, FrameKind kind,
                  std::uint32_t shard, std::uint64_t sequence,
                  std::uint64_t max_payload = kMaxFramePayload);
Frame expect_frame(ShardChannel& ch, FrameKind kind, std::uint32_t shard,
                   std::uint64_t sequence,
                   std::uint64_t max_payload = kMaxFramePayload);

}  // namespace mrlr::exec
