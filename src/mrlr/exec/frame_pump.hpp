#pragma once
// One poll(2)-driven frame pump over many ShardChannels: the process
// backend's only way to move round frames, used by the coordinator and
// by every worker.
//
// The pump owns no protocol. It keeps one outgoing queue and one
// partly read incoming frame per channel, and run() moves bytes on
// every channel that is ready, without ever blocking in a read or a
// write: frames go out and come in concurrently and complete in any
// order. Each complete incoming frame is handed to the FrameFn, which
// applies protocol order itself (the coordinator applies shard data in
// shard order however it arrived).
//
// Liveness: a channel the caller watches (because it expects a frame
// on it) fails the pump with a PumpError once it has been silent — no
// byte received — for longer than the silence bound. Silence, not
// round length, is bounded: a worker whose machines still run sends a
// header-only kHeartbeat frame at kHeartbeatCadence (heartbeat()), so a
// long round stays legal while a stopped or wedged peer fails typed.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "mrlr/exec/shard_transport.hpp"

namespace mrlr::exec {

/// How often a busy worker tells the coordinator it is alive.
inline constexpr std::chrono::milliseconds kHeartbeatCadence{100};

/// A pump channel failed: an OS error, a malformed frame, an end of
/// stream, or silence past the bound. `peer` is the id the channel was
/// added with (a shard index).
class PumpError : public TransportError {
 public:
  PumpError(Kind kind, std::uint32_t peer, std::string what)
      : TransportError(kind, std::move(what)), peer(peer) {}

  std::uint32_t peer;
};

class FramePump {
 public:
  /// Receives each complete incoming frame with its channel index. It
  /// may take the payload (swap it out) and may queue frames.
  using FrameFn = std::function<void(std::size_t channel, Frame& frame)>;

  explicit FramePump(FrameFn on_frame);

  FramePump(const FramePump&) = delete;
  FramePump& operator=(const FramePump&) = delete;

  /// Adds `ch` (which must have a socket: fd() >= 0) as the next channel
  /// index and returns it; `peer` names it in errors. An end of stream
  /// between frames fails the pump once run() still has to wait —
  /// unless the channel `may_close`: then it, or a write the peer no
  /// longer takes, only marks the channel closed (dropping what was
  /// queued on it).
  std::size_t add(ShardChannel& ch, std::uint32_t peer, bool may_close = false);

  /// Frames of `kind` are handed to the FrameFn without their checksum
  /// checked (Frame::checksum keeps the header's), to be forwarded
  /// whole; the receiver at the far end checks them.
  void pass_unchecked(FrameKind kind) { unchecked_.push_back(kind); }

  /// Queues a frame whose payload is the concatenation of `parts`,
  /// which are borrowed: they must stay valid and unchanged until the
  /// frame is sent. `on_sent` runs once its last byte is written.
  void send(std::size_t channel, FrameKind kind, std::uint32_t shard,
            std::uint64_t sequence,
            std::span<const std::span<const std::byte>> parts,
            std::function<void()> on_sent = {});
  /// Queues a frame that owns its payload.
  void send(std::size_t channel, FrameKind kind, std::uint32_t shard,
            std::uint64_t sequence, std::vector<std::byte> payload);
  /// Queues `frame` as it arrived, with its checksum as received.
  void forward(std::size_t channel, Frame&& frame);

  /// Whether every frame queued on every channel is sent.
  bool all_sent() const;
  bool closed(std::size_t channel) const { return chans_[channel].closed; }

  /// Silence bound of watched channels (0 = none).
  void set_silence_bound(std::chrono::milliseconds bound) { bound_ = bound; }
  /// Starts (from now) or stops holding `channel` to the silence bound.
  void watch(std::size_t channel, bool on);

  /// While on, a kHeartbeat frame (shard, sequence) goes out on
  /// `channel` whenever that channel had nothing queued and sent
  /// nothing for kHeartbeatCadence.
  void heartbeat(std::size_t channel, std::uint32_t shard,
                 std::uint64_t sequence);
  void stop_heartbeat() { beat_ = false; }

  /// Also wakes on `fd` becoming readable (and drains it), so a done()
  /// predicate can observe work finishing on another thread.
  void wake_on(int fd) { wake_fd_ = fd; }

  /// Moves bytes until `done()` holds (checked before every wait).
  /// Throws PumpError naming the channel on any failure.
  void run(const std::function<bool()>& done);

 private:
  using Clock = std::chrono::steady_clock;

  struct Out {
    std::byte header[kFrameHeaderBytes];
    std::vector<std::byte> owned;
    std::vector<std::span<const std::byte>> parts;  // after the header
    std::size_t part = 0;        // next part to write; parts.size() = done
    std::size_t offset = 0;      // bytes of it written
    std::size_t header_left = kFrameHeaderBytes;
    std::function<void()> on_sent;
  };

  struct Chan {
    int fd;
    std::uint32_t peer;
    bool may_close;
    bool closed = false;
    bool watched = false;
    Clock::time_point heard;      // last byte received (or watch start)
    Clock::time_point last_out;   // last frame queued or byte sent
    std::deque<Out> out;
    std::byte header[kFrameHeaderBytes];
    std::size_t header_got = 0;
    bool in_payload = false;
    std::uint64_t length = 0;     // payload length of the frame in flight
    std::uint64_t got = 0;        // payload bytes received
    Frame in;
  };

  Out& enqueue(std::size_t channel, FrameKind kind, std::uint32_t shard,
               std::uint64_t sequence, std::uint64_t size,
               std::uint64_t checksum);
  void read_ready(std::size_t channel);
  void write_ready(std::size_t channel);
  void complete_frame(std::size_t channel);
  [[noreturn]] void fail(const Chan& c, TransportError::Kind kind,
                         const std::string& what) const;

  FrameFn on_frame_;
  std::vector<Chan> chans_;
  std::vector<FrameKind> unchecked_;
  std::chrono::milliseconds bound_{0};
  bool beat_ = false;
  std::size_t beat_channel_ = 0;
  std::uint32_t beat_shard_ = 0;
  std::uint64_t beat_sequence_ = 0;
  int wake_fd_ = -1;
};

}  // namespace mrlr::exec
