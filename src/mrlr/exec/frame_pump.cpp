#include "mrlr/exec/frame_pump.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include <limits.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "mrlr/obs/telemetry.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::exec {

namespace {

/// First buffer size of an incoming payload that outgrows its buffer,
/// and the growth factor past it (read_frame's policy: a header
/// claiming more than the stream carries never drives an allocation no
/// bytes back).
constexpr std::uint64_t kPayloadChunk = std::uint64_t{64} << 10;
constexpr std::uint64_t kPayloadGrowth = 8;

/// Most iovecs one sendmsg gathers.
constexpr std::size_t kMaxIov = 64;

std::string describe(std::uint32_t peer) {
  return "frame pump: channel to shard " + std::to_string(peer);
}

}  // namespace

FramePump::FramePump(FrameFn on_frame) : on_frame_(std::move(on_frame)) {}

std::size_t FramePump::add(ShardChannel& ch, std::uint32_t peer,
                           bool may_close) {
  MRLR_REQUIRE(ch.fd() >= 0, "frame pump: channel without a socket");
  Chan c;
  c.fd = ch.fd();
  c.peer = peer;
  c.may_close = may_close;
  c.heard = c.last_out = Clock::now();
  chans_.push_back(std::move(c));
  return chans_.size() - 1;
}

bool FramePump::all_sent() const {
  return std::all_of(chans_.begin(), chans_.end(),
                     [](const Chan& c) { return c.out.empty(); });
}

void FramePump::watch(std::size_t channel, bool on) {
  Chan& c = chans_[channel];
  if (on && !c.watched) c.heard = Clock::now();
  c.watched = on;
}

void FramePump::heartbeat(std::size_t channel, std::uint32_t shard,
                          std::uint64_t sequence) {
  beat_ = true;
  beat_channel_ = channel;
  beat_shard_ = shard;
  beat_sequence_ = sequence;
}

FramePump::Out& FramePump::enqueue(std::size_t channel, FrameKind kind,
                                   std::uint32_t shard,
                                   std::uint64_t sequence, std::uint64_t size,
                                   std::uint64_t checksum) {
  Chan& c = chans_[channel];
  Out& o = c.out.emplace_back();
  encode_frame_header(o.header, kind, shard, sequence, size, checksum);
  c.last_out = Clock::now();
  obs::count("exec.frames_sent");
  obs::count("exec.wire_bytes_out", kFrameHeaderBytes + size);
  return o;
}

void FramePump::send(std::size_t channel, FrameKind kind, std::uint32_t shard,
                     std::uint64_t sequence,
                     std::span<const std::span<const std::byte>> parts,
                     std::function<void()> on_sent) {
  std::uint64_t size = 0;
  for (const std::span<const std::byte> p : parts) size += p.size();
  Out& o = enqueue(channel, kind, shard, sequence, size,
                   frame_checksum_parts(parts));
  for (const std::span<const std::byte> p : parts) {
    if (!p.empty()) o.parts.push_back(p);
  }
  o.on_sent = std::move(on_sent);
}

void FramePump::send(std::size_t channel, FrameKind kind, std::uint32_t shard,
                     std::uint64_t sequence, std::vector<std::byte> payload) {
  Out& o = enqueue(channel, kind, shard, sequence, payload.size(),
                   frame_checksum(payload));
  o.owned = std::move(payload);
  if (!o.owned.empty()) o.parts.emplace_back(o.owned);
}

void FramePump::forward(std::size_t channel, Frame&& frame) {
  Out& o = enqueue(channel, frame.kind, frame.shard, frame.sequence,
                   frame.payload.size(), frame.checksum);
  o.owned = std::move(frame.payload);
  if (!o.owned.empty()) o.parts.emplace_back(o.owned);
}

void FramePump::fail(const Chan& c, TransportError::Kind kind,
                     const std::string& what) const {
  throw PumpError(kind, c.peer, describe(c.peer) + ": " + what);
}

void FramePump::write_ready(std::size_t channel) {
  Chan& c = chans_[channel];
  while (!c.out.empty()) {
    Out& o = c.out.front();
    iovec iov[kMaxIov];
    std::size_t n = 0;
    if (o.header_left > 0) {
      iov[n++] = {o.header + kFrameHeaderBytes - o.header_left,
                  o.header_left};
    }
    for (std::size_t i = o.part; i < o.parts.size() && n < kMaxIov; ++i) {
      const std::size_t skip = i == o.part ? o.offset : 0;
      iov[n++] = {const_cast<std::byte*>(o.parts[i].data()) + skip,
                  o.parts[i].size() - skip};
    }
    std::size_t wrote = 0;
    if (n > 0) {
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = n;
      const ::ssize_t r =
          ::sendmsg(c.fd, &msg, MSG_DONTWAIT | MSG_NOSIGNAL);
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (c.may_close && (errno == EPIPE || errno == ECONNRESET)) {
          // A peer that is gone takes nothing more; whoever needs what
          // it would have sent fails on its own end of stream.
          c.closed = true;
          c.out.clear();
          return;
        }
        fail(c, TransportError::Kind::kIo,
             std::string("write failed: ") + std::strerror(errno));
      }
      wrote = static_cast<std::size_t>(r);
      c.last_out = Clock::now();
    }
    const std::size_t from_header = std::min(wrote, o.header_left);
    o.header_left -= from_header;
    wrote -= from_header;
    while (wrote > 0) {
      const std::size_t left = o.parts[o.part].size() - o.offset;
      const std::size_t take = std::min(wrote, left);
      o.offset += take;
      wrote -= take;
      if (o.offset == o.parts[o.part].size()) {
        ++o.part;
        o.offset = 0;
      }
    }
    if (o.header_left > 0 || o.part < o.parts.size()) continue;
    std::function<void()> done = std::move(o.on_sent);
    c.out.pop_front();
    if (done) done();
  }
}

void FramePump::complete_frame(std::size_t channel) {
  Chan& c = chans_[channel];
  c.in.payload.resize(c.length);
  const bool checked = std::find(unchecked_.begin(), unchecked_.end(),
                                 c.in.kind) == unchecked_.end();
  if (checked && c.in.checksum != frame_checksum(c.in.payload)) {
    fail(c, TransportError::Kind::kBadChecksum,
         "frame checksum mismatch (corrupt payload)");
  }
  obs::count("exec.frames_received");
  obs::count("exec.wire_bytes_in", kFrameHeaderBytes + c.length);
  c.header_got = 0;
  c.in_payload = false;
  on_frame_(channel, c.in);
}

void FramePump::read_ready(std::size_t channel) {
  Chan& c = chans_[channel];
  for (;;) {
    std::byte* into;
    std::size_t want;
    if (!c.in_payload) {
      into = c.header + c.header_got;
      want = kFrameHeaderBytes - c.header_got;
    } else {
      std::vector<std::byte>& p = c.in.payload;
      if (c.got == p.size()) {
        p.resize(std::min(c.length, kPayloadGrowth * c.got));
      }
      into = p.data() + c.got;
      want = p.size() - c.got;
    }
    const ::ssize_t r = ::recv(c.fd, into, want, MSG_DONTWAIT);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      fail(c, TransportError::Kind::kIo,
           std::string("read failed: ") + std::strerror(errno));
    }
    if (r == 0) {
      if (c.in_payload || c.header_got > 0) {
        fail(c, TransportError::Kind::kTruncated,
             "stream ended inside a frame");
      }
      // Whether the end is an error depends on whether the caller still
      // waits for something (run decides): a peer may close right
      // after the frame that ends its part.
      c.closed = true;
      return;
    }
    c.heard = Clock::now();
    if (!c.in_payload) {
      c.header_got += static_cast<std::size_t>(r);
      if (c.header_got < kFrameHeaderBytes) continue;
      try {
        const Frame head = decode_frame_header(c.header, kMaxFramePayload,
                                               c.length);
        c.in.kind = head.kind;
        c.in.shard = head.shard;
        c.in.sequence = head.sequence;
        c.in.checksum = head.checksum;
      } catch (const TransportError& e) {
        fail(c, e.kind, e.what());
      }
      // Within the buffer's capacity the payload is sized once; past it
      // the buffer grows as bytes arrive.
      std::vector<std::byte>& p = c.in.payload;
      if (c.length > p.capacity()) p.clear();
      p.resize(std::min(c.length,
                        std::max<std::uint64_t>(p.capacity(), kPayloadChunk)));
      c.got = 0;
      c.in_payload = true;
    } else {
      c.got += static_cast<std::uint64_t>(r);
    }
    if (c.in_payload && c.got == c.length) complete_frame(channel);
  }
}

void FramePump::run(const std::function<bool()>& done) {
  std::vector<pollfd> fds;
  std::vector<std::size_t> index;
  while (!done()) {
    for (const Chan& c : chans_) {
      if (c.closed && !c.may_close) {
        fail(c, TransportError::Kind::kTruncated,
             "the peer closed the channel");
      }
    }
    const Clock::time_point now = Clock::now();
    if (beat_ && chans_[beat_channel_].out.empty() &&
        now - chans_[beat_channel_].last_out >= kHeartbeatCadence) {
      send(beat_channel_, FrameKind::kHeartbeat, beat_shard_, beat_sequence_,
           std::vector<std::byte>{});
    }
    // The wait ends at the earliest silence deadline or heartbeat.
    Clock::duration wait = Clock::duration::max();
    for (const Chan& c : chans_) {
      if (!c.watched || bound_.count() <= 0) continue;
      wait = std::min(wait, std::max(c.heard + bound_ - now,
                                     Clock::duration::zero()));
    }
    if (beat_ && chans_[beat_channel_].out.empty()) {
      wait = std::min(wait, chans_[beat_channel_].last_out +
                                kHeartbeatCadence - now);
    }
    fds.clear();
    index.clear();
    for (std::size_t i = 0; i < chans_.size(); ++i) {
      const Chan& c = chans_[i];
      if (c.closed) continue;
      fds.push_back({c.fd, static_cast<short>(
                               POLLIN | (c.out.empty() ? 0 : POLLOUT)),
                     0});
      index.push_back(i);
    }
    if (wake_fd_ >= 0) fds.push_back({wake_fd_, POLLIN, 0});
    int timeout = -1;
    if (wait != Clock::duration::max()) {
      const auto ms =
          std::chrono::ceil<std::chrono::milliseconds>(wait).count();
      timeout = static_cast<int>(std::clamp<std::int64_t>(ms, 0, INT_MAX));
    }
    MRLR_REQUIRE(!fds.empty() || timeout >= 0,
                 "frame pump: nothing to wait on");
    const int ready = ::poll(fds.data(), fds.size(), timeout);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw TransportError(TransportError::Kind::kIo,
                           std::string("frame pump: poll failed: ") +
                               std::strerror(errno));
    }
    // Channels are served in index order (shard order), so of two
    // failures seen in the same wait the lower shard's is reported.
    for (std::size_t k = 0; k < index.size(); ++k) {
      const short ev = fds[k].revents;
      if (ev == 0) continue;
      if ((ev & (POLLIN | POLLHUP | POLLERR)) != 0) read_ready(index[k]);
      if ((ev & (POLLOUT | POLLERR)) != 0 && !chans_[index[k]].closed) {
        write_ready(index[k]);
      }
    }
    if (wake_fd_ >= 0 && fds.back().revents != 0) {
      std::byte drain[64];
      while (::read(wake_fd_, drain, sizeof(drain)) > 0) {
      }
    }
    // Silence is judged only after reading what had already arrived: a
    // caller busy elsewhere for longer than the bound must not fail a
    // peer whose bytes wait in the socket.
    const Clock::time_point after = Clock::now();
    for (const Chan& c : chans_) {
      if (c.watched && bound_.count() > 0 && after - c.heard > bound_) {
        fail(c, TransportError::Kind::kIo,
             "the peer sent nothing for " + std::to_string(bound_.count()) +
                 " ms (stopped or wedged)");
      }
    }
  }
}

}  // namespace mrlr::exec
