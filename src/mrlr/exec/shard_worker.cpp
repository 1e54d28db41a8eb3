#include "mrlr/exec/shard_worker.hpp"

#include "mrlr/exec/shard_channel.hpp"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "mrlr/exec/frame_pump.hpp"

#include "mrlr/exec/serial_executor.hpp"
#include "mrlr/exec/thread_pool_executor.hpp"
#include "mrlr/obs/telemetry.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::exec {

namespace {

// Worker exit codes (shared with process_shard_executor's reaper).
constexpr int kWorkerOk = 0;
constexpr int kWorkerTransportFailed = 113;

using wire::append_bytes;
using wire::append_string;
using wire::append_u64;

}  // namespace

std::vector<std::byte> encode_bootstrap(const JobBootstrap& b) {
  std::vector<std::byte> out;
  append_u64(out, b.first);
  append_u64(out, b.last);
  append_u64(out, b.machines);
  append_u64(out, b.flags);
  append_u64(out, b.nonce);
  append_u64(out, b.threads);
  append_u64(out, b.shard_ranges.size());
  for (const auto& [first, last] : b.shard_ranges) {
    append_u64(out, first);
    append_u64(out, last);
  }
  append_u64(out, b.round_labels.size());
  for (const std::string& label : b.round_labels) append_string(out, label);
  append_u64(out, b.job_spec.size());
  append_bytes(out, b.job_spec.data(), b.job_spec.size());
  return out;
}

JobBootstrap decode_bootstrap(std::span<const std::byte> bytes) {
  wire::Reader r(bytes, "job bootstrap");
  JobBootstrap b;
  b.first = r.u64("machine range");
  b.last = r.u64("machine range");
  b.machines = r.u64("machine count");
  b.flags = r.u64("flags");
  b.nonce = r.u64("nonce");
  b.threads = r.u64("thread count");
  constexpr std::uint64_t kKnownFlags =
      kBootstrapCarriesSpec | kBootstrapTelemetry | kBootstrapPeerMesh;
  if ((b.flags & ~kKnownFlags) != 0) {
    char hex[24];
    std::snprintf(hex, sizeof(hex), "0x%llx",
                  static_cast<unsigned long long>(b.flags & ~kKnownFlags));
    r.fail(std::string("unknown flag bits ") + hex);
  }
  if (b.threads < 1 || b.threads > 1024) {
    r.fail("thread count " + std::to_string(b.threads) +
           " is outside [1, 1024]");
  }
  if (b.first > b.last || b.last > b.machines) {
    r.fail("machine range [" + std::to_string(b.first) + ", " +
           std::to_string(b.last) + ") escapes the job's " +
           std::to_string(b.machines) + " machines");
  }

  // The shard table: contiguous non-empty ranges from machine 0 to the
  // machine count, one of them the worker's own.
  const std::uint64_t shard_count = r.count("shard count", 16);
  if (shard_count < 2) {
    r.fail("shard count " + std::to_string(shard_count) + " is below 2");
  }
  // Appended piece by piece: g++ 12 flags the equivalent operator+
  // chain with a false -Wrestrict under -Werror.
  const auto range = [](std::uint64_t first, std::uint64_t last) {
    std::string text = "[";
    text += std::to_string(first);
    text += ", ";
    text += std::to_string(last);
    text += ")";
    return text;
  };
  bool own_listed = false;
  std::uint64_t next = 0;
  b.shard_ranges.reserve(shard_count);
  for (std::uint64_t s = 0; s < shard_count; ++s) {
    const std::uint64_t first = r.u64("shard range");
    const std::uint64_t last = r.u64("shard range");
    if (first != next || first >= last) {
      r.fail("shard " + std::to_string(s) + " range " + range(first, last) +
             " is empty or not contiguous with the previous shard's end " +
             std::to_string(next));
    }
    own_listed |= first == b.first && last == b.last;
    b.shard_ranges.emplace_back(first, last);
    next = last;
  }
  if (next != b.machines) {
    r.fail("shard ranges cover " + range(0, next) + ", the job has " +
           std::to_string(b.machines) + " machines");
  }
  if (!own_listed) {
    r.fail("own range " + range(b.first, b.last) +
           " is not one of the shard ranges");
  }

  // Each label costs at least its 8-byte length prefix.
  const std::uint64_t label_count = r.count("round-label count", 8);
  b.round_labels.reserve(label_count);
  for (std::uint64_t i = 0; i < label_count; ++i) {
    b.round_labels.push_back(r.string("round label"));
  }

  const std::uint64_t spec_len = r.u64("job spec");
  const std::span<const std::byte> spec = r.bytes(spec_len, "job spec");
  b.job_spec.assign(spec.begin(), spec.end());
  r.done("the last field");
  if (!b.job_spec.empty() && (b.flags & kBootstrapCarriesSpec) == 0) {
    r.fail("a job spec is attached but the carries-spec flag is clear");
  }
  return b;
}

void validate_bootstrap(const JobBootstrap& b, const ShardJobPlane& plane,
                        std::uint64_t num_machines, std::uint32_t shard) {
  const auto refuse = [](const std::string& what) {
    throw TransportError(TransportError::Kind::kUnexpected,
                         "job bootstrap: " + what);
  };
  if (shard >= b.shard_ranges.size() ||
      b.shard_ranges[shard] != std::make_pair(b.first, b.last)) {
    refuse("this worker is shard " + std::to_string(shard) +
           ", whose shard-table entry is not its machine range");
  }
  if (b.machines != num_machines) {
    refuse("coordinator job has " + std::to_string(b.machines) +
           " machines, this worker's plane has " +
           std::to_string(num_machines));
  }
  if (b.round_labels.size() != plane.registered_rounds()) {
    refuse("coordinator registered " +
           std::to_string(b.round_labels.size()) +
           " rounds, this worker registered " +
           std::to_string(plane.registered_rounds()));
  }
  for (std::size_t i = 0; i < b.round_labels.size(); ++i) {
    if (b.round_labels[i] != plane.round_label(i)) {
      refuse("round " + std::to_string(i) + " is \"" +
             std::string(plane.round_label(i)) +
             "\" on this worker but \"" + b.round_labels[i] +
             "\" on the coordinator — the round registries diverged");
    }
  }
}

void configure_worker_telemetry(const JobBootstrap& b, std::uint32_t shard) {
  obs::Telemetry& tel = obs::Telemetry::instance();
  if ((b.flags & kBootstrapTelemetry) != 0) {
    // A forked worker inherited the coordinator's live recorder (same
    // clock epoch, history trimmed by the per-round Mark) — re-enabling
    // would reset that epoch and skew every merged span. A TCP worker
    // starts dark and enables here.
    if (!tel.enabled()) tel.enable();
    tel.set_shard(shard);
  } else if (tel.enabled()) {
    tel.disable();
  }
}

void send_bootstrap_ack(ShardChannel& ch, std::uint32_t shard, bool ok,
                        std::string_view error) {
  std::vector<std::byte> payload;
  append_u64(payload, ok ? 1 : 0);
  append_bytes(payload, error.data(), error.size());
  write_frame(ch, FrameKind::kBootstrapAck, shard, 0, payload);
}

void expect_bootstrap_ack(ShardChannel& ch, std::uint32_t shard) {
  const Frame ack = expect_frame(ch, FrameKind::kBootstrapAck, shard, 0);
  wire::Reader r(ack.payload, "job bootstrap ack");
  if (!r.flag("ok")) {
    const std::span<const std::byte> rest = r.rest();
    std::string text(reinterpret_cast<const char*>(rest.data()), rest.size());
    if (text.empty()) text = "worker refused the bootstrap";
    throw WorkerError(shard, 0,
                      "process-shard: shard " + std::to_string(shard) +
                          " refused the job bootstrap: " + text);
  }
}

std::vector<std::unique_ptr<ShardChannel>> receive_peer_channels(
    ShardChannel& ch, std::uint32_t shard, const JobBootstrap& b) {
  const std::size_t shards = b.shard_ranges.size();
  std::vector<std::unique_ptr<ShardChannel>> peers(shards);
  for (std::size_t i = 0; i + 2 < shards; ++i) {
    const auto [tag, fd] = receive_descriptor(ch);
    auto peer = std::make_unique<FdChannel>(fd);
    if (tag == 0 || tag >= shards || tag == shard || peers[tag] != nullptr) {
      throw TransportError(TransportError::Kind::kUnexpected,
                           "worker shard " + std::to_string(shard) +
                               ": peer handoff names shard " +
                               std::to_string(tag));
    }
    peers[tag] = std::move(peer);
    std::byte echo[4];
    wire::store<std::uint32_t>(echo, tag);
    ch.write_all(echo, sizeof(echo));
  }
  return peers;
}

namespace {

/// Runs one task at a time on its own thread, so the serving thread can
/// keep the frame pump turning while the machines run. Finishing a task
/// writes a byte to wake_fd(), which the pump polls.
class ComputeThread {
 public:
  ComputeThread() {
    if (::pipe2(wake_, O_CLOEXEC | O_NONBLOCK) != 0) {
      throw TransportError(TransportError::Kind::kIo,
                           std::string("worker: pipe failed: ") +
                               std::strerror(errno));
    }
    thread_ = std::thread([this] { loop(); });
  }
  ~ComputeThread() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
    ::close(wake_[0]);
    ::close(wake_[1]);
  }
  ComputeThread(const ComputeThread&) = delete;
  ComputeThread& operator=(const ComputeThread&) = delete;

  int wake_fd() const { return wake_[0]; }

  void start(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      task_ = std::move(task);
      done_ = false;
      error_ = nullptr;
    }
    cv_.notify_one();
  }

  bool done() const {
    std::lock_guard<std::mutex> lk(mu_);
    return done_;
  }

  /// Rethrows what the finished task threw, if anything.
  void rethrow() {
    std::lock_guard<std::mutex> lk(mu_);
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [this] { return stop_ || task_ != nullptr; });
      if (stop_) return;
      std::function<void()> task = std::move(task_);
      task_ = nullptr;
      lk.unlock();
      std::exception_ptr error;
      try {
        task();
      } catch (...) {
        error = std::current_exception();
      }
      lk.lock();
      error_ = error;
      done_ = true;
      const char byte = 1;
      (void)!::write(wake_[1], &byte, 1);
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::function<void()> task_;
  std::exception_ptr error_;
  bool done_ = false;
  bool stop_ = false;
  int wake_[2] = {-1, -1};
  std::thread thread_;
};

/// The peer buckets a worker holds, by (generation, sender shard). A
/// bucket that arrived in a kPeerBucket frame keeps the frame's 8-byte
/// destination prefix; the worker's own bucket has none.
class PeerBuckets {
 public:
  bool has(std::uint64_t generation, std::uint32_t sender) const {
    return held_.count({generation, sender}) != 0;
  }

  std::span<const std::byte> get(std::uint64_t generation,
                                 std::uint32_t sender) const {
    const Held& h = held_.at({generation, sender});
    return std::span<const std::byte>(h.bytes).subspan(h.skip);
  }

  /// Files `bytes` (swapped out for a spare buffer with capacity).
  void put(std::uint64_t generation, std::uint32_t sender,
           std::vector<std::byte>& bytes, std::size_t skip) {
    Held& h = held_[{generation, sender}];
    h.bytes.swap(bytes);
    h.skip = skip;
    bytes.clear();
    if (!spare_.empty()) {
      bytes.swap(spare_.back());
      spare_.pop_back();
    }
  }

  /// Drops every bucket of a generation below `generation`, keeping a
  /// few buffers for reuse.
  void drop_before(std::uint64_t generation, std::size_t keep_spares) {
    for (auto it = held_.begin();
         it != held_.end() && it->first.first < generation;) {
      if (spare_.size() < keep_spares) {
        spare_.push_back(std::move(it->second.bytes));
      }
      it = held_.erase(it);
    }
  }

 private:
  struct Held {
    std::vector<std::byte> bytes;
    std::size_t skip = 0;
  };
  std::map<std::pair<std::uint64_t, std::uint32_t>, Held> held_;
  std::vector<std::vector<std::byte>> spare_;
};

[[noreturn]] void refuse_frame(std::uint32_t shard, const Frame& f,
                               const char* why) {
  throw TransportError(
      TransportError::Kind::kUnexpected,
      "worker shard " + std::to_string(shard) + ": " + why + " (kind " +
          std::to_string(static_cast<int>(f.kind)) + ", shard " +
          std::to_string(f.shard) + ", seq " + std::to_string(f.sequence) +
          ")");
}

}  // namespace

void serve_job_rounds(ShardChannel& ch, std::uint32_t shard,
                      ShardJobPlane& plane, const JobBootstrap& b,
                      std::vector<std::unique_ptr<ShardChannel>> peers) {
  const std::uint64_t first = b.first;
  const std::uint64_t last = b.last;
  const auto shards = static_cast<std::uint32_t>(b.shard_ranges.size());
  std::vector<std::uint64_t> bounds{0};
  for (const auto& r : b.shard_ranges) bounds.push_back(r.second);
  plane.set_shards(bounds, shard);
  obs::Telemetry& tel = obs::Telemetry::instance();
  const bool telemetry = tel.enabled();

  // Shard-local parallelism: the pool is built here — after the fork in
  // the forked-worker case — so no pool thread ever crosses a fork
  // boundary, and it persists across every round of the job.
  std::unique_ptr<ThreadPoolExecutor> pool;
  if (b.threads > 1) {
    pool = std::make_unique<ThreadPoolExecutor>(
        static_cast<unsigned>(b.threads));
  }

  // Each round ships the telemetry recorded since the previous round's
  // snapshot, so the frames written after a snapshot (that round's
  // telemetry and status frames) and the next control frame read all
  // land in the next window: every wire byte reaches the coordinator's
  // counters from both ends, except the last round's trailing frames.
  obs::Telemetry::Mark tel_mark;
  std::optional<std::uint64_t> fault_mark;
  if (telemetry) {
    tel_mark = tel.mark();
    obs::count_minor_faults(fault_mark);
  }
  const std::string control_context =
      "worker shard " + std::to_string(shard) + ": round control frame";

  // What arrives between rounds: the next round control (or teardown)
  // from the coordinator, and peer buckets from any worker.
  std::vector<std::byte> control;
  std::uint64_t control_seq = 0;
  bool awaiting_control = true;
  bool have_control = false;
  bool teardown = false;
  PeerBuckets held;
  std::uint64_t floor = 0;       // buckets of older generations are dead
  std::uint64_t generation = 0;  // job rounds served, this one included
  std::vector<std::uint32_t> peer_of;  // pump channel -> shard

  FramePump pump([&](std::size_t c, Frame& f) {
    switch (f.kind) {
      case FrameKind::kRoundControl:
      case FrameKind::kJobTeardown:
        if (c != 0 || f.shard != shard || !awaiting_control) {
          refuse_frame(shard, f, "round control out of turn");
        }
        awaiting_control = false;
        if (f.kind == FrameKind::kJobTeardown) {
          teardown = true;
        } else {
          control.swap(f.payload);
          control_seq = f.sequence;
          have_control = true;
        }
        return;
      case FrameKind::kPeerBucket: {
        // A bucket from a worker shard other than this one: straight
        // from its sender on a mesh, forwarded by the coordinator over
        // TCP.
        if (f.shard == 0 || f.shard >= shards || f.shard == shard ||
            (c != 0 && f.shard != peer_of[c])) {
          refuse_frame(shard, f, "peer bucket from the wrong sender");
        }
        wire::Reader r(f.payload, control_context);
        if (r.u64("peer bucket destination") != shard) {
          refuse_frame(shard, f, "peer bucket for another shard");
        }
        if (f.sequence < floor) return;  // its generation is dead
        if (held.has(f.sequence, f.shard)) {
          refuse_frame(shard, f, "duplicate peer bucket");
        }
        held.put(f.sequence, f.shard, f.payload, 8);
        return;
      }
      default:
        refuse_frame(shard, f, "unexpected frame");
    }
  });
  // Channel 0 is the coordinator; on a mesh, every peer shard's bucket
  // travels on its own channel, otherwise on channel 0.
  peer_of.push_back(0);
  pump.add(ch, 0);
  std::vector<std::size_t> route(shards, 0);
  for (std::uint32_t s = 1; s < shards && s < peers.size(); ++s) {
    if (peers[s] == nullptr) continue;
    // A peer that ends its job first closes its end: harmless unless a
    // bucket from it is still needed.
    route[s] = pump.add(*peers[s], s, /*may_close=*/true);
    peer_of.push_back(s);
  }

  // Per-round scratch, kept across rounds for its capacity. Declared
  // before the compute thread, which reads them while a round runs.
  std::vector<std::uint64_t> params;
  std::uint64_t named = 0;  // the generation the current input names
  std::vector<std::span<const std::byte>> inbox(shards);  // by sender
  std::vector<std::vector<std::byte>> parts;
  std::vector<std::byte> prefix(8 * shards);
  std::uint64_t round_id = 0;
  std::uint64_t error_machine = 0;
  bool failed = false;
  std::string error_what;
  // The plane asks for the generation it read from the same input.
  const PeerBucketFn bucket = [&](std::uint32_t sender,
                                  [[maybe_unused]] std::uint64_t g) {
    MRLR_DEBUG_REQUIRE(g == named && sender > 0 && sender < shards,
                       "the plane asked for a bucket its input did not name");
    return inbox[sender];
  };
  ComputeThread compute;
  pump.wake_on(compute.wake_fd());

  for (;;) {
    awaiting_control = true;
    pump.run([&] { return have_control || teardown; });
    if (teardown) return;
    have_control = false;
    ++generation;
    const std::uint64_t sequence = control_seq;
    const std::uint64_t round_ix = sequence - 1;
    pump.heartbeat(0, shard, sequence);

    wire::Reader r(control, control_context);
    round_id = r.u64("round id");
    // Frame payloads have no alignment guarantee; params are tiny, so
    // copy them into an aligned buffer instead of aliasing bytes.
    params.resize(r.count("parameter count", 8));
    for (std::uint64_t& param : params) param = r.u64("parameters");
    const std::span<const std::byte> input = r.rest();

    // The inbox needs the buckets of the round the input names, the
    // previous one this worker served, from every worker shard (this
    // one's own bucket is already held).
    named = plane.peer_generation(input);
    if (named != 0 && named + 1 != generation) {
      throw TransportError(TransportError::Kind::kBadPayload,
                           control_context + ": names the buckets of "
                           "generation " + std::to_string(named) +
                           ", which this worker does not hold");
    }
    pump.run([&] {
      for (std::uint32_t s = 1; named != 0 && s < shards; ++s) {
        if (held.has(named, s)) continue;
        if (route[s] != 0 && pump.closed(route[s])) {
          throw TransportError(
              TransportError::Kind::kTruncated,
              "worker shard " + std::to_string(shard) + ": shard " +
                  std::to_string(s) + " closed its channel before its "
                  "bucket of generation " + std::to_string(named) +
                  " arrived");
        }
        return false;
      }
      return true;
    });
    for (std::uint32_t s = 1; named != 0 && s < shards; ++s) {
      inbox[s] = held.get(named, s);
    }

    // The input is installed and the machines run on the compute
    // thread; this one keeps the pump turning meanwhile.
    const auto compute_while_pumping = [&](std::function<void()> task) {
      compute.start(std::move(task));
      pump.run([&] { return compute.done(); });
      compute.rethrow();
    };
    compute_while_pumping([&] {
      const std::uint64_t t0 = telemetry ? tel.now_ns() : 0;
      plane.apply_round_input(input, bucket);
      if (telemetry) {
        tel.record_span(obs::Phase::kShardApply, t0, tel.now_ns(), round_ix);
      }
    });
    // Installed, every bucket older than this round is dead: their
    // buffers take the buckets that arrive while the machines run.
    held.drop_before(generation, shards);
    floor = generation;
    compute_while_pumping([&] {
      std::uint64_t t0 = telemetry ? tel.now_ns() : 0;
      failed = false;
      error_what.clear();
      std::exception_ptr error;
      run_shard_range(
          pool.get(), first, last,
          [&](std::uint64_t m) { plane.run_registered(round_id, m, params); },
          error, error_machine);
      if (error) {
        failed = true;
        try {
          std::rethrow_exception(error);
        } catch (const std::exception& e) {
          error_what = e.what();
        } catch (...) {
          error_what = "unknown exception";
        }
      }
      if (telemetry) {
        tel.record_span(obs::Phase::kCallback, t0, tel.now_ns(), round_ix,
                        "machines [" + std::to_string(first) + ", " +
                            std::to_string(last) + ")");
        t0 = tel.now_ns();
      }
      plane.serialize_machines(parts);
      if (telemetry) {
        tel.record_span(obs::Phase::kShardSerialize, t0, tel.now_ns(),
                        round_ix);
      }
    });

    // The own bucket stays here; the shard-0 part goes to the
    // coordinator and every other bucket to its destination worker.
    const auto span_when_sent = [&](std::string label) {
      const std::uint64_t t0 = telemetry ? tel.now_ns() : 0;
      return [&tel, telemetry, t0, round_ix, label = std::move(label)] {
        if (telemetry) {
          tel.record_span(obs::Phase::kShardTransport, t0, tel.now_ns(),
                          round_ix, label);
        }
      };
    };
    const std::span<const std::byte> data = parts[0];
    pump.send(0, FrameKind::kShardData, shard, sequence, {&data, 1},
              span_when_sent(""));
    for (std::uint32_t s = 1; s < shards; ++s) {
      if (s == shard) continue;
      wire::store<std::uint64_t>(prefix.data() + 8 * s, s);
      const std::span<const std::byte> frame[2] = {
          std::span<const std::byte>(prefix).subspan(8 * s, 8), parts[s]};
      pump.send(route[s], FrameKind::kPeerBucket, shard, generation, frame,
                span_when_sent("peer " + std::to_string(s)));
    }
    held.put(generation, shard, parts[shard], 0);
    // The status goes last, once every bucket is with its receiver's
    // socket: when the coordinator holds every status of a round, all
    // of that round's buckets are delivered.
    pump.run([&] { return pump.all_sent(); });
    if (telemetry) {
      // This round's faults: from the previous round's snapshot (or
      // the job's start) until every bucket is sent.
      obs::count_minor_faults(fault_mark, plane.round_label(round_id));
      std::vector<std::byte> window = tel.serialize_since(tel_mark);
      tel_mark = tel.mark();
      pump.send(0, FrameKind::kShardTelemetry, shard, sequence,
                std::move(window));
    }
    std::vector<std::byte> status;
    append_u64(status, failed ? 1 : 0);
    append_u64(status, error_machine);
    append_bytes(status, error_what.data(), error_what.size());
    pump.send(0, FrameKind::kShardStatus, shard, sequence, std::move(status));
    pump.stop_heartbeat();
    pump.run([&] { return pump.all_sent(); });
  }
}

[[noreturn]] void forked_worker_main(FdChannel& ch, std::uint32_t shard,
                                     std::uint64_t nonce,
                                     ShardJobPlane* plane,
                                     std::uint64_t num_machines) {
  try {
    // Same handshake as a TCP worker: the fork path exercises the wire
    // bootstrap end to end, so the two launch modes cannot drift apart.
    handshake_accept(ch, [&](const HandshakeHello& h) {
      return (h.shard == shard && h.nonce == nonce)
                 ? HandshakeStatus::kOk
                 : HandshakeStatus::kRefused;
    });
    const Frame setup = expect_frame(ch, FrameKind::kJobSetup, shard, 0);
    const JobBootstrap b = decode_bootstrap(setup.payload);
    try {
      if (b.nonce != nonce) {
        throw TransportError(TransportError::Kind::kUnexpected,
                             "job bootstrap: nonce does not match the "
                             "handshake");
      }
      validate_bootstrap(b, *plane, num_machines, shard);
    } catch (const std::exception& e) {
      send_bootstrap_ack(ch, shard, false, e.what());
      _exit(kWorkerTransportFailed);
    }
    configure_worker_telemetry(b, shard);
    send_bootstrap_ack(ch, shard, true, {});
    std::vector<std::unique_ptr<ShardChannel>> peers;
    if ((b.flags & kBootstrapPeerMesh) != 0) {
      peers = receive_peer_channels(ch, shard, b);
    }
    serve_job_rounds(ch, shard, *plane, b, std::move(peers));
    _exit(kWorkerOk);
  } catch (...) {
    // Never unwind into the coordinator's stack (no atexit, no stdio
    // flush of buffers the parent also owns).
    _exit(kWorkerTransportFailed);
  }
}

namespace {
WorkerSession* g_worker_session = nullptr;
}  // namespace

WorkerSession* active_worker_session() { return g_worker_session; }

void set_active_worker_session(WorkerSession* session) {
  g_worker_session = session;
}

WorkerShardExecutor::WorkerShardExecutor(WorkerSession* session)
    : session_(session) {}

unsigned WorkerShardExecutor::num_threads() const {
  return session_ == nullptr
             ? 1u
             : static_cast<unsigned>(
                   std::max<std::uint64_t>(session_->bootstrap.threads, 1));
}

void WorkerShardExecutor::run_machines(std::uint64_t first,
                                       std::uint64_t last,
                                       const MachineFn& fn) {
  // Unreached by the engine (its only dispatch is the job, which
  // start_job serves whole); serial for anyone driving it directly.
  SerialExecutor().run_machines(first, last, fn);
}

void WorkerShardExecutor::start_job(std::uint64_t num_machines,
                                    ShardJobPlane* plane) {
  WorkerSession* s = session_;
  if (s == nullptr || s->channel == nullptr) {
    throw ExecError("worker-shard: start_job without an active worker "
                    "session");
  }
  try {
    validate_bootstrap(s->bootstrap, *plane, num_machines, s->shard);
  } catch (const std::exception& e) {
    send_bootstrap_ack(*s->channel, s->shard, false, e.what());
    s->acked = true;
    throw;
  }
  configure_worker_telemetry(s->bootstrap, s->shard);
  send_bootstrap_ack(*s->channel, s->shard, true, {});
  s->acked = true;
  serve_job_rounds(*s->channel, s->shard, *plane, s->bootstrap);
  s->served = true;
  // Unwind the replayed driver: the job is over from this worker's
  // perspective — there is no meaningful result to compute locally.
  throw JobServed{};
}

void WorkerShardExecutor::run_job_round(std::uint64_t,
                                        std::uint64_t round_id,
                                        std::span<const std::uint64_t>,
                                        std::uint64_t, const MachineFn&,
                                        ShardJobPlane*) {
  // start_job never returns (it serves the whole job then throws
  // JobServed), so the engine can never legitimately get here.
  throw ExecError("worker-shard: run_job_round after start_job (round " +
                  std::to_string(round_id) +
                  ") — the job loop should have unwound");
}

}  // namespace mrlr::exec
