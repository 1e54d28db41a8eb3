#include "mrlr/exec/shard_worker.hpp"

#include "mrlr/exec/shard_channel.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <utility>

#include <unistd.h>

#include "mrlr/exec/serial_executor.hpp"
#include "mrlr/exec/thread_pool_executor.hpp"
#include "mrlr/obs/telemetry.hpp"

namespace mrlr::exec {

namespace {

// Worker exit codes (shared with process_shard_executor's reaper).
constexpr int kWorkerOk = 0;
constexpr int kWorkerTransportFailed = 113;

[[noreturn]] void bad_bootstrap(const std::string& what) {
  throw TransportError(TransportError::Kind::kBadPayload,
                       "job bootstrap: " + what);
}

void append_bytes(std::vector<std::byte>& out, const void* data,
                  std::size_t n) {
  if (n == 0) return;
  const auto at = out.size();
  out.resize(at + n);
  std::memcpy(out.data() + at, data, n);
}

}  // namespace

std::vector<std::byte> encode_bootstrap(const JobBootstrap& b) {
  std::vector<std::byte> out;
  // The thread count trails the spec and rides behind its own flag bit
  // so serial jobs keep the exact pre-composition encoding (see
  // kBootstrapThreads in the header for the compat story).
  std::uint64_t flags = b.flags & ~kBootstrapThreads;
  if (b.threads > 1) flags |= kBootstrapThreads;
  append_u64(out, b.first);
  append_u64(out, b.last);
  append_u64(out, b.machines);
  append_u64(out, flags);
  append_u64(out, b.nonce);
  append_u64(out, b.round_labels.size());
  for (const std::string& label : b.round_labels) {
    append_u64(out, label.size());
    append_bytes(out, label.data(), label.size());
  }
  append_u64(out, b.job_spec.size());
  append_bytes(out, b.job_spec.data(), b.job_spec.size());
  if (b.threads > 1) append_u64(out, b.threads);
  return out;
}

JobBootstrap decode_bootstrap(std::span<const std::byte> bytes) {
  std::size_t at = 0;
  const auto need = [&](std::size_t n, const char* what) {
    if (bytes.size() - at < n || at > bytes.size()) {
      bad_bootstrap(std::string("truncated inside ") + what);
    }
  };
  const auto take_u64 = [&](const char* what) {
    need(8, what);
    const std::uint64_t v = read_u64(bytes, at);
    at += 8;
    return v;
  };

  JobBootstrap b;
  b.first = take_u64("machine range");
  b.last = take_u64("machine range");
  b.machines = take_u64("machine count");
  b.flags = take_u64("flags");
  b.nonce = take_u64("nonce");
  constexpr std::uint64_t kKnownFlags =
      kBootstrapCarriesSpec | kBootstrapTelemetry | kBootstrapThreads;
  if ((b.flags & ~kKnownFlags) != 0) {
    bad_bootstrap("unknown flag bits 0x" +
                  std::to_string(b.flags & ~kKnownFlags));
  }
  if (b.first > b.last || b.last > b.machines) {
    bad_bootstrap("machine range [" + std::to_string(b.first) + ", " +
                  std::to_string(b.last) + ") escapes the job's " +
                  std::to_string(b.machines) + " machines");
  }

  const std::uint64_t label_count = take_u64("round-label count");
  // Each label costs at least its 8-byte length prefix; this bound makes
  // a corrupt count fail here instead of driving a giant reserve.
  if (label_count > (bytes.size() - at) / 8) {
    bad_bootstrap("round-label count " + std::to_string(label_count) +
                  " exceeds the remaining payload");
  }
  b.round_labels.reserve(label_count);
  for (std::uint64_t i = 0; i < label_count; ++i) {
    const std::uint64_t len = take_u64("round label");
    need(len, "round label");
    b.round_labels.emplace_back(
        reinterpret_cast<const char*>(bytes.data() + at), len);
    at += len;
  }

  const std::uint64_t spec_len = take_u64("job spec");
  need(spec_len, "job spec");
  b.job_spec.assign(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                    bytes.begin() + static_cast<std::ptrdiff_t>(at + spec_len));
  at += spec_len;
  if ((b.flags & kBootstrapThreads) != 0) {
    b.threads = take_u64("thread count");
    if (b.threads < 2) {
      bad_bootstrap("thread count " + std::to_string(b.threads) +
                    " under the threads flag (serial jobs omit the "
                    "field)");
    }
    if (b.threads > 1024) {
      bad_bootstrap("thread count " + std::to_string(b.threads) +
                    " exceeds the 1024-thread cap");
    }
  }
  if (at != bytes.size()) {
    bad_bootstrap(std::to_string(bytes.size() - at) +
                  " trailing bytes after the last field");
  }
  if (!b.job_spec.empty() && (b.flags & kBootstrapCarriesSpec) == 0) {
    bad_bootstrap("a job spec is attached but the carries-spec flag is "
                  "clear");
  }
  return b;
}

void validate_bootstrap(const JobBootstrap& b, const ShardJobPlane& plane,
                        std::uint64_t num_machines) {
  const auto refuse = [](const std::string& what) {
    throw TransportError(TransportError::Kind::kUnexpected,
                         "job bootstrap: " + what);
  };
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
  if (ack.payload.size() < 8) {
    throw TransportError(TransportError::Kind::kBadPayload,
                         "job bootstrap: ack frame shorter than its ok "
                         "flag");
  }
  const std::uint64_t ok = read_u64(ack.payload, 0);
  if (ok > 1) {
    throw TransportError(TransportError::Kind::kBadPayload,
                         "job bootstrap: ack frame has invalid ok flag " +
                             std::to_string(ok));
  }
  if (ok == 0) {
    std::string text(
        reinterpret_cast<const char*>(ack.payload.data() + 8),
        ack.payload.size() - 8);
    if (text.empty()) text = "worker refused the bootstrap";
    throw WorkerError(shard, 0,
                      "process-shard: shard " + std::to_string(shard) +
                          " refused the job bootstrap: " + text);
  }
}

void serve_job_rounds(ShardChannel& ch, std::uint32_t shard,
                      ShardJobPlane& plane, const JobBootstrap& b) {
  const std::uint64_t first = b.first;
  const std::uint64_t last = b.last;
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

  // Both buffers keep their capacity from round to round.
  Frame frame;
  std::vector<std::byte> bytes;
  // Each round ships the telemetry recorded since the previous round's
  // snapshot, so the frames written after a snapshot (that round's
  // telemetry and status frames) and the next control frame read all
  // land in the next window: every wire byte reaches the coordinator's
  // counters from both ends, except the last round's trailing frames.
  obs::Telemetry::Mark tel_mark;
  if (telemetry) tel_mark = tel.mark();

  for (;;) {
    read_frame(ch, frame);
    if (frame.kind == FrameKind::kJobTeardown) return;
    if (frame.kind != FrameKind::kRoundControl || frame.shard != shard) {
      throw TransportError(
          TransportError::Kind::kUnexpected,
          "worker shard " + std::to_string(shard) +
              ": expected round control or teardown, got kind " +
              std::to_string(static_cast<int>(frame.kind)) + " for shard " +
              std::to_string(frame.shard));
    }
    const std::uint64_t sequence = frame.sequence;
    const std::uint64_t round_ix = sequence - 1;

    std::span<const std::byte> p = frame.payload;
    if (p.size() < 16) {
      throw TransportError(TransportError::Kind::kBadPayload,
                           "worker shard " + std::to_string(shard) +
                               ": round control frame shorter than its "
                               "fixed fields");
    }
    const std::uint64_t round_id = read_u64(p, 0);
    const std::uint64_t param_count = read_u64(p, 8);
    p = p.subspan(16);
    if (param_count > p.size() / 8) {
      throw TransportError(TransportError::Kind::kBadPayload,
                           "worker shard " + std::to_string(shard) +
                               ": parameter count " +
                               std::to_string(param_count) +
                               " exceeds the payload");
    }
    // Frame payloads have no alignment guarantee; params are tiny, so
    // copy them into an aligned buffer instead of aliasing bytes.
    std::vector<std::uint64_t> params(param_count);
    for (std::uint64_t i = 0; i < param_count; ++i) {
      params[i] = read_u64(p, i * 8);
    }
    p = p.subspan(param_count * 8);

    std::uint64_t t0 = telemetry ? tel.now_ns() : 0;
    plane.apply_round_input(first, last, p);
    if (telemetry) {
      tel.record_span(obs::Phase::kShardApply, t0, tel.now_ns(), round_ix);
      t0 = tel.now_ns();
    }

    std::uint64_t error_machine = 0;
    bool failed = false;
    std::string error_what;
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
    }

    bytes.clear();
    t0 = telemetry ? tel.now_ns() : 0;
    plane.serialize_machines(first, last, bytes);
    if (telemetry) {
      tel.record_span(obs::Phase::kShardSerialize, t0, tel.now_ns(),
                      round_ix);
      t0 = tel.now_ns();
    }
    write_frame(ch, FrameKind::kShardData, shard, sequence, bytes);
    if (telemetry) {
      tel.record_span(obs::Phase::kShardTransport, t0, tel.now_ns(),
                      round_ix);
      // Everything this worker recorded since the last snapshot ships
      // back for the coordinator's merged profile.
      const std::vector<std::byte> window = tel.serialize_since(tel_mark);
      tel_mark = tel.mark();
      write_frame(ch, FrameKind::kShardTelemetry, shard, sequence, window);
    }

    std::vector<std::byte> status;
    append_u64(status, failed ? 1 : 0);
    append_u64(status, error_machine);
    append_bytes(status, error_what.data(), error_what.size());
    write_frame(ch, FrameKind::kShardStatus, shard, sequence, status);
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
      validate_bootstrap(b, *plane, num_machines);
    } catch (const std::exception& e) {
      send_bootstrap_ack(ch, shard, false, e.what());
      _exit(kWorkerTransportFailed);
    }
    configure_worker_telemetry(b, shard);
    send_bootstrap_ack(ch, shard, true, {});
    serve_job_rounds(ch, shard, *plane, b);
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
    validate_bootstrap(s->bootstrap, *plane, num_machines);
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
