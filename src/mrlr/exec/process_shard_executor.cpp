#include "mrlr/exec/process_shard_executor.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "mrlr/exec/shard_channel.hpp"

#include "mrlr/exec/shard_worker.hpp"
#include "mrlr/exec/thread_pool_executor.hpp"
#include "mrlr/exec/worker_launcher.hpp"
#include "mrlr/obs/telemetry.hpp"
#include "mrlr/util/mix64.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::exec {

namespace {

constexpr unsigned kMaxShards = 256;

// Worker exit codes (distinct from anything a callback can produce:
// workers never return through main).
constexpr int kWorkerOk = 0;
constexpr int kWorkerTransportFailed = 113;

/// Contiguous partition of [first, last) into k near-equal ranges.
std::vector<std::pair<std::uint64_t, std::uint64_t>> partition(
    std::uint64_t first, std::uint64_t last, unsigned k) {
  const std::uint64_t total = last - first;
  const std::uint64_t base = total / k;
  const std::uint64_t rem = total % k;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  ranges.reserve(k);
  std::uint64_t at = first;
  for (unsigned i = 0; i < k; ++i) {
    const std::uint64_t len = base + (i < rem ? 1 : 0);
    ranges.emplace_back(at, at + len);
    at += len;
  }
  return ranges;
}

/// Job identity stamped into the handshake and bootstrap: a reconnect
/// or a crossed connection from another job fails the nonce check
/// instead of silently merging state. Uniqueness per (process, job) is
/// all that is needed — this is an identity, not a secret.
std::uint64_t next_job_nonce() {
  static std::uint64_t counter = 0;
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return mix64(static_cast<std::uint64_t>(::getpid())) ^
         mix64(0x6A6F626E6F6E6365ull + ++counter) ^  // "jobnonce"
         mix64(static_cast<std::uint64_t>(now.count()));
}

std::string describe_exit(int wait_status) {
  if (WIFEXITED(wait_status)) {
    const int code = WEXITSTATUS(wait_status);
    if (code == kWorkerOk) return "exited cleanly";
    if (code == kWorkerTransportFailed) {
      return "failed on the job channel (exit " + std::to_string(code) +
             ")";
    }
    return "exited with status " + std::to_string(code);
  }
  if (WIFSIGNALED(wait_status)) {
    return std::string("killed by signal ") +
           std::to_string(WTERMSIG(wait_status));
  }
  return "ended abnormally";
}

}  // namespace

ProcessShardExecutor::ProcessShardExecutor(unsigned num_shards,
                                           unsigned num_threads)
    : num_shards_(std::clamp(num_shards, 1u, kMaxShards)),
      num_threads_(std::clamp(num_threads, 1u, 1024u)) {}

ProcessShardExecutor::~ProcessShardExecutor() { end_job(); }

void ProcessShardExecutor::run_machines(std::uint64_t first,
                                        std::uint64_t last,
                                        const MachineFn& fn) {
  // No job plane, nothing to exchange: run in the coordinator. Outside
  // a job the local pool does not exist — forking workers later with
  // live pool threads would be unsafe — so machines run serially; inside
  // a job they reuse shard 0's pool.
  std::exception_ptr error;
  std::uint64_t error_machine = 0;
  run_shard_range(local_pool_.get(), first, last, fn, error, error_machine);
  if (error) std::rethrow_exception(error);
}

void ProcessShardExecutor::start_job(std::uint64_t num_machines,
                                     ShardJobPlane* plane) {
  MRLR_REQUIRE(!job_active_,
               "process-shard: start_job while a job is active");
  MRLR_REQUIRE(plane != nullptr, "process-shard: job needs a data plane");
  job_active_ = true;
  job_failed_ = false;
  const unsigned shards = static_cast<unsigned>(std::min<std::uint64_t>(
      num_shards_, std::max<std::uint64_t>(num_machines, 1)));
  local_range_ = {0, num_machines};
  if (shards <= 1) {
    // Degenerate single-shard job: all machines local, no forks — the
    // shard-local pool can be built immediately.
    if (num_threads_ > 1) {
      local_pool_ = std::make_unique<ThreadPoolExecutor>(num_threads_);
    }
    return;
  }

  const auto ranges = partition(0, num_machines, shards);
  local_range_ = ranges[0];

  obs::Telemetry& tel = obs::Telemetry::instance();
  job_telemetry_ = tel.enabled();

  // Launch mode is ambient (worker_launcher.hpp): fork local children,
  // or connect to --workers endpoints. Everything below this point is
  // identical for both — handshake, wire bootstrap, ack — so the fork
  // path exercises exactly what a remote worker sees.
  std::unique_ptr<WorkerLauncher> launcher =
      make_worker_launcher(plane, num_machines, shards);
  const std::uint64_t nonce = next_job_nonce();
  const std::chrono::milliseconds timeout = launcher->bootstrap_timeout();

  // Fork workers get a mesh of peer channels; TCP workers route their
  // peer buckets through this process.
  const bool mesh = !launcher->ships_job_state();
  std::uint64_t flags = mesh ? kBootstrapPeerMesh : kBootstrapCarriesSpec;
  if (job_telemetry_) flags |= kBootstrapTelemetry;
  std::vector<std::byte> spec;
  if (launcher->ships_job_state()) {
    const ProcessBackendConfig* cfg = process_backend_config();
    if (cfg == nullptr || cfg->job_spec.empty()) {
      throw ExecError(
          "process-shard: TCP workers reconstruct the job from a shipped "
          "spec, but no job spec is installed — drivers launched outside "
          "the jobs layer cannot use --workers");
    }
    spec = cfg->job_spec;
  }
  std::vector<std::string> round_labels;
  round_labels.reserve(plane->registered_rounds());
  for (std::uint64_t i = 0; i < plane->registered_rounds(); ++i) {
    round_labels.emplace_back(plane->round_label(i));
  }

  // Phase 1 — launch every worker, handshake, and ship its bootstrap.
  // Acks are collected in a second pass so TCP workers replay their job
  // state concurrently instead of one after another.
  workers_.reserve(shards - 1);
  std::uint64_t shipped = 0;
  for (unsigned s = 1; s < shards; ++s) {
    try {
      LaunchedWorker lw = launcher->launch(s, nonce);
      Worker& w = workers_.emplace_back();
      w.pid = lw.pid;
      w.channel = std::move(lw.channel);
      w.shard = s;
      w.first = ranges[s].first;
      w.last = ranges[s].second;
      // A silent peer during handshake, bootstrap and peer handoff must
      // fail typed, not hang. Round frames go through the pump, which
      // never blocks in a read and bounds silence itself.
      if (timeout.count() > 0) w.channel->set_read_timeout(timeout);
      handshake_connect(*w.channel, s, nonce);
      JobBootstrap b;
      b.first = w.first;
      b.last = w.last;
      b.machines = num_machines;
      b.shard_ranges = ranges;
      b.flags = flags;
      b.nonce = nonce;
      b.threads = num_threads_;
      b.round_labels = round_labels;
      b.job_spec = spec;
      const std::vector<std::byte> payload = encode_bootstrap(b);
      write_frame(*w.channel, FrameKind::kJobSetup, s, 0, payload);
      shipped += payload.size();
    } catch (const ExecError& e) {
      fail_job(s, 0, e.what());
    }
  }

  // Phase 2 — every worker validated the bootstrap against its own job
  // plane and either accepted or refused with a message.
  for (Worker& w : workers_) {
    try {
      expect_bootstrap_ack(*w.channel, w.shard);
    } catch (const ExecError& e) {
      fail_job(w.shard, 0, e.what());
    }
  }

  // Phase 3 (fork) — the mesh: one socketpair per pair of workers, its
  // ends handed to the two over their channels. Each end is echoed back
  // before the next is sent, so this process holds at most two extra
  // descriptors and at most one is ever in flight.
  const auto hand = [&](Worker& w, std::uint32_t peer, int fd) {
    try {
      send_descriptor(*w.channel, peer, fd);
      std::byte echo[4];
      read_exact(*w.channel, echo, sizeof(echo), "peer handoff echo");
      if (wire::load<std::uint32_t>(echo) != peer) {
        throw TransportError(TransportError::Kind::kUnexpected,
                             "peer handoff: the worker echoed another shard");
      }
    } catch (const ExecError& e) {
      fail_job(w.shard, 0, e.what());
    }
  };
  for (std::size_t i = 0; mesh && i < workers_.size(); ++i) {
    for (std::size_t j = i + 1; j < workers_.size(); ++j) {
      auto pair = [&] {
        try {
          return make_socketpair_channel();
        } catch (const ExecError& e) {
          fail_job(workers_[i].shard, 0, e.what());
        }
      }();
      hand(workers_[i], workers_[j].shard, pair.first.fd());
      hand(workers_[j], workers_[i].shard, pair.second.fd());
    }
  }
  silence_bound_ = std::max<std::chrono::milliseconds>(
      timeout, 10 * kHeartbeatCadence);
  pump_ = std::make_unique<FramePump>(
      [this](std::size_t channel, Frame& f) { take_frame(channel, f); });
  // Peer buckets pass through unopened; their receiver checks them.
  pump_->pass_unchecked(FrameKind::kPeerBucket);
  pump_->set_silence_bound(silence_bound_);
  for (Worker& w : workers_) pump_->add(*w.channel, w.shard);

  if (job_telemetry_) {
    tel.add_counter("exec.workers_spawned", workers_.size());
    tel.add_counter("exec.state_bytes_shipped", shipped);
    tel.add_counter("exec.bootstrap_bytes_shipped", shipped);
    // Concurrent callback threads job-wide: every shard (this process
    // and each worker) runs its range on a num_threads_-wide pool.
    tel.add_counter("exec.worker_threads",
                    static_cast<std::uint64_t>(num_threads_) * shards);
  }

  // The coordinator's plane routes by the same shard table the workers
  // received; set only now, so forked workers never inherit it.
  std::vector<std::uint64_t> bounds{0};
  for (const auto& r : ranges) bounds.push_back(r.second);
  plane->set_shards(bounds, 0);

  // Shard 0's own pool. Built only now, after every worker has forked:
  // a fork taken while pool threads are live could duplicate held locks
  // into the child.
  if (num_threads_ > 1) {
    local_pool_ = std::make_unique<ThreadPoolExecutor>(num_threads_);
  }
}

void ProcessShardExecutor::run_job_round(std::uint64_t round_index,
                                         std::uint64_t round_id,
                                         std::span<const std::uint64_t> params,
                                         std::uint64_t num_machines,
                                         const MachineFn& fn,
                                         ShardJobPlane* plane) {
  // The machine count was fixed at start_job; the per-round value is
  // only part of the interface so other executors can size their runs.
  (void)num_machines;
  MRLR_REQUIRE(job_active_,
               "process-shard: run_job_round without start_job");
  // The engine's round index, not a count of this executor's calls:
  // central rounds never reach the executor, yet worker spans must carry
  // the same round index as the coordinator's.
  const std::uint64_t sequence = round_index + 1;
  last_sequence_ = sequence;
  if (job_failed_) {
    // Reconnect refusal: a respawned worker could not reconstruct the
    // dead worker's resident state mid-job, so once a job failed every
    // further round fails typed instead of silently recomputing.
    throw WorkerError(failed_shard_, sequence,
                      "process-shard: shard " +
                          std::to_string(failed_shard_) +
                          " already failed this job; refusing to run "
                          "further rounds (restart the job)");
  }
  if (workers_.empty()) {
    run_machines(local_range_.first, local_range_.second, fn);
    return;
  }

  obs::Telemetry& tel = obs::Telemetry::instance();
  const bool telemetry = job_telemetry_;
  FramePump& pump = *pump_;

  // Every worker's round control — id, invoke params, its round input —
  // is queued at once, and all go out concurrently. The head is encoded
  // into the worker's buffer; the records go out from the plane's own.
  std::uint64_t shipped = 0;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Worker& w = workers_[i];
    const std::uint64_t t0 = telemetry ? tel.now_ns() : 0;
    w.head.clear();
    wire::append_u64(w.head, round_id);
    wire::append_u64(w.head, params.size());
    for (const std::uint64_t p : params) wire::append_u64(w.head, p);
    // parts[0] is the head, set once the plane stopped growing it.
    w.parts.assign(1, {});
    plane->serialize_round_input(w.shard, w.head, w.parts);
    w.parts[0] = w.head;
    w.got_data = w.got_telemetry = w.got_status = false;
    const std::uint64_t t1 = telemetry ? tel.now_ns() : 0;
    std::string label = "shard " + std::to_string(w.shard);
    if (telemetry) {
      tel.record_span(obs::Phase::kShardSerialize, t0, t1, sequence - 1,
                      label);
    }
    pump.send(i, FrameKind::kRoundControl, w.shard, sequence, w.parts,
              [&tel, telemetry, t1, sequence, label = std::move(label)] {
                if (telemetry) {
                  tel.record_span(obs::Phase::kShardTransport, t1,
                                  tel.now_ns(), sequence - 1, label);
                }
              });
    pump.watch(i, true);
    for (const std::span<const std::byte> part : w.parts) {
      shipped += part.size();
    }
  }
  if (telemetry) tel.add_counter("exec.state_bytes_shipped", shipped);
  try {
    // Workers start their machines as soon as their control is in, so
    // the controls go out before shard 0 runs.
    pump.run([&] { return pump.all_sent(); });
  } catch (const PumpError& e) {
    fail_job(e.peer, sequence, e.what());
  }

  // Shard 0 runs here, in the coordinator: host-resident machine state
  // (notably the central machine's) persists across rounds. With
  // num_threads_ > 1 the range runs on shard 0's local pool, mirroring
  // what every worker does with its own range.
  std::exception_ptr local_error;
  std::uint64_t local_error_machine = 0;
  run_shard_range(local_pool_.get(), local_range_.first, local_range_.second,
                  fn, local_error, local_error_machine);
  // Shard 0's sends to worker machines head their streams, ahead of the
  // peer buckets of this round.
  {
    const std::uint64_t t0 = telemetry ? tel.now_ns() : 0;
    plane->route_local_sends();
    if (telemetry) {
      tel.record_span(obs::Phase::kShardSerialize, t0, tel.now_ns(),
                      sequence - 1, "shard 0 sends");
    }
  }

  // Frames arrive in any order; data is applied in shard order
  // (= machine-id order), so the result does not depend on which worker
  // finished first.
  std::size_t next = 0;
  std::uint64_t waited_from = telemetry ? tel.now_ns() : 0;
  const auto apply_ready = [&] {
    while (next < workers_.size() && workers_[next].got_data) {
      Worker& w = workers_[next];
      std::uint64_t apply_start = 0;
      if (telemetry) {
        apply_start = tel.now_ns();
        tel.record_span(obs::Phase::kWorkerWait, waited_from, apply_start,
                        sequence - 1, "shard " + std::to_string(w.shard));
      }
      try {
        plane->apply_machines(w.shard, w.data);
      } catch (const ExecError& e) {
        throw PumpError(TransportError::Kind::kBadPayload, w.shard, e.what());
      }
      if (telemetry) {
        waited_from = tel.now_ns();
        tel.record_span(obs::Phase::kShardApply, apply_start, waited_from,
                        sequence - 1, "shard " + std::to_string(w.shard));
      }
      ++next;
    }
  };
  try {
    pump.run([&] {
      apply_ready();
      return next == workers_.size() &&
             std::all_of(workers_.begin(), workers_.end(),
                         [](const Worker& w) { return w.got_status; }) &&
             pump.all_sent();
    });
  } catch (const PumpError& e) {
    fail_job(e.peer, sequence, e.what());
  }

  // Executor contract: the lowest-id throwing machine wins. Shard 0's
  // machines precede every worker machine, and workers are scanned in
  // machine-id order.
  if (local_error) std::rethrow_exception(local_error);
  for (Worker& w : workers_) {
    bool failed = false;
    std::uint64_t machine = 0;
    std::string what;
    try {
      wire::Reader r(w.status, "process-shard: status frame");
      failed = r.flag("failed");
      machine = r.u64("error machine");
      const std::span<const std::byte> text = r.rest();
      what.assign(reinterpret_cast<const char*>(text.data()), text.size());
    } catch (const ExecError& e) {
      fail_job(w.shard, sequence, e.what());
    }
    if (failed) {
      throw ShardCallbackError(
          machine, sequence,
          "process-shard: machine " + std::to_string(machine) +
              " threw in round " + std::to_string(sequence) + ": " + what);
    }
  }
}

void ProcessShardExecutor::take_frame(std::size_t channel, Frame& f) {
  Worker& w = workers_[channel];
  const auto refuse = [&](const std::string& why) {
    throw PumpError(
        TransportError::Kind::kUnexpected, w.shard,
        "process-shard: shard " + std::to_string(w.shard) + " sent " + why +
            " (kind " + std::to_string(static_cast<int>(f.kind)) +
            ", shard " + std::to_string(f.shard) + ", seq " +
            std::to_string(f.sequence) + ")");
  };
  if (f.shard != w.shard) refuse("a frame stamped with another shard");
  if (f.kind == FrameKind::kHeartbeat) return;  // the pump saw it: alive
  // Peer buckets carry their generation; every other frame the round.
  if ((f.kind != FrameKind::kPeerBucket && f.sequence != last_sequence_) ||
      w.got_status) {
    refuse("a frame out of turn");
  }
  switch (f.kind) {
    case FrameKind::kShardData:
      if (w.got_data) refuse("a second data frame");
      w.data.swap(f.payload);
      w.got_data = true;
      return;
    case FrameKind::kShardTelemetry:
      // The worker only sends its span buffer when the bootstrap's
      // telemetry flag was set, which is exactly when job_telemetry_ is.
      if (!job_telemetry_ || w.got_telemetry) refuse("a telemetry frame");
      obs::Telemetry::instance().merge_remote(f.payload, w.shard);
      w.got_telemetry = true;
      return;
    case FrameKind::kPeerBucket: {
      // A TCP worker's bucket for another worker: forwarded unopened
      // (its receiver checks it) on the destination's channel.
      const std::uint64_t dest =
          f.payload.size() >= 8 ? wire::load<std::uint64_t>(f.payload.data())
                                : 0;
      if (dest == 0 || dest > workers_.size() || dest == w.shard) {
        refuse("a peer bucket with no valid destination");
      }
      obs::count("exec.bytes_forwarded",
                 kFrameHeaderBytes + f.payload.size());
      pump_->forward(static_cast<std::size_t>(dest - 1), std::move(f));
      return;
    }
    case FrameKind::kShardStatus:
      if (!w.got_data || (job_telemetry_ && !w.got_telemetry)) {
        refuse("its status before its data");
      }
      w.status.swap(f.payload);
      w.got_status = true;
      pump_->watch(channel, false);
      return;
    default:
      refuse("an unexpected frame");
  }
}

std::string ProcessShardExecutor::reap_workers(
    std::uint32_t shard, std::chrono::milliseconds grace) {
  // The pump goes first: it refers to the channels closed below.
  pump_.reset();
  // Close every channel before reaping: a worker stuck writing into a
  // full socket dies with EPIPE instead of blocking waitpid forever.
  for (Worker& w : workers_) w.channel->close_now();
  const auto deadline = std::chrono::steady_clock::now() + grace;
  std::string exit = "never launched";
  for (Worker& w : workers_) {
    if (w.pid <= 0) {
      if (w.shard == shard) exit = "remote worker";
      continue;
    }
    int st = 0;
    for (;;) {
      const pid_t r = ::waitpid(w.pid, &st, WNOHANG);
      if (r != 0 && !(r < 0 && errno == EINTR)) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        // A stopped or wedged worker never exits on its own.
        ::kill(w.pid, SIGKILL);
        while (::waitpid(w.pid, &st, 0) < 0 && errno == EINTR) {
        }
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (w.shard == shard) exit = describe_exit(st);
  }
  workers_.clear();
  return exit;
}

void ProcessShardExecutor::fail_job(std::uint32_t shard,
                                    std::uint64_t sequence,
                                    const std::string& what) {
  job_failed_ = true;
  failed_shard_ = shard;
  const std::string failed_exit =
      reap_workers(shard, std::chrono::milliseconds(1000));
  throw WorkerError(shard, sequence,
                    "process-shard: shard " + std::to_string(shard) +
                        " worker failed in round " +
                        std::to_string(sequence) + " (" + failed_exit +
                        "): " + what);
}

void ProcessShardExecutor::end_job() {
  if (!job_active_) return;
  // Every round left the pump with nothing queued, so the channels sit
  // at a frame boundary.
  for (Worker& w : workers_) {
    try {
      write_frame(*w.channel, FrameKind::kJobTeardown, w.shard,
                  last_sequence_ + 1, {});
    } catch (...) {
      // Best effort: a dead worker is reaped below either way.
    }
  }
  reap_workers(0, silence_bound_);
  // The pool dies with the job: the next start_job forks its workers
  // before rebuilding it, keeping forks free of live pool threads.
  local_pool_.reset();
  job_active_ = false;
  job_failed_ = false;
  local_range_ = {0, 0};
}

}  // namespace mrlr::exec
