#include "mrlr/exec/process_shard_executor.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

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

  std::uint64_t flags = launcher->ships_job_state() ? kBootstrapCarriesSpec
                                                    : std::uint64_t{0};
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
      workers_.push_back(Worker{lw.pid, std::move(lw.channel), s,
                                ranges[s].first, ranges[s].second});
      Worker& w = workers_.back();
      // A silent peer during handshake/bootstrap must fail typed, not
      // hang: arm the read timeout until the ack is in (fork-launched
      // children report death via EOF and use no timeout).
      if (timeout.count() > 0) w.channel->set_read_timeout(timeout);
      handshake_connect(*w.channel, s, nonce);
      JobBootstrap b;
      b.first = w.first;
      b.last = w.last;
      b.machines = num_machines;
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
      if (timeout.count() > 0) {
        w.channel->set_read_timeout(std::chrono::milliseconds(0));
      }
    } catch (const ExecError& e) {
      fail_job(w.shard, 0, e.what());
    }
  }

  if (job_telemetry_) {
    tel.add_counter("exec.workers_spawned", workers_.size());
    tel.add_counter("exec.state_bytes_shipped", shipped);
    tel.add_counter("exec.bootstrap_bytes_shipped", shipped);
    // Concurrent callback threads job-wide: every shard (this process
    // and each worker) runs its range on a num_threads_-wide pool.
    tel.add_counter("exec.worker_threads",
                    static_cast<std::uint64_t>(num_threads_) * shards);
  }

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

  // Ship every worker its round: id, invoke params, and the inbox state
  // of its machine range. Workers start their machines while shard 0
  // runs below. Every frame is encoded into, and later read into, the
  // one reused frame_ buffer.
  std::uint64_t shipped = 0;
  std::vector<std::byte>& payload = frame_.payload;
  for (Worker& w : workers_) {
    std::uint64_t t0 = telemetry ? tel.now_ns() : 0;
    payload.clear();
    append_u64(payload, round_id);
    append_u64(payload, params.size());
    for (const std::uint64_t p : params) append_u64(payload, p);
    plane->serialize_round_input(w.first, w.last, payload);
    if (telemetry) {
      const std::uint64_t t1 = tel.now_ns();
      tel.record_span(obs::Phase::kShardSerialize, t0, t1, sequence - 1,
                      "shard " + std::to_string(w.shard));
      t0 = t1;
    }
    try {
      write_frame(*w.channel, FrameKind::kRoundControl, w.shard, sequence,
                  payload);
    } catch (const ExecError& e) {
      fail_job(w.shard, sequence, e.what());
    }
    if (telemetry) {
      tel.record_span(obs::Phase::kShardTransport, t0, tel.now_ns(),
                      sequence - 1, "shard " + std::to_string(w.shard));
    }
    shipped += payload.size();
  }
  if (telemetry) tel.add_counter("exec.state_bytes_shipped", shipped);

  // Shard 0 runs here, in the coordinator: host-resident machine state
  // (notably the central machine's) persists across rounds. With
  // num_threads_ > 1 the range runs on shard 0's local pool, mirroring
  // what every worker does with its own range.
  std::exception_ptr local_error;
  std::uint64_t local_error_machine = 0;
  run_shard_range(local_pool_.get(), local_range_.first, local_range_.second,
                  fn, local_error, local_error_machine);

  // Collect shard results in shard order (= machine-id order, so the
  // apply order is deterministic even though workers finish whenever).
  std::uint64_t remote_error_machine = 0;
  std::string remote_error_what;
  bool remote_failed = false;
  for (Worker& w : workers_) {
    try {
      const std::uint64_t wait_start = telemetry ? tel.now_ns() : 0;
      expect_frame(*w.channel, frame_, FrameKind::kShardData, w.shard,
                   sequence);
      std::uint64_t apply_start = 0;
      if (telemetry) {
        apply_start = tel.now_ns();
        tel.record_span(obs::Phase::kWorkerWait, wait_start, apply_start,
                        sequence - 1, "shard " + std::to_string(w.shard));
      }
      plane->apply_machines(w.first, w.last, frame_.payload);
      if (telemetry) {
        tel.record_span(obs::Phase::kShardApply, apply_start, tel.now_ns(),
                        sequence - 1, "shard " + std::to_string(w.shard));
        // The worker only sends its span buffer when the bootstrap's
        // telemetry flag was set, which is exactly when job_telemetry_
        // is: the protocol shape is deterministic on both ends.
        expect_frame(*w.channel, frame_, FrameKind::kShardTelemetry,
                     w.shard, sequence);
        tel.merge_remote(frame_.payload, w.shard);
      }
      expect_frame(*w.channel, frame_, FrameKind::kShardStatus, w.shard,
                   sequence);
      std::span<const std::byte> p = frame_.payload;
      if (p.size() < 16) {
        throw TransportError(TransportError::Kind::kBadPayload,
                             "process-shard: status frame shorter than "
                             "its fixed fields");
      }
      const std::uint64_t flag = read_u64(p, 0);
      const std::uint64_t machine = read_u64(p, 8);
      p = p.subspan(16);
      if (flag > 1) {
        throw TransportError(TransportError::Kind::kBadPayload,
                             "process-shard: status frame has invalid "
                             "flag " + std::to_string(flag));
      }
      if (flag == 1 && !remote_failed) {
        remote_failed = true;
        remote_error_machine = machine;
        remote_error_what.assign(
            reinterpret_cast<const char*>(p.data()), p.size());
      }
    } catch (const ExecError& e) {
      fail_job(w.shard, sequence, e.what());
    }
  }

  // Executor contract: the lowest-id throwing machine wins. Shard 0's
  // machines precede every worker machine, and workers were scanned in
  // machine-id order.
  if (local_error) std::rethrow_exception(local_error);
  if (remote_failed) {
    throw ShardCallbackError(
        remote_error_machine, sequence,
        "process-shard: machine " + std::to_string(remote_error_machine) +
            " threw in round " + std::to_string(sequence) + ": " +
            remote_error_what);
  }
}

void ProcessShardExecutor::fail_job(std::uint32_t shard,
                                    std::uint64_t sequence,
                                    const std::string& what) {
  job_failed_ = true;
  failed_shard_ = shard;
  // Close every channel before reaping: a worker stuck writing into a
  // full socket dies with EPIPE instead of blocking waitpid forever.
  std::string failed_exit = "never launched";
  for (Worker& w : workers_) w.channel->close_now();
  for (Worker& w : workers_) {
    if (w.pid > 0) {
      int st = 0;
      ::waitpid(w.pid, &st, 0);
      if (w.shard == shard) failed_exit = describe_exit(st);
    } else if (w.shard == shard) {
      failed_exit = "remote worker";
    }
  }
  workers_.clear();
  throw WorkerError(shard, sequence,
                    "process-shard: shard " + std::to_string(shard) +
                        " worker failed in round " +
                        std::to_string(sequence) + " (" + failed_exit +
                        "): " + what);
}

void ProcessShardExecutor::end_job() {
  if (!job_active_) return;
  for (Worker& w : workers_) {
    try {
      write_frame(*w.channel, FrameKind::kJobTeardown, w.shard,
                  last_sequence_ + 1, {});
    } catch (...) {
      // Best effort: a dead worker is reaped below either way.
    }
  }
  for (Worker& w : workers_) w.channel->close_now();
  for (Worker& w : workers_) {
    if (w.pid > 0) {
      int st = 0;
      ::waitpid(w.pid, &st, 0);
    }
  }
  workers_.clear();
  // The pool dies with the job: the next start_job forks its workers
  // before rebuilding it, keeping forks free of live pool threads.
  local_pool_.reset();
  std::vector<std::byte>().swap(frame_.payload);
  job_active_ = false;
  job_failed_ = false;
  local_range_ = {0, 0};
}

}  // namespace mrlr::exec
