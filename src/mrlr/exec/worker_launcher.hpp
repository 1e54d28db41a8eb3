#pragma once
// How the process-shard coordinator obtains its workers — the one seam
// between "fork a local child" and "connect to a worker on another
// host". Both launch modes hand back a connected ShardChannel and from
// that point on are indistinguishable: the same handshake, the same
// kJobSetup bootstrap, the same round protocol.
//
//   * ForkLauncher — today's local mode. Forks a child per worker shard
//     (shards 1..K-1 — shard 0 stays in the coordinator) over a
//     socketpair; the child serves forked_worker_main against the job
//     plane it inherited at fork. It still receives and validates the
//     full wire bootstrap (minus the job spec — its state arrived via
//     fork), so the fork path exercises the exact code path a remote
//     worker does.
//
//   * TcpLauncher — multi-host mode. Connects to pre-started worker
//     processes (`mrlr_cli worker --listen`) at the configured
//     endpoints, one per worker shard (a K-shard job needs K-1
//     endpoints), with a bounded connect timeout and
//     refused-connection backoff. The bootstrap ships the full job spec
//     so the worker reconstructs everything from the wire.
//
// Mode selection is ambient (ProcessBackendConfig): drivers build their
// executors deep inside algorithm code via make_executor(threads,
// shards) and cannot thread a launcher argument through, so the CLI /
// tests install a scoped config and every ProcessShardExecutor built
// under it uses the TCP launcher.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include <sys/types.h>

#include "mrlr/exec/shard_channel.hpp"

namespace mrlr::exec {

class ShardJobPlane;

/// Default bound on a silent worker: during handshake and bootstrap,
/// and — as the frame pump's silence bound — during every round.
inline constexpr std::chrono::milliseconds kDefaultWorkerTimeout{10000};

/// One launched worker: a connected channel, plus the child pid when
/// the worker is a local fork (-1 for remote workers — they are not
/// ours to reap).
struct LaunchedWorker {
  pid_t pid = -1;
  std::unique_ptr<ShardChannel> channel;
};

class WorkerLauncher {
 public:
  virtual ~WorkerLauncher() = default;

  /// Produces the connected worker for `shard` (>= 1; shard 0 is the
  /// coordinator itself). Throws TransportError on failure — typed,
  /// within the timeout, never a hang.
  virtual LaunchedWorker launch(std::uint32_t shard,
                                std::uint64_t nonce) = 0;

  /// Whether launched workers start from nothing and need the job spec
  /// shipped in the bootstrap (TCP), or inherited the job state at fork
  /// and only need the validation fields (fork).
  virtual bool ships_job_state() const = 0;

  /// Bound on how long the coordinator may wait for this launcher's
  /// workers during handshake and bootstrap ack, and on how long a
  /// worker may stay silent during a round.
  virtual std::chrono::milliseconds bootstrap_timeout() const = 0;

  virtual std::string_view name() const = 0;
};

/// Forks a local child per worker shard (K-1 children for K shards)
/// over a socketpair.
class ForkLauncher final : public WorkerLauncher {
 public:
  ForkLauncher(ShardJobPlane* plane, std::uint64_t num_machines,
               std::chrono::milliseconds timeout = kDefaultWorkerTimeout);

  LaunchedWorker launch(std::uint32_t shard, std::uint64_t nonce) override;
  bool ships_job_state() const override { return false; }
  std::chrono::milliseconds bootstrap_timeout() const override {
    // A dead child surfaces as EOF on the socketpair, but a stopped one
    // does not: fork workers get the same bound as remote ones.
    return timeout_;
  }
  std::string_view name() const override { return "fork"; }

 private:
  ShardJobPlane* plane_;
  std::uint64_t num_machines_;
  std::chrono::milliseconds timeout_;
  std::vector<int> coordinator_fds_;  ///< parent ends handed out so far;
                                      ///< each new child closes them all
};

/// Connects to pre-started workers at fixed endpoints: shard s uses
/// endpoints[s - 1].
class TcpLauncher final : public WorkerLauncher {
 public:
  TcpLauncher(std::vector<Endpoint> endpoints,
              std::chrono::milliseconds connect_timeout);

  LaunchedWorker launch(std::uint32_t shard, std::uint64_t nonce) override;
  bool ships_job_state() const override { return true; }
  std::chrono::milliseconds bootstrap_timeout() const override {
    return connect_timeout_;
  }
  std::string_view name() const override { return "tcp"; }

 private:
  std::vector<Endpoint> endpoints_;
  std::chrono::milliseconds connect_timeout_;
};

// ------------------------------------------------- backend selection --

/// Ambient configuration of the process backend, installed by the CLI
/// (--workers) or tests. With a non-empty worker list every
/// ProcessShardExecutor job launches over TCP; otherwise it forks.
/// connect_timeout bounds connecting, the bootstrap, and a worker's
/// silence during a round, in both launch modes.
struct ProcessBackendConfig {
  std::vector<Endpoint> workers;
  std::chrono::milliseconds connect_timeout{kDefaultWorkerTimeout};
  /// Opaque jobs-layer spec shipped in the bootstrap when the launcher
  /// ships job state (empty = the coordinator has nothing to ship and
  /// TCP workers will refuse the job).
  std::vector<std::byte> job_spec;
};

/// The active config, or nullptr (fork mode).
const ProcessBackendConfig* process_backend_config();

/// Installs `config` for the current scope, restoring the previous one
/// on destruction (configs nest; tests rely on that).
class ScopedProcessBackendConfig {
 public:
  explicit ScopedProcessBackendConfig(ProcessBackendConfig config);
  ~ScopedProcessBackendConfig();

  ScopedProcessBackendConfig(const ScopedProcessBackendConfig&) = delete;
  ScopedProcessBackendConfig& operator=(const ScopedProcessBackendConfig&) =
      delete;

 private:
  ProcessBackendConfig config_;
  const ProcessBackendConfig* prev_;
};

/// Picks the launcher for a job of `shards` shards (including the
/// coordinator's own shard 0): TCP when a config with workers is
/// installed — throwing ExecError if it lists fewer than shards - 1
/// endpoints — else fork.
std::unique_ptr<WorkerLauncher> make_worker_launcher(
    ShardJobPlane* plane, std::uint64_t num_machines, unsigned shards);

}  // namespace mrlr::exec
