#pragma once
// The process-sharded backend: machines are partitioned into K
// contiguous shards; shard 0 runs in the calling (coordinator) process
// and each other shard runs in a persistent worker process spawned once
// at job start (Executor::start_job) and torn down at job end — not
// forked per round. With num_threads T > 1 every shard additionally
// runs its machine range on a shard-local ThreadPoolExecutor (K x T
// concurrent callbacks job-wide), with output still byte-identical to
// serial — docs/ARCHITECTURE.md covers why the composition is sound.
//
// Execution model and its contract:
//
//   * Workers launch at start_job, after the driver has registered
//     every round with the engine, through a WorkerLauncher
//     (worker_launcher.hpp): forked local children (the default) or TCP
//     connections to pre-started remote workers (--workers). Either
//     way, the channel opens with an explicit handshake (version, shard
//     id, job nonce) and a kJobSetup bootstrap carrying the worker's
//     machine range, the registered-round label table, and — on the TCP
//     path — the full job spec, which the worker validates and
//     acknowledges before any round ships. Nothing crosses the process
//     boundary implicitly —
//     each round the coordinator ships a kRoundControl frame carrying
//     the round id, the invoke parameters, and the serialized inboxes
//     of the worker's machine range (ShardJobPlane::
//     serialize_round_input), the worker runs its machines against its
//     own resident copy of that range's state, and ships the staged
//     arenas back through serialize_machines exactly as before. The
//     coordinator applies each shard's bytes and the engine's ordinary
//     id-ordered merge runs over the combined frame indexes — traces,
//     metrics, and delivery order stay byte-identical to
//     SerialExecutor.
//
//   * A driver is "process-clean" when its non-central callbacks touch
//     only (a) job-immutable data captured before start_job, (b)
//     per-machine state that only that machine's own callbacks mutate
//     (worker-resident between rounds), (c) invoke parameters and inbox
//     messages. Machines of shard 0 — including the central machine,
//     the paper's "blue lines" — run in the coordinator, so
//     central-resident algorithm state keeps working unchanged. All
//     drivers in the tree are ported (see README "Execution
//     backends"); ad-hoc run_round closures cannot run under this
//     backend with K > 1 and fail with a typed ExecError.
//
//   * Failure is loud, never a hang: a worker that exits early, is
//     killed, or ships malformed bytes surfaces as a typed WorkerError
//     or TransportError naming the shard and round, the job is marked
//     failed, and every further round refuses to run (no mid-job
//     reconnect — a respawned worker could not reconstruct the dead
//     worker's resident state). A callback that throws inside a worker
//     is rethrown in the coordinator as ShardCallbackError after the
//     barrier (lowest machine id wins, matching the Executor
//     contract).
//
// Without a data plane (plain run_machines, central-only rounds) there
// is nothing to exchange, so machines run serially in the coordinator —
// the backend degenerates to SerialExecutor semantics.

#include <cstdint>
#include <memory>
#include <vector>

#include <sys/types.h>

#include "mrlr/exec/executor.hpp"
#include "mrlr/exec/shard_transport.hpp"

namespace mrlr::exec {

class ThreadPoolExecutor;

class ProcessShardExecutor final : public Executor {
 public:
  /// Backend with `num_shards` >= 1 shards (clamped to 256: beyond
  /// that, worker-spawn and per-round shipping cost dwarfs any win on
  /// one host). `num_threads` (>= 1, clamped to 1024) is the
  /// shard-local pool size: every shard — the coordinator's own shard 0
  /// and each worker — runs its machine range on that many threads, so
  /// the job computes on up to K x T threads while staying
  /// byte-identical (the engine's merge is id-ordered). Pools are built
  /// strictly after the workers fork and torn down at end_job, so no
  /// live pool thread ever crosses a fork boundary.
  explicit ProcessShardExecutor(unsigned num_shards,
                                unsigned num_threads = 1);
  ~ProcessShardExecutor() override;

  void run_machines(std::uint64_t first, std::uint64_t last,
                    const MachineFn& fn) override;

  /// Ad-hoc sharded rounds are not supported by persistent workers
  /// (there is no way to ship an arbitrary closure to a long-lived
  /// process): with a data plane and K > 1 this throws ExecError.
  /// Without a data plane it degenerates to serial.
  void run_machines_sharded(std::uint64_t first, std::uint64_t last,
                            const MachineFn& fn,
                            ShardDataPlane* data_plane) override;

  void start_job(std::uint64_t num_machines, ShardJobPlane* plane) override;
  void run_job_round(std::uint64_t round_id,
                     std::span<const std::uint64_t> params,
                     std::uint64_t num_machines, const MachineFn& fn,
                     ShardJobPlane* plane) override;
  void end_job() override;

  std::string_view name() const override { return "process-shard"; }
  unsigned num_threads() const override { return num_threads_; }
  unsigned num_shards() const { return num_shards_; }

  /// Rounds executed so far (the sequence number stamped on frames and
  /// reported by WorkerError / ShardCallbackError).
  std::uint64_t rounds_run() const { return round_seq_; }

 private:
  struct Worker {
    pid_t pid;  // -1 for remote workers (not ours to reap)
    std::unique_ptr<ShardChannel> channel;  // coordinator end
    std::uint32_t shard;
    std::uint64_t first, last;
  };

  /// Marks the job failed, closes every channel (so a worker stuck
  /// writing dies with EPIPE instead of blocking waitpid), reaps every
  /// worker, and throws WorkerError naming `shard` with the failed
  /// worker's exit description appended.
  [[noreturn]] void fail_job(std::uint32_t shard, std::uint64_t sequence,
                             const std::string& what);

  unsigned num_shards_;
  unsigned num_threads_;
  std::uint64_t round_seq_ = 0;

  // Persistent-job state.
  std::vector<Worker> workers_;
  // Shard 0's own pool (num_threads_ > 1 only); created at start_job
  // after every worker has forked and reset at end_job so the next
  // job's forks see no live threads.
  std::unique_ptr<ThreadPoolExecutor> local_pool_;
  std::pair<std::uint64_t, std::uint64_t> local_range_{0, 0};
  bool job_active_ = false;
  bool job_failed_ = false;
  std::uint32_t failed_shard_ = 0;
  // Telemetry enablement captured at spawn: workers inherit the flag at
  // fork, so the frame protocol (telemetry frame present or not) is
  // decided once per job and both ends always agree, even if the
  // coordinator's recorder is toggled mid-job.
  bool job_telemetry_ = false;
  // The one frame buffer of the job: every kRoundControl is encoded
  // into its payload and every worker frame read into it, so
  // steady-state rounds reuse its capacity. One buffer for all workers,
  // not one each: frames are handled one at a time, and per-worker
  // buffers would each grow to the largest frame. Freed at end_job.
  Frame frame_;
};

}  // namespace mrlr::exec
