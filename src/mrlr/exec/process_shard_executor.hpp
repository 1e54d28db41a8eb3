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
//     machine range, the shard table, the registered-round label table,
//     and — on the TCP path — the full job spec, which the worker
//     validates and acknowledges before any round ships. Fork workers
//     then receive one socket per other worker (the coordinator makes
//     each pair and passes the two ends over SCM_RIGHTS, keeping no
//     copy): the worker mesh. Nothing crosses the process boundary
//     implicitly — each round the coordinator ships a kRoundControl
//     frame carrying the round id, the invoke parameters, and the
//     worker's round input (ShardJobPlane::serialize_round_input): its
//     machines' inbox totals, the coordinator's records for them, and
//     which rounds' peer buckets complete the inbox. The worker runs
//     its machines against its own resident copy of that range's
//     state, keeps its own-shard bucket, sends every other worker its
//     bucket directly, and ships the coordinator its accounting, totals
//     and shard-0 bucket (serialize_machines). The coordinator encodes
//     shard 0's sends to workers (route_local_sends), then applies each
//     shard's data in shard order however the frames arrived — traces,
//     metrics, and delivery order stay byte-identical to
//     SerialExecutor. TCP workers have no mesh: their peer buckets
//     travel on the coordinator channel, and the coordinator forwards
//     them unopened.
//
//   * All frames move through one FramePump (frame_pump.hpp): round
//     controls go out to every worker at once, and data frames are read
//     in completion order. Every wait on a worker is bounded by
//     silence, not by round length: a worker that sends nothing — no
//     frame and no heartbeat — for the launcher's bootstrap timeout
//     fails the job with a WorkerError naming its shard and the round.
//
//   * Only registered rounds reach this backend, and their callbacks
//     must be "process-clean" (see Engine::define_round): they touch
//     only job-immutable data captured before start_job, per-machine
//     state that only that machine's own callbacks mutate
//     (worker-resident between rounds), invoke parameters and inbox
//     messages. Machines of shard 0 run in the coordinator, and central
//     rounds (the paper's "blue lines") never leave it, so
//     central-resident algorithm state keeps working unchanged.
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
// Plain run_machines has no job plane and so nothing to exchange:
// machines run in the coordinator, with SerialExecutor semantics.

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <sys/types.h>

#include "mrlr/exec/executor.hpp"
#include "mrlr/exec/frame_pump.hpp"
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

  void start_job(std::uint64_t num_machines, ShardJobPlane* plane) override;
  void run_job_round(std::uint64_t round_index, std::uint64_t round_id,
                     std::span<const std::uint64_t> params,
                     std::uint64_t num_machines, const MachineFn& fn,
                     ShardJobPlane* plane) override;
  void end_job() override;

  std::string_view name() const override { return "process-shard"; }
  unsigned num_threads() const override { return num_threads_; }
  unsigned num_shards() const { return num_shards_; }

 private:
  struct Worker {
    pid_t pid = -1;  // -1 for remote workers (not ours to reap)
    std::unique_ptr<ShardChannel> channel;  // coordinator end
    std::uint32_t shard = 0;
    std::uint64_t first = 0, last = 0;
    // Per round: the kRoundControl head (round id, params, plane input
    // head) and its pieces, the data frame as received, and which of the
    // worker's frames arrived.
    std::vector<std::byte> head;
    std::vector<std::span<const std::byte>> parts;
    std::vector<std::byte> data;
    std::vector<std::byte> status;
    bool got_data = false;
    bool got_telemetry = false;
    bool got_status = false;
  };

  /// Hands each frame worker `channel` sent in the current round to its
  /// place: data and status are kept for the shard-order apply,
  /// telemetry is merged, peer buckets are forwarded, and heartbeats
  /// only show the worker is alive.
  void take_frame(std::size_t channel, Frame& f);

  /// Marks the job failed, closes every channel (so a worker stuck
  /// writing dies with EPIPE instead of blocking waitpid), reaps every
  /// worker, and throws WorkerError naming `shard` with the failed
  /// worker's exit description appended.
  [[noreturn]] void fail_job(std::uint32_t shard, std::uint64_t sequence,
                             const std::string& what);

  /// Closes every channel and reaps the fork workers, killing any that
  /// has not exited within `grace` (a stopped worker never would).
  /// Returns how shard `shard`'s worker ended.
  std::string reap_workers(std::uint32_t shard,
                           std::chrono::milliseconds grace);

  unsigned num_shards_;
  unsigned num_threads_;
  // Sequence stamped on the last kRoundControl (engine round index + 1);
  // the teardown frame carries the next one.
  std::uint64_t last_sequence_ = 0;

  // Persistent-job state.
  std::vector<Worker> workers_;
  std::unique_ptr<FramePump> pump_;
  std::chrono::milliseconds silence_bound_{0};
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
};

}  // namespace mrlr::exec
