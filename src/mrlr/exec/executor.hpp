#pragma once
// Execution backends for the round engine: how the M simulated machines
// of one registered round are mapped onto OS threads and processes.
// Central rounds never reach an executor — the central machine always
// runs in the calling process — so a backend only ever runs the
// registered callbacks of the engine's job (start_job, run_job_round,
// end_job).
//
// Machines within a round are data-independent — each reads only its own
// inbox and writes only its own staging outbox and accounting slots — so
// an Executor is free to run them in any order and on any thread. The
// engine restores full determinism after the barrier by merging staged
// messages in machine-id order, which makes traces, metrics, and
// algorithm outputs byte-identical across backends and thread counts.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

namespace mrlr::exec {

/// Worker side: the peer record bucket `sender` shard sent this worker
/// in the job's `generation`-th registered round (counted from 1 by
/// both ends: the engine per invoked round, a worker per round control;
/// central rounds, which never reach a worker, are not counted).
using PeerBucketFn = std::function<std::span<const std::byte>(
    std::uint32_t sender, std::uint64_t generation)>;

/// The engine's job state as an out-of-process backend sees it. Rounds
/// are *registered* (closures defined before the job starts, inherited
/// by workers at spawn) and then *invoked* by id with a small parameter
/// vector, so a long-lived worker never needs a closure shipped to it.
/// After the setup frame a worker reads nothing from coordinator
/// memory. In-process backends never touch the wire side.
///
/// The job's machines are split into K contiguous shards; shard 0 runs
/// in the coordinator and holds the central machine. Messages cross
/// the wire as *records* (from, to, len, payload), one encoding for
/// every direction. Each round:
///   1. the coordinator ships worker B its round input
///      (serialize_round_input): its machines' inbox totals, the
///      coordinator's records for them, and which round's peer buckets
///      complete its inbox (one generation, see PeerBucketFn; none when
///      a central round ran last). B gathers those buckets
///      (peer_generation) and assembles its inbox (apply_round_input);
///   2. every shard runs its machines; the coordinator then encodes
///      shard 0's sends bound for other shards onto their streams
///      (route_local_sends);
///   3. each worker splits its sends by destination shard
///      (serialize_machines): its accounting, per-destination totals
///      and the shard-0 bucket go to the coordinator, its own bucket
///      stays local, and every other bucket goes straight to its
///      destination worker. The coordinator decodes the shard-0 part
///      into its staging arenas and adds the totals to the next inputs
///      (apply_machines), in shard order;
///   4. the engine's ordinary id-ordered merge, audit and delivery run
///      over shard 0's destinations, and the next inputs name this
///      round's generation. A round that throws at any step ends the
///      job: the engine never calls the executor again, except for
///      end_job, so no input ever has to carry a failed round's traffic.
class ShardJobPlane {
 public:
  virtual ~ShardJobPlane() = default;

  /// Both sides, once per job before any other data-plane call:
  /// `bounds` holds the K + 1 shard boundaries (shard s owns machines
  /// [bounds[s], bounds[s+1]); bounds[0] = 0, bounds[K] = the machine
  /// count) and `own` is the shard this process serves (0 = the
  /// coordinator).
  virtual void set_shards(std::span<const std::uint64_t> bounds,
                          std::uint32_t own) = 0;

  /// Coordinator side, once per worker shard at the start of each
  /// round: appends worker shard `shard`'s round input head to `out`
  /// and its record bytes to `stream` as pieces that stay valid until
  /// the round ends.
  virtual void serialize_round_input(
      std::uint32_t shard, std::vector<std::byte>& out,
      std::vector<std::span<const std::byte>>& stream) = 0;

  /// Worker side, before apply_round_input: the generation whose peer
  /// buckets the round input `bytes` names, 0 for none. Throws
  /// TransportError(kBadPayload) on malformed bytes.
  virtual std::uint64_t peer_generation(
      std::span<const std::byte> bytes) const = 0;

  /// Worker side: installs the round input of the own shard — `bytes`
  /// plus the peer buckets it names, read through `buckets` — and
  /// resets its per-round scratch. Must validate everything and throw
  /// TransportError(kBadPayload) on anything malformed.
  virtual void apply_round_input(std::span<const std::byte> bytes,
                                 const PeerBucketFn& buckets) = 0;

  /// Worker side, after the callbacks ran: fills parts[0] with the
  /// coordinator's part of the own shard's results (accounting slots,
  /// per-destination totals, bucket lengths, the shard-0 bucket) and
  /// parts[b], b >= 1, with the records bound for shard b.
  virtual void serialize_machines(
      std::vector<std::vector<std::byte>>& parts) = 0;

  /// Coordinator side, after shard 0's machines ran and before any
  /// apply_machines of the round: moves shard 0's sends bound for other
  /// shards onto those shards' outgoing streams. Idempotent within a
  /// round.
  virtual void route_local_sends() = 0;

  /// Coordinator side: installs worker shard `shard`'s part of its
  /// results, in shard order. Must validate the bytes and throw
  /// TransportError(kBadPayload) on anything malformed.
  virtual void apply_machines(std::uint32_t shard,
                              std::span<const std::byte> bytes) = 0;

  /// Runs the registered round `round_id` on machine `machine` with the
  /// invoke parameters (worker side, and coordinator side for shard 0).
  virtual void run_registered(std::uint64_t round_id, std::uint64_t machine,
                              std::span<const std::uint64_t> params) = 0;

  /// Number of rounds registered before the job started; workers
  /// validate this against the setup frame so a coordinator/worker
  /// registry mismatch fails typed instead of invoking the wrong round.
  virtual std::uint64_t registered_rounds() const = 0;

  /// Label of registered round i (i < registered_rounds()), in
  /// registration order. The job bootstrap ships the full label table so
  /// a worker whose registry diverged in *content* — not just count —
  /// refuses the job instead of invoking the wrong closure.
  virtual std::string_view round_label(std::uint64_t i) const = 0;
};

/// Abstract machine-range runner.
class Executor {
 public:
  /// Per-machine callback; the argument is the machine id.
  using MachineFn = std::function<void(std::uint64_t)>;

  virtual ~Executor() = default;

  /// Invokes fn(m) exactly once for every m in [first, last). All
  /// invocations have completed (the round barrier) when this returns.
  /// No ordering is promised between machines; callbacks must touch only
  /// machine-disjoint state. If callbacks throw, the exception of the
  /// lowest-id throwing machine is rethrown after the barrier.
  virtual void run_machines(std::uint64_t first, std::uint64_t last,
                            const MachineFn& fn) = 0;

  /// Starts a persistent job: `plane` owns the registered rounds and
  /// the machine-range state for [0, num_machines). Backends with
  /// long-lived workers spawn them here (exactly once per job) and ship
  /// each worker its range over setup frames; in-process backends need
  /// no job lifecycle and ignore the call.
  virtual void start_job(std::uint64_t num_machines, ShardJobPlane* plane) {
    (void)num_machines;
    (void)plane;
  }

  /// Runs one registered round of the active job. `round_index` is the
  /// engine's 0-based count of rounds run before this one, central
  /// rounds included; worker-backed backends stamp round_index + 1 on
  /// the round's frames and attribute worker spans to round_index. `fn`
  /// is the coordinator-local form of the round (id -> run_registered
  /// bound by the caller); in-process backends just run it over every
  /// machine. Worker-backed backends ship (round_id, params, round
  /// inputs) to each worker instead and run only their local machines
  /// through `fn`. The exception contract matches run_machines (lowest-id
  /// throwing machine wins).
  virtual void run_job_round(std::uint64_t round_index,
                             std::uint64_t round_id,
                             std::span<const std::uint64_t> params,
                             std::uint64_t num_machines, const MachineFn& fn,
                             ShardJobPlane* plane) {
    (void)round_index;
    (void)round_id;
    (void)params;
    (void)plane;
    run_machines(0, num_machines, fn);
  }

  /// Ends the active job: worker-backed backends send teardown frames
  /// and reap their workers. Must be safe to call without a job and
  /// after a job failure; must not throw.
  virtual void end_job() {}

  /// Backend name for traces and --help output.
  virtual std::string_view name() const = 0;

  /// Number of OS threads that may run callbacks concurrently (>= 1).
  virtual unsigned num_threads() const = 0;
};

/// Builds a backend from the shared `num_threads` knob (Topology,
/// MrParams, --threads all use the same convention):
///   1  -> SerialExecutor (the historical sequential simulation),
///   N>1-> ThreadPoolExecutor with N persistent workers (clamped to
///         1024 — OS thread counts beyond that only add overhead;
///         Executor::num_threads() reports the effective value),
///   0  -> ThreadPoolExecutor sized to the hardware.
std::unique_ptr<Executor> make_executor(std::uint64_t num_threads);

/// As above, plus the `num_shards` knob: when num_shards > 1 the result
/// is a ProcessShardExecutor with that many persistent per-job worker
/// shards. The knobs compose: each shard (the coordinator's shard 0 and
/// every worker) runs its machine range on a shard-local thread pool of
/// the resolved num_threads (1 = serial within the shard, 0 = hardware),
/// giving up to K x T concurrent callbacks with traces, metrics, and
/// results byte-identical to serial.
std::unique_ptr<Executor> make_executor(std::uint64_t num_threads,
                                        std::uint64_t num_shards);

}  // namespace mrlr::exec
