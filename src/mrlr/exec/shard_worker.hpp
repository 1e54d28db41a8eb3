#pragma once
// The worker side of the process-shard backend, shared by both launch
// paths: a forked child and a TCP worker serve the exact same wire
// protocol from the exact same code.
//
// Job bootstrap (kJobSetup, sequence 0) — the explicit replacement for
// "fork inherits a COW snapshot". The coordinator ships everything a
// worker must agree on before serving rounds:
//
//   * the worker's machine range and the total machine count,
//   * the shard table: every shard's machine range, in shard order, so
//     a worker can bucket its sends by destination shard (the ranges
//     must be contiguous, cover every machine, and include the worker's
//     own range),
//   * the registered-round identity table (the label of every round,
//     in registration order) — a worker whose own registry differs in
//     count or in any label refuses the job typed instead of invoking
//     the wrong closure,
//   * the job nonce and flags (telemetry on/off; whether a job spec is
//     attached; whether a shard-local thread count follows),
//   * optionally the shard-local thread count: each worker runs its
//     machine range on a pool of that many threads (--threads composed
//     with --shards), staying byte-identical because the coordinator's
//     merge is id-ordered,
//   * optionally an opaque job spec (jobs/job_spec.hpp): algorithm
//     name, parameters, and the full serialized instance, from which a
//     worker started from nothing (`mrlr_cli worker`) re-runs the
//     driver deterministically and reconstructs the identical round
//     registry and captured state. Fork-launched workers inherit that
//     state, so their bootstrap ships without the spec — but they
//     still validate the same frames over the same channel.
//
// The worker answers with kBootstrapAck (ok flag + refusal text), so
// every bootstrap mismatch surfaces as a typed error on the
// coordinator before any round ships. After the ack, rounds are served
// by serve_job_rounds — the one round loop both worker kinds run.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mrlr/exec/executor.hpp"
#include "mrlr/exec/shard_transport.hpp"

namespace mrlr::exec {

// ------------------------------------------------------- bootstrap --

/// Flag bits of JobBootstrap::flags.
inline constexpr std::uint64_t kBootstrapCarriesSpec = 1ull << 0;
inline constexpr std::uint64_t kBootstrapTelemetry = 1ull << 1;
/// A per-shard thread count > 1 trails the encoding. The field is
/// gated behind this flag so a T=1 bootstrap is byte-identical to the
/// pre-composition wire format: an old worker handed a T>1 job refuses
/// it typed ("unknown flag bits"), and a new worker reading an old
/// coordinator's bootstrap defaults to serial.
inline constexpr std::uint64_t kBootstrapThreads = 1ull << 2;
/// Fork workers only: after the ack, the coordinator hands the worker
/// one socket per other worker shard (receive_peer_channels), over
/// which the two exchange their record buckets directly. Without it a
/// worker's peer buckets travel through the coordinator (TCP).
inline constexpr std::uint64_t kBootstrapPeerMesh = 1ull << 3;

struct JobBootstrap {
  std::uint64_t first = 0;     ///< worker machine range [first, last)
  std::uint64_t last = 0;
  std::uint64_t machines = 0;  ///< total machine count of the job
  /// Machine range of every shard, in shard order (shard 0 = the
  /// coordinator's).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> shard_ranges;
  std::uint64_t flags = 0;
  std::uint64_t nonce = 0;     ///< job identity (duplicate-shard policy)
  std::uint64_t threads = 1;   ///< shard-local pool size; on the wire
                               ///< only when kBootstrapThreads is set
  std::vector<std::string> round_labels;  ///< registration order
  std::vector<std::byte> job_spec;  ///< opaque jobs-layer payload;
                                    ///< meaningful iff
                                    ///< kBootstrapCarriesSpec is set
};

std::vector<std::byte> encode_bootstrap(const JobBootstrap& b);

/// Throws TransportError(kBadPayload) on anything malformed, including
/// a shard table whose ranges are empty, not contiguous, do not cover
/// [0, machines), or do not include [first, last).
JobBootstrap decode_bootstrap(std::span<const std::byte> bytes);

/// Worker-side check of the bootstrap against the plane it will serve
/// as shard `shard`: its shard-table entry, the machine count, and the
/// full round-label table. Throws TransportError(kUnexpected) naming
/// the first mismatch.
void validate_bootstrap(const JobBootstrap& b, const ShardJobPlane& plane,
                        std::uint64_t num_machines, std::uint32_t shard);

/// Aligns the worker's telemetry recorder with the job's flag: enables
/// (and tags the shard) when the bootstrap says so, disables otherwise
/// — a TCP worker starts from nothing and a forked worker inherits the
/// coordinator's recorder, and after this call both behave identically.
void configure_worker_telemetry(const JobBootstrap& b, std::uint32_t shard);

/// Worker -> coordinator bootstrap verdict (kBootstrapAck, sequence 0).
void send_bootstrap_ack(ShardChannel& ch, std::uint32_t shard, bool ok,
                        std::string_view error);

/// Coordinator side: reads the ack and throws WorkerError(shard, 0)
/// carrying the worker's refusal text when the worker did not accept.
void expect_bootstrap_ack(ShardChannel& ch, std::uint32_t shard);

// ----------------------------------------------------- round serving --

/// Worker side of the peer-channel handoff (kBootstrapPeerMesh): reads
/// one descriptor per other worker shard from `ch` (send_descriptor,
/// tagged with the peer's shard), echoing each tag, and returns the
/// channels indexed by shard (null for shard 0 and for `shard`).
/// Throws TransportError on a missing, duplicate or out-of-range peer.
std::vector<std::unique_ptr<ShardChannel>> receive_peer_channels(
    ShardChannel& ch, std::uint32_t shard, const JobBootstrap& b);

/// Serves kRoundControl frames for [b.first, b.last) against `plane`
/// until a clean kJobTeardown (returns) — the shared loop behind both
/// worker kinds. One frame pump (frame_pump.hpp) carries the
/// coordinator channel and, on a fork mesh, the `peers` channels
/// (indexed by shard; empty over TCP, where peer buckets travel via the
/// coordinator). The machines run on a compute thread while this thread
/// keeps the pump turning: peer buckets arrive, and heartbeats go out,
/// while the callbacks run. When b.threads > 1 the range runs on a
/// shard-local ThreadPoolExecutor built here (after any fork, so the
/// pool's threads never cross a fork boundary). Callback exceptions
/// are reported per round via kShardStatus; protocol violations and
/// I/O failures throw (TransportError), which the caller turns into
/// _exit (forked worker) or a dropped connection (TCP worker).
void serve_job_rounds(ShardChannel& ch, std::uint32_t shard,
                      ShardJobPlane& plane, const JobBootstrap& b,
                      std::vector<std::unique_ptr<ShardChannel>> peers = {});

/// Forked-worker entry point: handshake, bootstrap against the
/// inherited plane, ack, peer-channel handoff, serve, _exit. Never returns and never unwinds
/// into the coordinator's stack.
[[noreturn]] void forked_worker_main(FdChannel& ch, std::uint32_t shard,
                                     std::uint64_t nonce,
                                     ShardJobPlane* plane,
                                     std::uint64_t num_machines);

// ------------------------------------------------ TCP worker session --

/// Ambient state of a worker process that is replaying a job spec: the
/// connected channel and the decoded bootstrap. Installed by the jobs
/// serving loop before the driver runs; make_executor() consults it so
/// the driver's own Engine transparently gets a WorkerShardExecutor.
struct WorkerSession {
  ShardChannel* channel = nullptr;
  std::uint32_t shard = 0;
  JobBootstrap bootstrap;
  bool acked = false;   ///< bootstrap verdict sent
  bool served = false;  ///< rounds served to clean teardown
};

WorkerSession* active_worker_session();
void set_active_worker_session(WorkerSession* session);

/// Thrown out of the replayed driver when its job reached a clean
/// teardown. Deliberately not a std::exception: nothing between the
/// executor and the jobs serving loop may swallow it.
struct JobServed {};

/// The executor a replayed driver gets inside a TCP worker process. The
/// driver's pre-job central rounds replay the coordinator's preamble
/// locally without reaching the executor; the first start_job validates
/// the session bootstrap, acks it, serves the round loop, and throws
/// JobServed to unwind the driver once the job tears down.
class WorkerShardExecutor final : public Executor {
 public:
  explicit WorkerShardExecutor(WorkerSession* session);

  void run_machines(std::uint64_t first, std::uint64_t last,
                    const MachineFn& fn) override;
  [[noreturn]] void start_job(std::uint64_t num_machines,
                              ShardJobPlane* plane) override;
  void run_job_round(std::uint64_t round_index, std::uint64_t round_id,
                     std::span<const std::uint64_t> params,
                     std::uint64_t num_machines, const MachineFn& fn,
                     ShardJobPlane* plane) override;
  void end_job() override {}  // unwound via JobServed; nothing to tear down

  std::string_view name() const override { return "worker-shard"; }
  // The bootstrap's thread count governs the served job rounds, so it
  // is what we report.
  unsigned num_threads() const override;

 private:
  WorkerSession* session_;
};

}  // namespace mrlr::exec
