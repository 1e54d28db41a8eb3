#pragma once
// The job-replay layer of a multi-host worker process.
//
// A TCP worker holds no coordinator memory, so the bootstrap ships a
// JobSpec (job_spec.hpp) and the worker *re-runs the entire driver*
// from it: same algorithm, same instance bytes, same MrParams. Because
// every driver is deterministic in (instance, params), the replay
// reconstructs the exact engine state the coordinator's own driver
// built — same topology, same registered rounds, same pre-job preamble
// — at which point make_executor() hands the driver a
// WorkerShardExecutor (exec/shard_worker.hpp) that validates the
// bootstrap against the reconstructed plane, acks it, and serves this
// worker's shard over the wire. When the job tears down, JobServed
// unwinds the driver and the serve loop goes back to accepting
// connections.
//
// run_job() is also the single source of truth for results: the serial
// baseline, the TCP-backed run, the CLI, and the serve daemon all go
// through the same function, which returns a structured, versioned
// JobResult (job_result.hpp). "Byte-identical across backends" is a
// string comparison of fingerprint(run_job(spec)) — the same one-line
// rendering run_job used to return directly.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

#include "mrlr/exec/shard_channel.hpp"
#include "mrlr/graph/generators.hpp"
#include "mrlr/jobs/job_result.hpp"
#include "mrlr/jobs/job_spec.hpp"

namespace mrlr::jobs {

/// One registered algorithm: its vocabulary name plus what it needs
/// from the instance — the metadata the CLI uses to load/serialize the
/// right instance kind without a per-algorithm dispatch chain.
struct AlgorithmInfo {
  std::string_view name;
  JobSpec::InstanceKind instance = JobSpec::InstanceKind::kGraph;
  /// Graph algorithms only: the driver consumes edge weights, so the
  /// instance must carry them.
  bool weighted = false;
};

/// The full algorithm vocabulary in registry order — the one generated
/// list behind the CLI's usage() text, its dispatch, the worker
/// registry, and the serve daemon's admission check.
const std::vector<AlgorithmInfo>& known_algorithms();

/// Registry lookup; nullptr when `name` is not a registered algorithm.
const AlgorithmInfo* find_algorithm(std::string_view name);

/// True when `name` is a registered algorithm (the CLI vocabulary).
bool known_algorithm(std::string_view name);

/// The driver arguments that are not MrParams fields, as the CLI flags
/// spell them. Defaults match the CLI's.
struct DriverKnobs {
  std::uint32_t b = 2;  ///< b-matching: the capacity of every vertex
  double eps = 0.2;     ///< b-matching, set-cover-greedy
  /// vertex-cover: distribution of the per-vertex weights, drawn from
  /// Rng(spec.params.seed ^ 0xC0FFEE).
  graph::WeightDist vertex_weights = graph::WeightDist::kUniform;
};

/// Fills spec.extras with the extras spec.algorithm's runner reads (b
/// and eps for b-matching, w for vertex-cover, eps for
/// set-cover-greedy; nothing for the rest). `num_vertices` sizes
/// vertex-cover's weight vector.
void add_driver_extras(JobSpec& spec, const DriverKnobs& knobs,
                       std::uint64_t num_vertices);

/// Sets vertex-cover's extra "w" to the given per-vertex weights (one
/// per vertex of the spec's graph), for callers that pin their own.
void set_vertex_weights(JobSpec& spec, const std::vector<double>& w);

/// Runs the named driver on the spec's instance and returns its
/// structured result (solution hash + size, validator verdict, outcome
/// metrics, per-algorithm stats). Throws
/// exec::TransportError(kBadPayload) for an unknown algorithm or a
/// malformed spec. Inside a worker session the driver never returns —
/// exec::JobServed unwinds once the shard is served.
JobResult run_job(const JobSpec& spec);

/// decode_job_spec + run_job.
JobResult run_job_spec(std::span<const std::byte> bytes);

struct WorkerOptions {
  std::uint64_t max_jobs = 0;     ///< stop after N connections (0 = forever)
  std::ostream* log = nullptr;    ///< per-connection status lines
};

/// Serves worker connections on `listener` until max_jobs connections
/// have been handled (or forever). Per connection: handshake (refusing
/// version mismatches and duplicate (job, shard) registrations — a
/// reconnect after a drop cannot restore lost shard state, so it is
/// refused the same way), bootstrap decode, driver replay, shard
/// serving. A failed connection is logged and dropped; the loop keeps
/// accepting.
void worker_serve(exec::TcpListener& listener, const WorkerOptions& opts);

/// Loopback TCP worker fleet for tests and bench scenarios: forks
/// `workers` processes, each serving worker_serve on an ephemeral
/// 127.0.0.1 port, and kills them on destruction. endpoints() feeds
/// exec::ProcessBackendConfig::workers.
class ScopedTcpLoopback {
 public:
  explicit ScopedTcpLoopback(unsigned workers);
  ~ScopedTcpLoopback();

  ScopedTcpLoopback(const ScopedTcpLoopback&) = delete;
  ScopedTcpLoopback& operator=(const ScopedTcpLoopback&) = delete;

  const std::vector<exec::Endpoint>& endpoints() const {
    return endpoints_;
  }

 private:
  std::vector<exec::Endpoint> endpoints_;
  std::vector<pid_t> pids_;
};

}  // namespace mrlr::jobs
