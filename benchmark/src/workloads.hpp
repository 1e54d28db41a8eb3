#pragma once
// The four workloads and the job-level helpers they share. A workload is
// a list of jobs (JobDef) plus a runner: batch workloads time
// jobs::run_job on one spec, serve-mixed drives a ServeDaemon with a
// closed loop over many small specs. Every instance is generated from
// --seed into a file first (in its own process), so the timed process
// starts, like a user would, from an input file.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "mrlr/jobs/job_result.hpp"
#include "mrlr/jobs/job_spec.hpp"

namespace mrlr::benchmark {

/// Fixed workload order; names as BENCHMARK.json lists them.
inline constexpr std::string_view kWorkloads[] = {
    "matching-serial", "matching-k4", "setcover-greedy", "serve-mixed"};

/// One job of a workload: its instance and its run parameters.
struct JobDef {
  std::string algorithm;  ///< "matching", "mis" or "set-cover-greedy"
  std::string file;       ///< instance file name inside Ctx::work_dir
  std::uint64_t size = 0; ///< vertices (graphs) or sets (set systems)
  double c = 0.32;        ///< graph density exponent, m = n^{1+c}
  double mu = 0.1;
  std::uint64_t instance_seed = 0;
  std::uint64_t param_seed = 1;
  std::uint64_t shards = 1;

  bool set_system() const { return algorithm == "set-cover-greedy"; }
};

/// Set-cover instances: universe = sets / 8, sets of 1..20 elements.
inline constexpr std::uint64_t kMaxSetSize = 20;
inline constexpr double kSetCoverEps = 0.3;

/// The jobs of `workload` at the sizes fixed for it (tiny under
/// --selftest). Throws std::invalid_argument for an unknown name.
std::vector<JobDef> workload_jobs(std::string_view workload, const Ctx& ctx);

/// Generator phase: writes every job's instance file and reports the
/// sequential reference weight of job i as detail "ref.seq_weight.<i>".
void generate_instances(const Ctx& ctx, const std::vector<JobDef>& jobs,
                        Report& r);

/// A job ready to run: the spec built from the instance file, its wire
/// encoding, and how long each set-up step took.
struct LoadedJob {
  jobs::JobSpec spec;
  std::size_t spec_bytes = 0;
  std::uint64_t file_bytes = 0;
  double load_s = 0.0;    ///< graph::read_graph_file / read_set_system
  double encode_s = 0.0;  ///< graph_job / set_system_job + encode_job_spec
};
LoadedJob load_job(const Ctx& ctx, const JobDef& def);

/// The untimed reference of a job: a serial run_job of its spec. Checks
/// the validator verdict and the approximation bound the paper proves
/// against the sequential reference weight, and returns the fingerprint
/// every later run of the spec must reproduce (forged under
/// Ctx::forge, which must make every check fail).
struct Reference {
  jobs::JobResult result;
  std::string fingerprint;
  double approx_ratio = 0.0;  ///< 0 for algorithms without one (MIS)
};
Reference make_reference(const Ctx& ctx, const JobDef& def,
                         std::size_t index, const jobs::JobSpec& spec,
                         Report& r);

/// Runs `spec` through jobs::run_job and checks the result against the
/// reference (validator verdict and fingerprint); a throw is a failure.
void run_checked(const jobs::JobSpec& spec, const Reference& ref,
                 Report& r);

/// Calls `rep` at least `min_reps` times and until `seconds` have
/// passed; returns the number of calls.
template <typename F>
std::uint64_t repeat_for(double seconds, std::uint64_t min_reps, F rep) {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t n = 0;
  while (n < min_reps || seconds_since(t0) < seconds) {
    rep();
    ++n;
  }
  return n;
}

/// Adds every kPerLayer contract metric (0 where the workload has no
/// such layer) from the per-pass medians in `s`, plus the absolute
/// worker-shard times as detail.
void emit_layer_metrics(const Samples& s, Report& r);

/// Untraced and traced passes, alternating, for 2 x `seconds`: the layer
/// samples plus obs.overhead_frac. Telemetry is on only during traced
/// passes; their obs export goes to Ctx::telemetry_out.
void trace_layers(const Ctx& ctx, double seconds,
                  std::span<const LoadedJob> jobs,
                  const std::vector<Reference>& refs, Samples& s,
                  Report& r);

/// The workload phase: set-up, references, warm-up, then the measured
/// end-to-end loop, or with Ctx::trace the per-layer passes.
void run_batch(const Ctx& ctx, const JobDef& def, Report& r);
void run_serve(const Ctx& ctx, const std::vector<JobDef>& defs, Report& r);

}  // namespace mrlr::benchmark
