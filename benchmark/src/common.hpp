#pragma once
// Shared pieces of mrlr_benchmark: the metric vocabulary (names and
// units, mirrored by BENCHMARK.json), the per-workload report that a
// workload child process sends to the coordinating parent over a pipe,
// sample statistics, clocks, and the fork/watchdog helper that runs each
// phase of a workload in its own process group.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <sys/resource.h>

namespace mrlr::benchmark {

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

/// End-to-end metrics: printed by every workload when tracing is off.
/// Order and units must match BENCHMARK.json (the self-test checks it).
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"job_s_p50", "s"},
    {"jobs_per_s", "jobs/s"},
    {"cpu_s_per_job", "s"},
    {"peak_rss_mb", "MiB"},
    {"rounds", "count"},
    {"max_machine_words", "words"},
    {"approx_ratio", "ratio"},
};

/// Per-layer metrics: printed by every workload in the traced run. A
/// layer the workload does not use reads 0. Times that exist only on
/// one workload (worker shards, the serve daemon) are given as shares
/// of the job's time, so every time-valued metric here is measured on
/// every workload; their absolute values are in the results file.
inline constexpr MetricDef kPerLayer[] = {
    {"instance.load_s", "s"},
    {"instance.bytes", "bytes"},
    {"instance.validate_s", "s"},
    {"jobs.spec_encode_s", "s"},
    {"jobs.spec_bytes", "bytes"},
    {"jobs.instance_decode_s", "s"},
    {"core.driver_s", "s"},
    {"core.host_s", "s"},
    {"core.resamples", "count"},
    {"mrc.rounds", "count"},
    {"mrc.shuffle_words", "words"},
    {"mrc.max_central_inbox", "words"},
    {"mrc.round_s", "s"},
    {"mrc.callback_s", "s"},
    {"mrc.arena_merge_s", "s"},
    {"mrc.central_s", "s"},
    {"mrc.slab_reuses", "count"},
    {"exec.worker_wait_share", "ratio"},
    {"exec.worker_callback_share_max", "ratio"},
    {"exec.shard_serialize_share_max", "ratio"},
    {"exec.shard_transport_share_max", "ratio"},
    {"exec.child_cpu_share", "ratio"},
    {"exec.wire_bytes_out", "bytes"},
    {"exec.wire_bytes_in", "bytes"},
    {"exec.frames_sent", "count"},
    {"exec.workers_spawned", "count"},
    {"exec.wire_bytes_per_shuffle_byte", "ratio"},
    {"serve.admission_share", "ratio"},
    {"serve.queue_wait_share", "ratio"},
    {"serve.run_share", "ratio"},
    {"serve.protocol_share", "ratio"},
    {"serve.latency_p99_over_p50", "ratio"},
    {"serve.jobs_rejected", "count"},
    {"serve.jobs_failed", "count"},
    {"obs.overhead_frac", "ratio"},
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one phase child (generator or workload) reports to the parent.
/// `metrics` are the contract metrics of the run's mode; `detail` holds
/// informational values (absolute per-layer times, reference weights the
/// generator computed).
struct Report {
  std::vector<Metric> metrics;
  std::vector<Metric> detail;
  std::vector<std::pair<std::string, std::string>> config;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void metric(std::string_view name, double value);
  void add_detail(std::string name, double value, std::string unit);
  void set_config(std::string key, std::string value);
  /// Counts one checked job; a failed check also records why.
  void check(bool ok, const std::string& what);
  void fail(const std::string& what);

  /// Line-oriented text form carried over the child -> parent pipe.
  std::string serialize() const;
  static Report parse(const std::string& text);
};

/// Named sample vectors; the per-rep values a workload collects.
class Samples {
 public:
  void add(const std::string& name, double v) { data_[name].push_back(v); }
  bool has(const std::string& name) const { return data_.count(name) > 0; }
  double median(const std::string& name) const;
  double quantile(const std::string& name, double q) const;

 private:
  std::map<std::string, std::vector<double>> data_;
};

/// Everything a workload needs; inherited by the phase children.
struct Ctx {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;  ///< tiny fixed sizes; results not comparable
  bool forge = false;     ///< self-test: forge every reference fingerprint
  std::string work_dir;   ///< generated instance files live here
  std::string telemetry_out;  ///< obs JSONL export of the traced run
  std::map<std::string, double> refs;  ///< generator outputs

  double ref(const std::string& name) const;
  std::string path(const std::string& file) const;
  /// A per-workload instance seed derived from --seed.
  std::uint64_t instance_seed(std::uint64_t tag) const;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU of this process plus its reaped children, seconds.
double process_tree_cpu_s();
double children_cpu_s();
double rusage_cpu_s(const struct rusage& ru);

/// Runs `body` in a forked child in its own process group and collects
/// the Report it fills. On the deadline the whole group is SIGKILLed and
/// the result is marked timed out; either way the child is reaped, and
/// so is any orphaned descendant (the parent is a child subreaper).
struct ChildOutcome {
  Report report;
  struct rusage usage {};
  bool timed_out = false;
  bool clean_exit = false;  ///< exited with status 0
};
ChildOutcome run_child(const std::function<void(Report&)>& body,
                       Clock::time_point deadline);

/// Marks this process as subreaper so orphaned grandchildren (daemon job
/// processes live in their own process groups) are reparented here.
void become_subreaper();

}  // namespace mrlr::benchmark
