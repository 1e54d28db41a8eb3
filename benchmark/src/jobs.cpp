// Job-level helpers shared by the batch and serve workloads: instance
// generation, loading a spec from an instance file, the checked
// reference run, and the traced per-layer decomposition of run_job.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "mrlr/core/greedy_setcover_mr.hpp"
#include "mrlr/core/hungry_mis.hpp"
#include "mrlr/core/rlr_matching.hpp"
#include "mrlr/graph/generators.hpp"
#include "mrlr/graph/io.hpp"
#include "mrlr/graph/validate.hpp"
#include "mrlr/jobs/worker.hpp"
#include "mrlr/obs/export.hpp"
#include "mrlr/obs/report.hpp"
#include "mrlr/obs/telemetry.hpp"
#include "mrlr/seq/greedy_setcover.hpp"
#include "mrlr/seq/local_ratio_matching.hpp"
#include "mrlr/setcover/generators.hpp"
#include "mrlr/setcover/io.hpp"
#include "mrlr/setcover/validate.hpp"
#include "workloads.hpp"

namespace mrlr::benchmark {

namespace {

// Instance-seed tags: matching-serial and matching-k4 share theirs, so
// both run the identical spec for a given --seed.
constexpr std::uint64_t kTagMatching = 1;
constexpr std::uint64_t kTagSetCover = 2;
constexpr std::uint64_t kTagServe = 100;

core::MrParams params_of(const JobDef& d) {
  core::MrParams p;
  p.mu = d.mu;
  p.seed = d.param_seed;
  p.num_shards = d.shards;
  return p;
}

graph::Graph generate_graph(const JobDef& d) {
  Rng rng(d.instance_seed);
  graph::Graph g = graph::gnm_density(d.size, d.c, rng);
  if (d.algorithm != "matching") return g;
  return g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
}

setcover::SetSystem generate_sets(const JobDef& d) {
  Rng rng(d.instance_seed);
  return setcover::many_sets(d.size, std::max<std::uint64_t>(2, d.size / 8),
                             kMaxSetSize, graph::WeightDist::kUniform, rng);
}

/// The ratio the paper guarantees against the sequential reference:
/// both matchings are within 2 of OPT on opposite sides; the MR cover
/// is (1+eps)H_Delta-approximate plus the eps*OPT of Remark 4.7's
/// preprocessing, and the sequential greedy cover is at least OPT.
double approx_bound(const JobDef& d) {
  if (d.algorithm == "matching") return 2.0;
  double h = 0.0;
  for (std::uint64_t i = 1; i <= kMaxSetSize; ++i) h += 1.0 / double(i);
  return (1.0 + kSetCoverEps) * h + kSetCoverEps;
}

std::string ref_key(std::size_t index) {
  return "ref.seq_weight." + std::to_string(index);
}

bool stat_bits_equal(const jobs::JobResult& ref, double weight) {
  const jobs::JobStat* s = ref.stat("weight");
  return s != nullptr && s->value == core::pack_double(weight);
}

}  // namespace

std::vector<JobDef> workload_jobs(std::string_view workload, const Ctx& ctx) {
  const bool tiny = ctx.selftest;
  if (workload == "matching-serial" || workload == "matching-k4") {
    JobDef d;
    d.algorithm = "matching";
    d.file = "graph.mgb";
    d.size = tiny ? 600 : 40000;  // ~1.19M edges at c = 0.32
    d.mu = 0.1;
    d.instance_seed = ctx.instance_seed(kTagMatching);
    d.param_seed = ctx.seed;
    d.shards = workload == "matching-k4" ? 4 : 1;
    return {d};
  }
  if (workload == "setcover-greedy") {
    JobDef d;
    d.algorithm = "set-cover-greedy";
    d.file = "sets.txt";
    d.size = tiny ? 3000 : 400000;  // ~4.2M incidences
    d.mu = 0.3;
    d.instance_seed = ctx.instance_seed(kTagSetCover);
    d.param_seed = ctx.seed;
    return {d};
  }
  if (workload == "serve-mixed") {
    // 24 small jobs: matching, MIS and greedy set cover, 8 seeds each.
    std::vector<JobDef> out;
    const std::uint64_t n = tiny ? 200 : 2000;
    for (std::uint64_t i = 0; i < 8; ++i) {
      const auto add = [&](std::string algorithm, std::string file,
                           double mu) {
        JobDef d;
        d.algorithm = std::move(algorithm);
        d.file = file + "-" + std::to_string(i) +
                 (d.set_system() ? ".txt" : ".mgb");
        d.size = n;
        d.mu = mu;
        d.instance_seed = ctx.instance_seed(kTagServe + out.size());
        d.param_seed = ctx.seed + i;
        out.push_back(d);
      };
      add("matching", "matching", 0.1);
      add("mis", "mis", 0.25);
      add("set-cover-greedy", "sets", 0.3);
    }
    return out;
  }
  throw std::invalid_argument("unknown workload \"" + std::string(workload) +
                              "\"");
}

void generate_instances(const Ctx& ctx, const std::vector<JobDef>& jobs,
                        Report& r) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobDef& d = jobs[i];
    const std::string path = ctx.path(d.file);
    if (d.set_system()) {
      const setcover::SetSystem sys = generate_sets(d);
      std::ofstream out(path);
      setcover::write_set_system(sys, out);
      out.close();
      if (!out) throw std::runtime_error("cannot write " + path);
      r.add_detail(ref_key(i), seq::greedy_set_cover(sys).weight, "weight");
    } else {
      const graph::Graph g = generate_graph(d);
      graph::write_graph_file(g, path);
      if (d.algorithm == "matching") {
        r.add_detail(ref_key(i), seq::local_ratio_matching(g).weight,
                     "weight");
      }
    }
  }
}

LoadedJob load_job(const Ctx& ctx, const JobDef& def) {
  const std::string path = ctx.path(def.file);
  LoadedJob job;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point t1;
  if (def.set_system()) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    const setcover::SetSystem sys = setcover::read_set_system(in);
    t1 = Clock::now();
    job.spec = jobs::set_system_job(def.algorithm, sys, params_of(def));
    job.spec.extras["eps"] = {core::pack_double(kSetCoverEps)};
    job.spec_bytes = jobs::encode_job_spec(job.spec).size();
    job.encode_s = seconds_since(t1);
  } else {
    const graph::Graph g = graph::read_graph_file(path);
    t1 = Clock::now();
    job.spec = jobs::graph_job(def.algorithm, g, params_of(def));
    job.spec_bytes = jobs::encode_job_spec(job.spec).size();
    job.encode_s = seconds_since(t1);
  }
  job.load_s = std::chrono::duration<double>(t1 - t0).count();
  job.file_bytes = std::filesystem::file_size(path);
  return job;
}

Reference make_reference(const Ctx& ctx, const JobDef& def,
                         std::size_t index, const jobs::JobSpec& spec,
                         Report& r) {
  jobs::JobSpec serial = spec;
  serial.params.num_shards = 1;
  Reference ref;
  ref.result = jobs::run_job(serial);
  const std::string actual = jobs::fingerprint(ref.result);
  ref.fingerprint = ctx.forge ? "forged " + actual : actual;

  bool within_bound = true;
  if (def.algorithm != "mis") {
    const double seq = ctx.ref(ref_key(index));
    const double mr = ref.result.stat_double("weight");
    ref.approx_ratio = def.algorithm == "matching" ? seq / mr : mr / seq;
    within_bound = ref.approx_ratio > 0.0 &&
                   ref.approx_ratio <= approx_bound(def) + 1e-9;
  }
  r.check(ref.result.valid && within_bound && actual == ref.fingerprint,
          "reference " + def.algorithm + " #" + std::to_string(index) +
              ": valid=" + std::to_string(ref.result.valid) +
              " approx_ratio=" + std::to_string(ref.approx_ratio) +
              (actual == ref.fingerprint ? "" : " fingerprint forged"));
  return ref;
}

void run_checked(const jobs::JobSpec& spec, const Reference& ref,
                 Report& r) {
  try {
    const jobs::JobResult res = jobs::run_job(spec);
    r.check(res.valid && jobs::fingerprint(res) == ref.fingerprint,
            spec.algorithm + ": result differs from the reference (valid=" +
                std::to_string(res.valid) + ")");
  } catch (const std::exception& e) {
    r.check(false, spec.algorithm + ": run_job threw: " + e.what());
  }
}

namespace {

/// One traced run of `spec`: the parts of run_job called separately
/// (instance decode, the core:: driver, the validator) with obs
/// telemetry on, checked against `ref`. Adds the job's layer values to
/// `sums` and returns its traced time (decode + driver + validate).
double traced_job(const jobs::JobSpec& spec, const Reference& ref,
                  std::map<std::string, double>& sums, Report& r) {
  obs::Telemetry& tel = obs::Telemetry::instance();
  const obs::Telemetry::Mark mark = tel.mark();
  const double cpu0 = process_tree_cpu_s();
  const double child0 = children_cpu_s();

  // decode, driver, validate: the three parts of jobs::run_job.
  const Clock::time_point t0 = Clock::now();
  Clock::time_point t1, t2;
  core::MrOutcome outcome;
  std::uint64_t size = 0;
  bool valid = false;
  bool weight_ok = true;
  if (spec.algorithm == "set-cover-greedy") {
    const setcover::SetSystem sys = jobs::decode_set_system_instance(spec);
    const double eps = core::unpack_double(spec.extras.at("eps").at(0));
    t1 = Clock::now();
    const auto out = core::greedy_set_cover_mr(sys, eps, spec.params);
    t2 = Clock::now();
    valid = setcover::is_cover(sys, out.cover);
    outcome = out.outcome;
    size = out.cover.size();
    weight_ok = stat_bits_equal(ref.result, out.weight);
  } else {
    const graph::Graph g = jobs::decode_graph_instance(spec);
    t1 = Clock::now();
    if (spec.algorithm == "matching") {
      const auto out = core::rlr_matching(g, spec.params);
      t2 = Clock::now();
      valid = graph::is_matching(g, out.matching);
      outcome = out.outcome;
      size = out.matching.size();
      weight_ok = stat_bits_equal(ref.result, out.weight);
    } else {
      const auto out = core::hungry_mis_improved(g, spec.params);
      t2 = Clock::now();
      valid = graph::is_maximal_independent_set(g, out.independent_set);
      outcome = out.outcome;
      size = out.independent_set.size();
    }
  }
  const Clock::time_point t3 = Clock::now();
  r.check(valid && weight_ok && outcome == ref.result.outcome &&
              size == ref.result.solution_size,
          spec.algorithm + ": traced run differs from the reference");

  const auto secs = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  const double driver_s = secs(t1, t2);
  sums["jobs.instance_decode_s"] += secs(t0, t1);
  sums["core.driver_s"] += driver_s;
  sums["instance.validate_s"] += secs(t2, t3);
  sums["job_cpu_s"] += process_tree_cpu_s() - cpu0;
  sums["exec.child_cpu_s"] += children_cpu_s() - child0;

  // This job's telemetry window: spans since the mark, counter deltas.
  obs::TelemetrySnapshot window{tel.spans_since(mark.span_count),
                                tel.snapshot().counters};
  for (auto& [name, value] : window.counters) {
    const auto it = mark.counters.find(name);
    if (it != mark.counters.end()) value -= it->second;
  }
  const obs::ProfileReport prof = obs::build_report(window);
  const auto phase_s = [&](const obs::ShardProfile& sp, obs::Phase p,
                           bool self) {
    const auto it = sp.phases.find(p);
    if (it == sp.phases.end()) return 0.0;
    return double(self ? it->second.self_ns : it->second.total_ns) / 1e9;
  };
  double round_s = 0.0;
  double worker_callback = 0.0, serialize = 0.0, transport = 0.0;
  for (const obs::ShardProfile& sp : prof.by_shard) {
    if (sp.shard == 0) {
      round_s = phase_s(sp, obs::Phase::kRound, false);
      sums["mrc.callback_s"] += phase_s(sp, obs::Phase::kCallback, true);
      sums["mrc.arena_merge_s"] += phase_s(sp, obs::Phase::kArenaMerge, true);
      sums["mrc.central_s"] += phase_s(sp, obs::Phase::kCentral, true);
      sums["exec.worker_wait_s"] += phase_s(sp, obs::Phase::kWorkerWait, true);
    } else {
      // Worker shards run in parallel: the slowest one is on the
      // critical path, so take the max, never the sum.
      worker_callback = std::max(
          worker_callback, phase_s(sp, obs::Phase::kCallback, true));
      serialize = std::max(serialize,
                           phase_s(sp, obs::Phase::kShardSerialize, true));
      transport = std::max(transport,
                           phase_s(sp, obs::Phase::kShardTransport, true));
    }
  }
  sums["mrc.round_s"] += round_s;
  sums["core.host_s"] += driver_s - round_s;
  sums["exec.worker_callback_s_max"] += worker_callback;
  sums["exec.shard_serialize_s_max"] += serialize;
  sums["exec.shard_transport_s_max"] += transport;

  const auto counter = [&](const std::string& name) {
    const auto it = window.counters.find(name);
    return it == window.counters.end() ? 0.0 : double(it->second);
  };
  sums["mrc.slab_reuses"] += counter("engine.slab_reuses");
  sums["exec.wire_bytes_out"] += counter("exec.wire_bytes_out");
  sums["exec.wire_bytes_in"] += counter("exec.wire_bytes_in");
  sums["exec.frames_sent"] += counter("exec.frames_sent");
  sums["exec.workers_spawned"] += counter("exec.workers_spawned");

  sums["mrc.rounds"] += double(outcome.rounds);
  sums["mrc.shuffle_words"] += double(outcome.total_communication);
  sums["mrc.max_central_inbox"] += double(outcome.max_central_inbox);
  sums["core.resamples"] += double(ref.result.stat_count("resamples"));
  return secs(t0, t3);
}

/// Turns the layer sums of one pass over `jobs` traced jobs into
/// per-job samples, including the shares derived from them.
void add_traced_pass(const std::map<std::string, double>& sums, double jobs,
                     Samples& s) {
  for (const auto& [name, value] : sums) s.add(name, value / jobs);
  const auto sum = [&](const std::string& name) {
    const auto it = sums.find(name);
    return it == sums.end() ? 0.0 : it->second;
  };
  const auto share = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  const double driver = sum("core.driver_s");
  s.add("exec.worker_wait_share", share(sum("exec.worker_wait_s"), driver));
  s.add("exec.worker_callback_share_max",
        share(sum("exec.worker_callback_s_max"), driver));
  s.add("exec.shard_serialize_share_max",
        share(sum("exec.shard_serialize_s_max"), driver));
  s.add("exec.shard_transport_share_max",
        share(sum("exec.shard_transport_s_max"), driver));
  s.add("exec.child_cpu_share",
        share(sum("exec.child_cpu_s"), sum("job_cpu_s")));
  s.add("exec.wire_bytes_per_shuffle_byte",
        share(sum("exec.wire_bytes_out"), 8.0 * sum("mrc.shuffle_words")));
}

}  // namespace

void emit_layer_metrics(const Samples& s, Report& r) {
  for (const MetricDef& d : kPerLayer) {
    const std::string name(d.name);
    r.metric(name, s.has(name) ? s.median(name) : 0.0);
  }
  for (const char* name :
       {"exec.worker_wait_s", "exec.worker_callback_s_max",
        "exec.shard_serialize_s_max", "exec.shard_transport_s_max",
        "exec.child_cpu_s"}) {
    r.add_detail(name, s.median(name), "s");
  }
}

void trace_layers(const Ctx& ctx, double seconds,
                  std::span<const LoadedJob> jobs,
                  const std::vector<Reference>& refs, Samples& s,
                  Report& r) {
  // Untraced and traced passes alternate, so host drift during the run
  // hits both alike and obs.overhead_frac measures the recorder alone.
  // enable() clears the recorder, so each traced pass is copied into
  // the export, shifted onto one timeline.
  obs::Telemetry& tel = obs::Telemetry::instance();
  obs::TelemetrySnapshot exported;
  const Clock::time_point epoch = Clock::now();
  const double n = double(jobs.size());
  bool traced = false;
  repeat_for(2 * seconds, 6, [&] {
    if (!traced) {
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        run_checked(jobs[i].spec, refs[i], r);
      }
      s.add("untraced_s", seconds_since(t0) / n);
    } else {
      const auto offset = std::uint64_t(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               epoch)
              .count());
      tel.enable();
      std::map<std::string, double> sums;
      double total = 0.0;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        total += traced_job(jobs[i].spec, refs[i], sums, r);
      }
      tel.disable();
      add_traced_pass(sums, n, s);
      s.add("traced_s", total / n);
      obs::TelemetrySnapshot pass = tel.snapshot();
      for (obs::SpanRecord& span : pass.spans) {
        span.start_ns += offset;
        exported.spans.push_back(std::move(span));
      }
      for (const auto& [name, v] : pass.counters) exported.counters[name] += v;
    }
    traced = !traced;
  });
  if (!ctx.telemetry_out.empty()) {
    obs::write_telemetry_file(exported, obs::ExportFormat::kJsonl,
                              ctx.telemetry_out);
  }
  s.add("obs.overhead_frac",
        s.median("traced_s") / s.median("untraced_s") - 1.0);
}

}  // namespace mrlr::benchmark
