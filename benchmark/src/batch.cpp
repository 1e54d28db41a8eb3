// Batch workloads (matching-serial, matching-k4, setcover-greedy): one
// spec, loaded from its instance file, timed through jobs::run_job.

#include <optional>

#include "mrlr/jobs/worker.hpp"
#include "workloads.hpp"

namespace mrlr::benchmark {

namespace {

/// Set-up passes of a traced run; an untraced run makes one per job.
constexpr int kTraceSetupPasses = 5;
constexpr std::uint64_t kMinReps = 3;
/// Algorithm seeds the quality metrics average over. One seed's rounds
/// on set cover is 30 or 40 (whole sampling iterations), so a single
/// run would swing the metric by 25% from one --seed to the next.
constexpr std::uint64_t kQualitySeeds = 12;

}  // namespace

void run_batch(const Ctx& ctx, const JobDef& def, Report& r) {
  Samples s;
  std::optional<LoadedJob> job;
  // One set-up pass: from the instance file to a spec ready to run.
  const auto setup = [&] {
    job.reset();
    const Clock::time_point t0 = Clock::now();
    job.emplace(load_job(ctx, def));
    s.add("setup_s", seconds_since(t0));
    s.add("instance.load_s", job->load_s);
    s.add("jobs.spec_encode_s", job->encode_s);
  };
  setup();
  s.add("instance.bytes", double(job->file_bytes));
  s.add("jobs.spec_bytes", double(job->spec_bytes));
  r.set_config("algorithm", def.algorithm);
  r.set_config("size", std::to_string(def.size));
  r.set_config("mu", std::to_string(def.mu));
  r.set_config("backend", def.shards > 1 ? "process" : "serial");
  r.set_config("shards", std::to_string(def.shards));
  r.set_config("threads", "1");

  // The serial reference doubles as the warm-up on the serial backend;
  // the sharded backend gets its own, checked against it.
  const std::vector<Reference> refs{
      make_reference(ctx, def, 0, job->spec, r)};
  const Reference& ref = refs[0];
  if (def.shards > 1) run_checked(job->spec, ref, r);

  if (ctx.trace) {
    for (int pass = 1; pass < kTraceSetupPasses; ++pass) setup();
    trace_layers(ctx, ctx.seconds / 2, {&*job, 1}, refs, s, r);
    emit_layer_metrics(s, r);
    return;
  }

  // rounds, max_machine_words and approx_ratio: means over checked serial
  // references of this instance under seeds param_seed + 0..k-1; seed 0
  // is the reference above. Untimed, so they double as warm-up.
  double rounds = 0.0, words = 0.0, ratio = 0.0;
  for (std::uint64_t k = 0; k < kQualitySeeds; ++k) {
    jobs::JobSpec spec = job->spec;
    spec.params.seed += k;
    const Reference seeded =
        k == 0 ? ref : make_reference(ctx, def, 0, spec, r);
    rounds += double(seeded.result.outcome.rounds);
    words += double(seeded.result.outcome.max_machine_words);
    ratio += seeded.approx_ratio;
  }

  // The host's speed drifts within seconds, so set-up passes alternate
  // with the jobs over the whole window instead of bunching before it.
  double job_total_s = 0.0;
  const std::uint64_t reps = repeat_for(ctx.seconds, kMinReps, [&] {
    setup();
    const double cpu0 = process_tree_cpu_s();
    const Clock::time_point t0 = Clock::now();
    run_checked(job->spec, ref, r);
    const double wall = seconds_since(t0);
    job_total_s += wall;
    s.add("job_s", wall);
    s.add("cpu_s", process_tree_cpu_s() - cpu0);
  });
  r.set_config("reps", std::to_string(reps));

  r.metric("setup_s", s.median("setup_s"));
  r.metric("job_s_p50", s.median("job_s"));
  r.metric("jobs_per_s", double(reps) / job_total_s);
  r.metric("cpu_s_per_job", s.median("cpu_s"));
  r.metric("rounds", rounds / double(kQualitySeeds));
  r.metric("max_machine_words", words / double(kQualitySeeds));
  r.metric("approx_ratio", ratio / double(kQualitySeeds));
  r.add_detail("job_s_q1", s.quantile("job_s", 0.25), "s");
  r.add_detail("job_s_q3", s.quantile("job_s", 0.75), "s");
  r.add_detail("instance.load_s", s.median("instance.load_s"), "s");
  r.add_detail("jobs.spec_encode_s", s.median("jobs.spec_encode_s"), "s");
}

}  // namespace mrlr::benchmark
