#include "mrlr/bench/runner.hpp"

#include <exception>
#include <ostream>
#include <stdexcept>

#include "mrlr/bench/emit.hpp"
#include "mrlr/bench/manifest.hpp"
#include "mrlr/obs/telemetry.hpp"
#include "mrlr/util/table.hpp"

namespace mrlr::bench {
namespace {

/// Per-phase wall totals for the spans this scenario recorded, folded
/// into `extra` as tel_<phase>_s. Informational (never diffed): the
/// diff policy treats extra as free-form, so telemetry-on and -off runs
/// of the same scenario still compare clean.
void fold_telemetry(BenchResult& r, const obs::Telemetry& tel,
                    std::size_t from) {
  double totals[obs::kNumPhases] = {};
  bool any = false;
  for (const obs::SpanRecord& s : tel.spans_since(from)) {
    totals[static_cast<std::size_t>(s.phase)] +=
        static_cast<double>(s.dur_ns) * 1e-9;
    any = true;
  }
  if (!any) return;
  for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
    if (totals[p] > 0.0) {
      r.extra["tel_" + std::string(obs::phase_name(
                           static_cast<obs::Phase>(p))) + "_s"] = totals[p];
    }
  }
}

BenchResult run_one(const Scenario& s, const RunContext& ctx,
                    std::ostream& log, std::size_t index,
                    std::size_t total) {
  log << "[" << index + 1 << "/" << total << "] " << s.name << " ... "
      << std::flush;
  obs::Telemetry& tel = obs::Telemetry::instance();
  const std::size_t span_mark = tel.enabled() ? tel.span_count() : 0;
  BenchResult r = s.run(ctx);
  r.name = s.name;
  if (tel.enabled()) fold_telemetry(r, tel, span_mark);
  r.manifest = run_manifest(r);
  log << (r.failed ? "FAILED" : "ok") << " ("
      << fmt_double(r.wall_seconds, 3) << "s)\n";
  return r;
}

}  // namespace

int run_bench(const Registry& registry, const RunOptions& options,
              std::ostream& log) {
  std::vector<const Scenario*> selected;
  try {
    if (options.list_only && options.groups.empty() &&
        options.scenarios.empty()) {
      selected = select_scenarios(registry, {"all"}, {});
    } else {
      selected =
          select_scenarios(registry, options.groups, options.scenarios);
    }
  } catch (const std::invalid_argument& e) {
    log << "bench: " << e.what() << "\n";
    log << "known groups:";
    for (const std::string& g : registry.group_names()) log << " " << g;
    log << "\n";
    return 2;
  }
  if (selected.empty()) {
    log << "bench: nothing selected (use --group or --scenario; "
           "--group all runs everything)\n";
    return 2;
  }

  if (options.list_only) {
    Table t({"scenario", "groups", "description"});
    for (const Scenario* s : selected) {
      std::string groups;
      for (const std::string& g : s->groups) {
        if (!groups.empty()) groups += ",";
        groups += g;
      }
      t.row().cell(s->name).cell(groups).cell(s->description);
    }
    t.print(log);
    return 0;
  }

  std::vector<BenchResult> results;
  results.reserve(selected.size());
  for (std::size_t i = 0; i < selected.size(); ++i) {
    results.push_back(
        run_one(*selected[i], options.context, log, i, selected.size()));
  }

  Table t({"scenario", "algo", "n", "m", "seconds", "rounds", "iters",
           "maxwords/mach", "quality", "vs_baseline", "hash", "ok"});
  bool any_failed = false;
  for (const BenchResult& r : results) {
    any_failed = any_failed || r.failed;
    t.row()
        .cell(r.name)
        .cell(r.algo)
        .cell(r.n)
        .cell(r.m)
        .cell(r.wall_seconds, 3)
        .cell(r.rounds)
        .cell(r.iterations)
        .cell(r.max_machine_words)
        .cell(r.quality, 1)
        .cell(r.quality_vs_baseline, 3)
        .cell(hash_to_hex(r.determinism_hash))
        .cell(r.failed ? "FAILED" : "yes");
  }
  log << "\n";
  t.print(log);

  if (!options.out_path.empty()) {
    BenchFile f;
    f.results = std::move(results);
    write_bench_file(f, options.out_path);
    log << "\n[results written: " << options.out_path << " (schema v"
        << kBenchSchemaVersion << ", " << f.results.size()
        << " scenarios)]\n";
  }
  return any_failed ? 1 : 0;
}

}  // namespace mrlr::bench
