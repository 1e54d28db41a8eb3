// Tests for the unified bench harness (src/mrlr/bench/): registry
// lookup and selection, the versioned JSON result schema round-trip,
// the bench_diff comparator policy (pass / fail / threshold / malformed
// input), and backend determinism of scenario hashes across 1/2/8
// threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <regex>
#include <set>
#include <sstream>

#include "mrlr/bench/diff.hpp"
#include "mrlr/bench/instances.hpp"
#include "mrlr/bench/json.hpp"
#include "mrlr/bench/manifest.hpp"
#include "mrlr/bench/registry.hpp"
#include "mrlr/bench/result.hpp"
#include "mrlr/exec/executor.hpp"
#include "mrlr/graph/generators.hpp"
#include "mrlr/jobs/worker.hpp"
#include "mrlr/util/math.hpp"
#include "mrlr/util/rng.hpp"

namespace mrlr::bench {
namespace {

// ------------------------------------------------------- registry --

TEST(BenchRegistry, BuiltinScenariosHaveUniqueNamesAndKnownGroups) {
  const Registry& r = builtin_registry();
  ASSERT_FALSE(r.all().empty());
  std::set<std::string> names;
  for (const Scenario& s : r.all()) {
    EXPECT_TRUE(names.insert(s.name).second)
        << "duplicate scenario name " << s.name;
    EXPECT_FALSE(s.groups.empty()) << s.name << " belongs to no group";
    EXPECT_TRUE(static_cast<bool>(s.run));
  }
  // The groups the CLI documents must all be non-empty.
  for (const char* g : {"paper-f1", "rounds-vs-mu", "space-vs-c",
                        "shuffle", "io", "threads", "process", "serve",
                        "compare", "smoke"}) {
    EXPECT_FALSE(r.group(g).empty()) << "group " << g << " is empty";
  }
  // "all" selects everything.
  EXPECT_EQ(r.group("all").size(), r.all().size());
}

TEST(BenchRegistry, ProcessDriverScenariosComeFromTheJobsRegistry) {
  // The jobs registry is the only list of drivers: every registered
  // algorithm has a smoke scenario, and every other exec/process/*
  // scenario is a backend row (kK or kKxtT).
  const Registry& r = builtin_registry();
  std::set<std::string> drivers;
  for (const jobs::AlgorithmInfo& a : jobs::known_algorithms()) {
    const std::string name = "exec/process/" + std::string(a.name);
    drivers.insert(name);
    const Scenario* s = r.find(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_NE(std::find(s->groups.begin(), s->groups.end(), "smoke"),
              s->groups.end())
        << name << " is not in smoke";
  }
  const std::regex backend_row("exec/process/k[0-9]+(xt[0-9]+)?");
  for (const Scenario& s : r.all()) {
    if (s.name.rfind("exec/process/", 0) != 0) continue;
    EXPECT_TRUE(drivers.count(s.name) == 1 ||
                std::regex_match(s.name, backend_row))
        << s.name << " is neither a registry driver nor a backend row";
  }
}

TEST(BenchRegistry, FindAndSelect) {
  const Registry& r = builtin_registry();
  const Scenario* s = r.find("exec/threads/t1");
  ASSERT_NE(s, nullptr);
  EXPECT_NE(std::find(s->groups.begin(), s->groups.end(), "threads"),
            s->groups.end());
  EXPECT_EQ(r.find("no/such/scenario"), nullptr);

  // Selection dedups the union of groups and names, keeps registry
  // order, and rejects unknown keys.
  const auto sel =
      select_scenarios(r, {"threads"}, {"exec/threads/t1"});
  EXPECT_EQ(sel.size(), r.group("threads").size());
  EXPECT_THROW(select_scenarios(r, {"no-such-group"}, {}),
               std::invalid_argument);
  EXPECT_THROW(select_scenarios(r, {}, {"no/such/scenario"}),
               std::invalid_argument);
}

TEST(BenchRegistry, DuplicateNamesRejected) {
  Registry r;
  Scenario s;
  s.name = "x";
  s.groups = {"g"};
  s.run = [](const RunContext&) { return BenchResult{}; };
  r.add(s);
  EXPECT_THROW(r.add(s), std::invalid_argument);
}

// ------------------------------------------------- schema round-trip --

BenchResult sample_result() {
  BenchResult r;
  r.name = "f1/sample";
  r.algo = "rlr-mwm";
  r.family = "gnm-density";
  r.n = 1000;
  r.m = 15849;
  r.mu = 0.2;
  r.c = 0.4;
  r.threads = 2;
  r.format = "mgb";
  r.wall_seconds = 0.12345;
  r.rounds = 11;
  r.iterations = 3;
  r.max_machine_words = 64398;
  r.max_central_inbox = 1234;
  r.shuffle_words = 987654;
  r.quality = 44445.4921875;
  r.quality_vs_baseline = 1.1929999999999998;
  // Top bit set: would not survive a double round-trip as a number.
  r.determinism_hash = 0xDEADBEEFCAFE0123ull;
  r.failed = false;
  r.extra["stack_size"] = 321.0;
  return r;
}

TEST(BenchSchema, FileRoundTripsExactly) {
  BenchFile f;
  f.results.push_back(sample_result());
  f.results.push_back(sample_result());
  f.results.back().name = "f1/sample2";
  f.results.back().failed = true;

  const std::string text = to_json(f).dump(2);
  const BenchFile back = bench_file_from_json(Json::parse(text));
  ASSERT_EQ(back.schema_version, kBenchSchemaVersion);
  ASSERT_EQ(back.results.size(), 2u);
  const BenchResult& a = f.results[0];
  const BenchResult& b = back.results[0];
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.algo, b.algo);
  EXPECT_EQ(a.family, b.family);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.m, b.m);
  EXPECT_EQ(a.mu, b.mu);
  EXPECT_EQ(a.c, b.c);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.format, b.format);
  EXPECT_EQ(a.wall_seconds, b.wall_seconds);  // exact double round-trip
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.max_machine_words, b.max_machine_words);
  EXPECT_EQ(a.max_central_inbox, b.max_central_inbox);
  EXPECT_EQ(a.shuffle_words, b.shuffle_words);
  EXPECT_EQ(a.quality, b.quality);
  EXPECT_EQ(a.quality_vs_baseline, b.quality_vs_baseline);
  EXPECT_EQ(a.determinism_hash, b.determinism_hash);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.extra, b.extra);
  EXPECT_TRUE(back.results[1].failed);
}

TEST(BenchSchema, ManifestRoundTripsAndIsOptionalInJson) {
  // A populated manifest survives the round trip...
  BenchResult r = sample_result();
  r.manifest["build_type"] = "Release";
  r.manifest["git_describe"] = "v1.2-3-gabc-dirty";
  r.manifest["backend"] = "process";
  const BenchResult back =
      bench_result_from_json(Json::parse(to_json(r).dump()));
  EXPECT_EQ(back.manifest, r.manifest);

  // ...and an empty manifest is omitted entirely, so files written
  // before the field existed (and their byte shapes) are unchanged.
  const BenchResult plain = sample_result();
  const std::string text = to_json(plain).dump();
  EXPECT_EQ(text.find("manifest"), std::string::npos);
  EXPECT_TRUE(bench_result_from_json(Json::parse(text)).manifest.empty());
}

TEST(BenchSchema, RunManifestRecordsWhatTheScenarioRan) {
  BenchResult r;
  r.threads = 4;
  const auto m = run_manifest(r);
  ASSERT_EQ(m.count("build_type"), 1u);
  ASSERT_EQ(m.count("git_describe"), 1u);
  ASSERT_EQ(m.count("nproc"), 1u);
  EXPECT_EQ(m.at("backend"), "threads");
  EXPECT_EQ(m.at("threads"), "4");
  EXPECT_EQ(m.at("shards"), "1");
  EXPECT_EQ(m.at("seed"), "scenario-pinned");

  BenchResult serial;
  EXPECT_EQ(run_manifest(serial).at("backend"), "serial");

  // Recorded shards mean the process backend; a key the scenario set
  // itself wins.
  BenchResult sharded;
  sharded.extra["shards"] = 4;
  EXPECT_EQ(run_manifest(sharded).at("backend"), "process");
  EXPECT_EQ(run_manifest(sharded).at("shards"), "4");
  sharded.manifest["backend"] = "tcp";
  EXPECT_EQ(run_manifest(sharded).at("backend"), "tcp");
}

TEST(BenchSchema, RunManifestOfBackendScenarios) {
  const Registry& r = builtin_registry();
  const Scenario* k4 = r.find("exec/process/k4");
  const Scenario* t2 = r.find("exec/threads/t2");
  ASSERT_NE(k4, nullptr);
  ASSERT_NE(t2, nullptr);

  const auto pm = run_manifest(k4->run(RunContext{}));
  EXPECT_EQ(pm.at("backend"), "process");
  EXPECT_EQ(pm.at("shards"), "4");
  EXPECT_EQ(pm.at("threads"), "1");

  const auto tm = run_manifest(t2->run(RunContext{}));
  EXPECT_EQ(tm.at("backend"), "threads");
  EXPECT_EQ(tm.at("threads"), "2");
  EXPECT_EQ(tm.at("shards"), "1");
}

TEST(BenchSchema, RunManifestResolvesAllHardwareThreads) {
  // --backend threads runs a driver row at threads = 0, which the
  // executor sizes to the hardware: the manifest records that pool, as
  // exec::make_executor resolves it, not the 0.
  const Scenario* s =
      builtin_registry().find("f1/vertex-cover/n1000-c0.40-mu0.20");
  ASSERT_NE(s, nullptr);
  RunContext all_hardware;
  all_hardware.threads = 0;
  const BenchResult row = s->run(all_hardware);
  EXPECT_FALSE(row.failed);
  const std::uint64_t pool = exec::resolve_num_threads(0);
  ASSERT_GE(pool, 1u);
  EXPECT_EQ(row.threads, pool);
  const auto m = run_manifest(row);
  EXPECT_EQ(m.at("threads"), std::to_string(pool));
  EXPECT_EQ(m.at("backend"), pool > 1 ? "threads" : "serial");
  EXPECT_EQ(m.at("shards"), "1");
  EXPECT_EQ(row.determinism_hash, s->run(RunContext{}).determinism_hash);
}

TEST(BenchSchema, SchemaVersionCarriedAndEnforced) {
  BenchFile f;
  Json j = to_json(f);
  EXPECT_EQ(j.at("schema_version").as_number(),
            static_cast<double>(kBenchSchemaVersion));
  j.set("schema_version", Json::number(99));
  EXPECT_THROW(bench_file_from_json(j), JsonError);
}

TEST(BenchSchema, NonFiniteMetricsRejectedAtWriteTime) {
  // Non-finite doubles would serialize as `null`, which the reader
  // rejects — the file must fail to write, not become unreadable.
  BenchResult r = sample_result();
  r.wall_seconds = std::numeric_limits<double>::infinity();
  EXPECT_THROW(to_json(r), JsonError);
  r = sample_result();
  r.extra["rate"] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(to_json(r), JsonError);
  EXPECT_NO_THROW(to_json(sample_result()));
}

TEST(BenchSchema, HashHexHelpers) {
  EXPECT_EQ(hash_to_hex(0xDEADBEEFCAFE0123ull), "0xdeadbeefcafe0123");
  EXPECT_EQ(hash_from_hex("0xdeadbeefcafe0123"), 0xDEADBEEFCAFE0123ull);
  EXPECT_EQ(hash_from_hex(hash_to_hex(0)), 0u);
  EXPECT_THROW(hash_from_hex("deadbeef"), JsonError);
  EXPECT_THROW(hash_from_hex("0x12"), JsonError);
  EXPECT_THROW(hash_from_hex("0xzzzzzzzzzzzzzzzz"), JsonError);
}

TEST(BenchJson, MalformedInputThrows) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), JsonError);
  EXPECT_THROW(Json::parse("[1, 2"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1,\"a\":2}"), JsonError);
  EXPECT_THROW(Json::parse("nul"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("01x"), JsonError);
  // Missing required fields in an otherwise valid document.
  EXPECT_THROW(bench_file_from_json(Json::parse("{}")), JsonError);
  EXPECT_THROW(
      bench_file_from_json(Json::parse(
          "{\"schema_version\":1,\"tool\":\"t\",\"results\":[{}]}")),
      JsonError);
}

TEST(BenchJson, ParsesWhatItEmits) {
  Json j = Json::object();
  j.set("s", Json::string("quote \" backslash \\ newline \n"));
  j.set("tiny", Json::number(1.25e-300));
  j.set("neg", Json::number(-42.0));
  Json arr = Json::array();
  arr.push(Json::boolean(true));
  arr.push(Json());
  j.set("arr", std::move(arr));
  const Json back = Json::parse(j.dump(2));
  EXPECT_EQ(back.at("s").as_string(), j.at("s").as_string());
  EXPECT_EQ(back.at("tiny").as_number(), 1.25e-300);
  EXPECT_EQ(back.at("neg").as_number(), -42.0);
  EXPECT_TRUE(back.at("arr").items()[0].as_bool());
  EXPECT_TRUE(back.at("arr").items()[1].is_null());
}

// ------------------------------------------------------ bench_diff --

BenchFile two_scenario_file() {
  BenchFile f;
  f.results.push_back(sample_result());
  f.results.push_back(sample_result());
  f.results.back().name = "f1/sample2";
  return f;
}

TEST(BenchDiff, IdenticalFilesPass) {
  const BenchFile f = two_scenario_file();
  const DiffReport report = diff_bench_files(f, f);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.compared, 2u);
  EXPECT_TRUE(report.regressions.empty());
}

TEST(BenchDiff, ManifestAndExtraDifferencesAreIgnored) {
  // Provenance is not a metric: a baseline recorded by one build must
  // diff clean against a run from another build/backend, and telemetry
  // fold-ins (extra) must never fail a comparison.
  const BenchFile base = two_scenario_file();
  BenchFile cur = base;
  cur.results[0].manifest["build_type"] = "Debug";
  cur.results[0].manifest["git_describe"] = "other";
  cur.results[1].extra["tel_round_s"] = 0.25;
  const DiffReport report = diff_bench_files(base, cur);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.regressions.empty());
}

TEST(BenchDiff, DeterministicMetricsCompareExactly) {
  const BenchFile base = two_scenario_file();

  for (const auto& [metric, mutate] :
       std::vector<std::pair<std::string,
                             std::function<void(BenchResult&)>>>{
           {"rounds", [](BenchResult& r) { r.rounds += 1; }},
           {"iterations", [](BenchResult& r) { r.iterations += 1; }},
           {"max_machine_words",
            [](BenchResult& r) { r.max_machine_words -= 1; }},
           {"shuffle_words", [](BenchResult& r) { r.shuffle_words += 8; }},
           {"quality", [](BenchResult& r) { r.quality += 1e-9; }},
           {"determinism_hash",
            [](BenchResult& r) { r.determinism_hash ^= 1; }},
           {"failed", [](BenchResult& r) { r.failed = true; }},
       }) {
    BenchFile cur = base;
    mutate(cur.results[0]);
    const DiffReport report = diff_bench_files(base, cur);
    ASSERT_FALSE(report.ok()) << metric << " change not caught";
    EXPECT_EQ(report.regressions[0].scenario, "f1/sample");
    EXPECT_NE(report.regressions[0].metric.find(metric), std::string::npos)
        << "unexpected metric label " << report.regressions[0].metric;
  }
}

TEST(BenchDiff, WallTimeThresholdAndFloor) {
  BenchFile base = two_scenario_file();
  base.results[0].wall_seconds = 1.0;
  base.results[1].wall_seconds = 0.001;  // below the floor

  // Within threshold: 1.9x on a slow scenario passes at 2x.
  BenchFile cur = base;
  cur.results[0].wall_seconds = 1.9;
  EXPECT_TRUE(diff_bench_files(base, cur).ok());

  // Beyond threshold on a slow scenario fails.
  cur.results[0].wall_seconds = 2.1;
  {
    const DiffReport report = diff_bench_files(base, cur);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.regressions[0].metric, "wall_seconds");
  }

  // A sub-floor scenario may jitter by a large factor without failing:
  // 1ms -> 40ms stays under floor(0.05) * threshold(2).
  cur.results[0].wall_seconds = 1.0;
  cur.results[1].wall_seconds = 0.04;
  EXPECT_TRUE(diff_bench_files(base, cur).ok());
  // ...but a genuine blowup past the floor budget still fails.
  cur.results[1].wall_seconds = 0.2;
  EXPECT_FALSE(diff_bench_files(base, cur).ok());

  // The threshold is configurable.
  DiffOptions loose;
  loose.time_threshold = 10.0;
  cur.results[1].wall_seconds = 0.2;
  EXPECT_TRUE(diff_bench_files(base, cur, loose).ok());
}

TEST(BenchDiff, CoverageAndDefinitionChanges) {
  const BenchFile base = two_scenario_file();

  // Missing scenario = lost coverage = regression.
  BenchFile cur = base;
  cur.results.pop_back();
  {
    const DiffReport report = diff_bench_files(base, cur);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.regressions[0].metric, "coverage");
  }

  // New scenario = note, not a regression.
  cur = base;
  cur.results.push_back(sample_result());
  cur.results.back().name = "f1/sample3";
  {
    const DiffReport report = diff_bench_files(base, cur);
    EXPECT_TRUE(report.ok());
    ASSERT_EQ(report.notes.size(), 1u);
    EXPECT_NE(report.notes[0].find("f1/sample3"), std::string::npos);
  }

  // Changed instance size = changed experiment = regression.
  cur = base;
  cur.results[0].n = 2000;
  {
    const DiffReport report = diff_bench_files(base, cur);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.regressions[0].metric.find("definition changed"),
              std::string::npos);
  }

  // A different thread count is NOT a definition change: backends are
  // deterministic by contract, so the run still compares (and must
  // still match on every deterministic metric) — it only earns a note.
  cur = base;
  cur.results[0].threads = 8;
  {
    const DiffReport report = diff_bench_files(base, cur);
    EXPECT_TRUE(report.ok());
    ASSERT_EQ(report.notes.size(), 1u);
    EXPECT_NE(report.notes[0].find("threads=8"), std::string::npos);
  }
}

// ------------------------------------------- backend determinism --

TEST(BenchDeterminism, ScenarioHashStableAcross128Threads) {
  const Registry& r = builtin_registry();
  const RunContext ctx;

  const Scenario* t1 = r.find("exec/threads/t1");
  const Scenario* t2 = r.find("exec/threads/t2");
  const Scenario* t8 = r.find("exec/threads/t8");
  ASSERT_NE(t1, nullptr);
  ASSERT_NE(t2, nullptr);
  ASSERT_NE(t8, nullptr);

  const BenchResult r1 = t1->run(ctx);
  const BenchResult r2 = t2->run(ctx);
  const BenchResult r8 = t8->run(ctx);
  ASSERT_FALSE(r1.failed);
  EXPECT_NE(r1.determinism_hash, 0u);
  EXPECT_EQ(r1.determinism_hash, r2.determinism_hash);
  EXPECT_EQ(r1.determinism_hash, r8.determinism_hash);
  EXPECT_EQ(r1.quality, r2.quality);
  EXPECT_EQ(r1.quality, r8.quality);
  EXPECT_EQ(r1.rounds, r2.rounds);
  EXPECT_EQ(r1.rounds, r8.rounds);
  EXPECT_EQ(r1.shuffle_words, r2.shuffle_words);
  EXPECT_EQ(r1.shuffle_words, r8.shuffle_words);
  EXPECT_EQ(r1.max_machine_words, r8.max_machine_words);

  // Re-running the same scenario reproduces the hash exactly.
  const BenchResult again = t1->run(ctx);
  EXPECT_EQ(r1.determinism_hash, again.determinism_hash);
}

TEST(BenchDeterminism, RunnerResultMatchesDirectRun) {
  // A job scenario's row is jobs::run_job on its pinned instance: the
  // same hash, quality and cost columns as a spec built here directly.
  const Registry& r = builtin_registry();
  const Scenario* s = r.find("f1/clique/n500-c0.40-mu0.30");
  ASSERT_NE(s, nullptr);
  const BenchResult row = s->run(RunContext{});

  Rng rng(500 * 3 + 5);
  const graph::Graph g = graph::planted_clique(
      500, ipow_real(500, 1.0 + 0.4), 500 / 20, rng);
  const jobs::JobResult direct =
      jobs::run_job(jobs::graph_job("clique", g, scenario_params(0.3, 1)));
  ASSERT_TRUE(direct.valid);
  EXPECT_FALSE(row.failed);
  EXPECT_GT(row.rounds, 0u);
  EXPECT_EQ(row.m, g.num_edges());
  EXPECT_EQ(row.determinism_hash, jobs::determinism_hash(direct));
  EXPECT_EQ(row.quality, static_cast<double>(direct.solution_size));
  EXPECT_EQ(row.rounds, direct.outcome.rounds);
  EXPECT_EQ(row.iterations, direct.outcome.iterations);
  EXPECT_EQ(row.max_machine_words, direct.outcome.max_machine_words);
  EXPECT_EQ(row.shuffle_words, direct.outcome.total_communication);
}

TEST(BenchDeterminism, JobRowsHonorTheProcessBackend) {
  // A registry-driver row runs on the session backend: under
  // --backend process its manifest says so, and every result column
  // equals the serial run's.
  const Registry& r = builtin_registry();
  const Scenario* s = r.find("f1/vertex-cover/n1000-c0.40-mu0.20");
  ASSERT_NE(s, nullptr);
  const BenchResult serial = s->run(RunContext{});
  RunContext process;
  process.process_backend = true;
  process.shards = 2;
  const BenchResult sharded = s->run(process);

  EXPECT_EQ(run_manifest(serial).at("backend"), "serial");
  const auto m = run_manifest(sharded);
  EXPECT_EQ(m.at("backend"), "process");
  EXPECT_EQ(m.at("shards"), "2");
  EXPECT_FALSE(serial.failed);
  EXPECT_FALSE(sharded.failed);
  EXPECT_EQ(sharded.determinism_hash, serial.determinism_hash);
  EXPECT_EQ(sharded.rounds, serial.rounds);
  EXPECT_EQ(sharded.iterations, serial.iterations);
  EXPECT_EQ(sharded.max_machine_words, serial.max_machine_words);
  EXPECT_EQ(sharded.max_central_inbox, serial.max_central_inbox);
  EXPECT_EQ(sharded.shuffle_words, serial.shuffle_words);
  EXPECT_EQ(sharded.quality, serial.quality);
  EXPECT_EQ(sharded.quality_vs_baseline, serial.quality_vs_baseline);
}

}  // namespace
}  // namespace mrlr::bench
