// Telemetry subsystem tests: recorder semantics (off = no-op, on =
// spans/counters), the cross-process wire round trip and its rejection
// taxonomy, the JSONL / Chrome exports, profile aggregation (self vs.
// total time), engine instrumentation, and the headline contract — a
// K=4 process-backend run produces one merged profile from all four
// shards while leaving the algorithm's results bit-identical to a
// telemetry-off run.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <vector>

#include "mrlr/bench/json.hpp"
#include "mrlr/core/rlr_matching.hpp"
#include "mrlr/exec/process_shard_executor.hpp"
#include "mrlr/exec/shard_transport.hpp"
#include "mrlr/graph/generators.hpp"
#include "mrlr/mrc/engine.hpp"
#include "mrlr/mrc/trace.hpp"
#include "mrlr/obs/export.hpp"
#include "mrlr/obs/report.hpp"
#include "mrlr/obs/telemetry.hpp"
#include "mrlr/util/rng.hpp"

namespace mrlr {
namespace {

using exec::TransportError;
using obs::Phase;
using obs::SpanRecord;
using obs::Telemetry;
using obs::TelemetrySnapshot;

/// Every test leaves the process-wide recorder off and empty, so suites
/// sharing the binary cannot observe each other.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

  static void reset() {
    Telemetry& t = Telemetry::instance();
    t.disable();
    t.clear();
    t.set_shard(0);
  }
};

// ------------------------------------------------------------ recorder --

TEST_F(TelemetryTest, PhaseNamesRoundTrip) {
  for (std::size_t i = 0; i < obs::kNumPhases; ++i) {
    const Phase p = static_cast<Phase>(i);
    const auto back = obs::phase_from_name(obs::phase_name(p));
    ASSERT_TRUE(back.has_value()) << obs::phase_name(p);
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(obs::phase_from_name("no_such_phase").has_value());
  EXPECT_FALSE(obs::phase_from_name("").has_value());
}

TEST_F(TelemetryTest, DisabledRecorderIsANoOp) {
  Telemetry& t = Telemetry::instance();
  ASSERT_FALSE(t.enabled());
  t.record_span(Phase::kRound, 0, 100, 0, "ignored");
  t.add_counter("ignored", 5);
  { obs::ScopedSpan span(Phase::kIoLoad); }
  obs::count("ignored");
  const TelemetrySnapshot snap = t.snapshot();
  EXPECT_TRUE(snap.spans.empty());
  EXPECT_TRUE(snap.counters.empty());
}

TEST_F(TelemetryTest, EnabledRecorderCapturesSpansAndCounters) {
  Telemetry& t = Telemetry::instance();
  t.enable();
  t.record_span(Phase::kCallback, 10, 60, 3, "work");
  { obs::ScopedSpan span(Phase::kArenaMerge, 3); }
  obs::count("frames", 2);
  obs::count("frames");

  const TelemetrySnapshot snap = t.snapshot();
  ASSERT_EQ(snap.spans.size(), 2u);
  EXPECT_EQ(snap.spans[0].phase, Phase::kCallback);
  EXPECT_EQ(snap.spans[0].start_ns, 10u);
  EXPECT_EQ(snap.spans[0].dur_ns, 50u);
  EXPECT_EQ(snap.spans[0].round, 3u);
  EXPECT_EQ(snap.spans[0].label, "work");
  EXPECT_EQ(snap.spans[1].phase, Phase::kArenaMerge);
  ASSERT_EQ(snap.counters.count("frames"), 1u);
  EXPECT_EQ(snap.counters.at("frames"), 3u);

  // enable() again starts a fresh window.
  t.enable();
  EXPECT_EQ(t.span_count(), 0u);
  EXPECT_TRUE(t.snapshot().counters.empty());
}

TEST_F(TelemetryTest, DurationClampsBackwardClock) {
  Telemetry& t = Telemetry::instance();
  t.enable();
  t.record_span(Phase::kRound, 100, 40);  // end before start
  ASSERT_EQ(t.span_count(), 1u);
  EXPECT_EQ(t.snapshot().spans[0].dur_ns, 0u);
}

// ------------------------------------------------- wire ship and merge --

TEST_F(TelemetryTest, SerializeMergeRoundTrip) {
  Telemetry& t = Telemetry::instance();
  t.enable();
  t.record_span(Phase::kRound, 0, 5, 0, "pre-mark");
  t.add_counter("exec.frames_sent", 4);

  // Emulate the forked worker: mark, switch shard, record, serialize.
  const Telemetry::Mark mark = t.mark();
  t.set_shard(3);
  t.record_span(Phase::kCallback, 100, 170, 2, "machines [6, 9)");
  t.record_span(Phase::kShardSerialize, 170, 180, 2);
  t.add_counter("exec.frames_sent", 2);  // delta over the mark
  t.add_counter("worker.only", 7);       // new counter since the mark
  const std::vector<std::byte> wire = t.serialize_since(mark);

  // Back on the "coordinator": only pre-mark state, then merge.
  t.enable();
  t.record_span(Phase::kRound, 0, 5, 0, "pre-mark");
  t.add_counter("exec.frames_sent", 4);
  t.merge_remote(wire, /*expected_shard=*/3);

  const TelemetrySnapshot snap = t.snapshot();
  ASSERT_EQ(snap.spans.size(), 3u);
  EXPECT_EQ(snap.spans[1].phase, Phase::kCallback);
  EXPECT_EQ(snap.spans[1].shard, 3u);
  EXPECT_EQ(snap.spans[1].round, 2u);
  EXPECT_EQ(snap.spans[1].start_ns, 100u);
  EXPECT_EQ(snap.spans[1].dur_ns, 70u);
  EXPECT_EQ(snap.spans[1].label, "machines [6, 9)");
  EXPECT_EQ(snap.spans[2].phase, Phase::kShardSerialize);
  EXPECT_EQ(snap.spans[2].label, "");
  EXPECT_EQ(snap.counters.at("exec.frames_sent"), 6u);  // 4 + delta 2
  EXPECT_EQ(snap.counters.at("worker.only"), 7u);
}

TEST_F(TelemetryTest, SerializeSinceEmptyWindowStillMerges) {
  Telemetry& t = Telemetry::instance();
  t.enable();
  const std::vector<std::byte> wire = t.serialize_since(t.mark());
  t.merge_remote(wire, 1);
  EXPECT_EQ(t.span_count(), 0u);
}

TEST_F(TelemetryTest, MergeRejectsMalformedPayloads) {
  Telemetry& t = Telemetry::instance();
  t.enable();

  const auto expect_bad = [&](const std::vector<std::byte>& bytes,
                              std::uint32_t shard) {
    try {
      t.merge_remote(bytes, shard);
      FAIL() << "merge_remote accepted a malformed payload";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.kind, TransportError::Kind::kBadPayload) << e.what();
    }
  };

  // Empty / truncated before the version lane.
  expect_bad({}, 0);

  // Unsupported wire version.
  {
    std::vector<std::byte> b;
    exec::append_u64(b, 999);
    expect_bad(b, 0);
  }

  // Span count exceeding the payload backing it.
  {
    std::vector<std::byte> b;
    exec::append_u64(b, 1);   // version
    exec::append_u64(b, 50);  // claims 50 spans, no bytes behind them
    expect_bad(b, 0);
  }

  // A well-formed span attributed to the wrong shard.
  {
    t.enable();
    const Telemetry::Mark mark = t.mark();
    t.set_shard(2);
    t.record_span(Phase::kCallback, 0, 10, 0);
    const std::vector<std::byte> wire = t.serialize_since(mark);
    t.enable();
    expect_bad(wire, /*expected shard*/ 1);
  }

  // Unknown phase id.
  {
    std::vector<std::byte> b;
    exec::append_u64(b, 1);                // version
    exec::append_u64(b, 1);                // one span
    exec::append_u64(b, obs::kNumPhases);  // phase out of range
    exec::append_u64(b, 0);                // shard
    exec::append_u64(b, 0);                // round
    exec::append_u64(b, 0);                // start
    exec::append_u64(b, 0);                // dur
    exec::append_u64(b, 0);                // label length
    expect_bad(b, 0);
  }

  // Trailing bytes after the last counter.
  {
    std::vector<std::byte> b;
    exec::append_u64(b, 1);  // version
    exec::append_u64(b, 0);  // no spans
    exec::append_u64(b, 0);  // no counters
    b.push_back(std::byte{0});
    expect_bad(b, 0);
  }

  // Counter with an empty name.
  {
    std::vector<std::byte> b;
    exec::append_u64(b, 1);  // version
    exec::append_u64(b, 0);  // no spans
    exec::append_u64(b, 1);  // one counter
    exec::append_u64(b, 0);  // name length 0
    exec::append_u64(b, 5);  // value
    expect_bad(b, 0);
  }

  // Nothing merged from any rejected payload.
  EXPECT_EQ(t.span_count(), 0u);
}

// ------------------------------------------------------------- exports --

TelemetrySnapshot sample_snapshot() {
  TelemetrySnapshot snap;
  snap.spans.push_back(
      SpanRecord{Phase::kRound, 0, 0, 0, 1000, "select"});
  snap.spans.push_back(
      SpanRecord{Phase::kCallback, 0, 0, 100, 500, ""});
  snap.spans.push_back(
      SpanRecord{Phase::kIoLoad, 0, obs::kNoRound, 5, 50, "mgb"});
  snap.spans.push_back(
      SpanRecord{Phase::kShardSerialize, 2, 0, 300, 80, ""});
  snap.counters["engine.rounds"] = 1;
  snap.counters["exec.frames_sent"] = 4;
  return snap;
}

TEST_F(TelemetryTest, JsonlExportRoundTrips) {
  const TelemetrySnapshot snap = sample_snapshot();
  std::ostringstream out;
  obs::write_telemetry(snap, obs::ExportFormat::kJsonl, out);

  std::istringstream in(out.str());
  const TelemetrySnapshot back = obs::read_telemetry_jsonl(in);
  ASSERT_EQ(back.spans.size(), snap.spans.size());
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    EXPECT_EQ(back.spans[i].phase, snap.spans[i].phase) << i;
    EXPECT_EQ(back.spans[i].shard, snap.spans[i].shard) << i;
    EXPECT_EQ(back.spans[i].round, snap.spans[i].round) << i;
    EXPECT_EQ(back.spans[i].start_ns, snap.spans[i].start_ns) << i;
    EXPECT_EQ(back.spans[i].dur_ns, snap.spans[i].dur_ns) << i;
    EXPECT_EQ(back.spans[i].label, snap.spans[i].label) << i;
  }
  EXPECT_EQ(back.counters, snap.counters);

  // The first line is the versioned header.
  std::istringstream lines(out.str());
  std::string first;
  ASSERT_TRUE(std::getline(lines, first));
  const bench::Json header = bench::Json::parse(first);
  EXPECT_EQ(header.at("mrlr_telemetry").as_number(),
            static_cast<double>(obs::kTelemetryFileVersion));
  EXPECT_EQ(header.at("clock").as_string(), "steady-ns");
}

TEST_F(TelemetryTest, JsonlReaderRejectsMissingHeaderAndUnknownRecords) {
  {
    std::istringstream in("{\"type\":\"span\"}\n");
    EXPECT_THROW(obs::read_telemetry_jsonl(in), bench::JsonError);
  }
  {
    std::istringstream in("");
    EXPECT_THROW(obs::read_telemetry_jsonl(in), bench::JsonError);
  }
  {
    std::istringstream in(
        "{\"mrlr_telemetry\":1,\"clock\":\"steady-ns\"}\n"
        "{\"type\":\"mystery\"}\n");
    EXPECT_THROW(obs::read_telemetry_jsonl(in), bench::JsonError);
  }
  {
    std::istringstream in(
        "{\"mrlr_telemetry\":1,\"clock\":\"steady-ns\"}\n"
        "{\"type\":\"span\",\"phase\":\"warp\",\"shard\":0,"
        "\"start_ns\":0,\"dur_ns\":1}\n");
    EXPECT_THROW(obs::read_telemetry_jsonl(in), bench::JsonError);
  }
  {
    std::istringstream in("{\"mrlr_telemetry\":99}\n");
    EXPECT_THROW(obs::read_telemetry_jsonl(in), bench::JsonError);
  }
}

TEST_F(TelemetryTest, ChromeExportIsWellFormedTraceJson) {
  const TelemetrySnapshot snap = sample_snapshot();
  std::ostringstream out;
  obs::write_telemetry(snap, obs::ExportFormat::kChrome, out);

  const bench::Json doc = bench::Json::parse(out.str());
  const auto& events = doc.at("traceEvents").items();
  ASSERT_EQ(events.size(), snap.spans.size());
  EXPECT_EQ(events[0].at("ph").as_string(), "X");
  EXPECT_EQ(events[0].at("name").as_string(), "round");
  EXPECT_EQ(events[0].at("dur").as_number(), 1.0);  // 1000 ns = 1 us
  EXPECT_EQ(events[3].at("tid").as_number(), 2.0);  // tid = shard
  EXPECT_EQ(doc.at("otherData").at("counters").at("engine.rounds")
                .as_number(),
            1.0);
}

TEST_F(TelemetryTest, ExportFormatNames) {
  EXPECT_EQ(obs::export_format_from_name("jsonl"),
            obs::ExportFormat::kJsonl);
  EXPECT_EQ(obs::export_format_from_name("chrome"),
            obs::ExportFormat::kChrome);
  EXPECT_FALSE(obs::export_format_from_name("xml").has_value());
}

// ------------------------------------------------------------- reports --

TEST_F(TelemetryTest, BuildReportComputesSelfTimeByContainment) {
  TelemetrySnapshot snap;
  // Shard 0: a round span [0, 1000) containing a callback [100, 400)
  // which itself contains an arena_merge [150, 250).
  snap.spans.push_back(SpanRecord{Phase::kRound, 0, 0, 0, 1000, ""});
  snap.spans.push_back(SpanRecord{Phase::kCallback, 0, 0, 100, 300, ""});
  snap.spans.push_back(SpanRecord{Phase::kArenaMerge, 0, 0, 150, 100, ""});
  // Shard 1 overlaps shard 0 in wall time but is its own track.
  snap.spans.push_back(SpanRecord{Phase::kCallback, 1, 0, 50, 600, ""});

  const obs::ProfileReport report = obs::build_report(snap);

  ASSERT_EQ(report.by_phase.count(Phase::kRound), 1u);
  const obs::PhaseStat& round = report.by_phase.at(Phase::kRound);
  EXPECT_EQ(round.total_ns, 1000u);
  EXPECT_EQ(round.self_ns, 700u);  // minus the 300 ns callback

  const obs::PhaseStat& callback = report.by_phase.at(Phase::kCallback);
  EXPECT_EQ(callback.spans, 2u);
  EXPECT_EQ(callback.total_ns, 900u);
  // Shard 0 callback: 300 - 100 nested merge = 200; shard 1: full 600.
  EXPECT_EQ(callback.self_ns, 800u);

  const obs::PhaseStat& merge = report.by_phase.at(Phase::kArenaMerge);
  EXPECT_EQ(merge.total_ns, 100u);
  EXPECT_EQ(merge.self_ns, 100u);

  EXPECT_EQ(report.round_total_ns, 1000u);
  ASSERT_EQ(report.by_shard.size(), 2u);
  EXPECT_EQ(report.by_shard[0].shard, 0u);
  EXPECT_EQ(report.by_shard[1].shard, 1u);
  EXPECT_EQ(report.by_shard[1].phases.at(Phase::kCallback).self_ns, 600u);
}

TEST_F(TelemetryTest, RenderReportEmitsBothForms) {
  TelemetrySnapshot snap = sample_snapshot();
  const obs::ProfileReport report = obs::build_report(snap);

  std::ostringstream console;
  obs::render_report(report, console, /*markdown=*/false);
  EXPECT_NE(console.str().find("round"), std::string::npos);
  EXPECT_NE(console.str().find("% of round"), std::string::npos);

  std::ostringstream md;
  obs::render_report(report, md, /*markdown=*/true);
  EXPECT_NE(md.str().find("### Per-phase totals"), std::string::npos);
  EXPECT_NE(md.str().find("### Per-shard breakdown"), std::string::npos);
  EXPECT_NE(md.str().find("### Counters"), std::string::npos);
  EXPECT_NE(md.str().find("| phase |"), std::string::npos);
}

// ------------------------------------------------ engine instrumentation --

TEST_F(TelemetryTest, EngineEmitsRoundPhases) {
  Telemetry& t = Telemetry::instance();
  t.enable();

  mrc::Topology topo;
  topo.num_machines = 4;
  topo.words_per_machine = 1 << 16;
  mrc::Engine e(topo);
  const mrc::RoundId scatter = e.define_round(
      "scatter", [](mrc::MachineContext& ctx, std::span<const mrc::Word>) {
        ctx.send((ctx.id() + 1) % ctx.num_machines(), {1, 2, 3});
      });
  e.invoke_round(scatter);
  e.run_central_round("scan", [](mrc::MachineContext&) {});

  const TelemetrySnapshot snap = t.snapshot();
  std::vector<std::uint64_t> round_rounds;
  bool saw_callback = false, saw_central = false, saw_merge = false;
  for (const SpanRecord& s : snap.spans) {
    switch (s.phase) {
      case Phase::kRound:
        round_rounds.push_back(s.round);
        break;
      case Phase::kCallback:
        saw_callback = true;
        EXPECT_EQ(s.round, 0u);
        EXPECT_EQ(s.label, "scatter");
        break;
      case Phase::kCentral:
        saw_central = true;
        EXPECT_EQ(s.round, 1u);
        EXPECT_EQ(s.label, "scan");
        break;
      case Phase::kArenaMerge:
        saw_merge = true;
        break;
      default:
        break;
    }
    EXPECT_EQ(s.shard, 0u);
  }
  EXPECT_EQ(round_rounds, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_TRUE(saw_callback);
  EXPECT_TRUE(saw_central);
  EXPECT_TRUE(saw_merge);
  ASSERT_EQ(snap.counters.count("engine.rounds"), 1u);
  EXPECT_EQ(snap.counters.at("engine.rounds"), 2u);
}

TEST_F(TelemetryTest, EngineSpansDoNotChangeMessageResults) {
  // Identical traffic with telemetry on and off: same metrics trace.
  const auto run = [] {
    mrc::Topology topo;
    topo.num_machines = 3;
    mrc::Engine e(topo);
    const mrc::RoundId ring = e.define_round(
        "ring", [](mrc::MachineContext& ctx, std::span<const mrc::Word>) {
          for (const mrc::MessageView m : ctx.messages()) {
            EXPECT_EQ(m.payload.size(), 2u);
          }
          ctx.send((ctx.id() + 1) % 3, {7, 8});
        });
    for (int r = 0; r < 3; ++r) e.invoke_round(ring);
    std::ostringstream csv;
    mrc::write_trace_csv(e.metrics(), csv);
    return csv.str();
  };
  const std::string off = run();
  Telemetry::instance().enable();
  const std::string on = run();
  EXPECT_EQ(off, on);
}

TEST_F(TelemetryTest, WorkerSpansCarryTheEngineRoundIndex) {
  // Central rounds never reach the executor, yet a worker's spans must
  // be attributed to the same round index as the coordinator's: the
  // frame sequence comes from the engine, not from counting dispatches.
  Telemetry& t = Telemetry::instance();
  t.enable();
  {
    mrc::Topology topo;
    topo.num_machines = 4;
    mrc::Engine e(topo, std::make_shared<exec::ProcessShardExecutor>(2));
    const mrc::RoundId ping = e.define_round(
        "ping", [](mrc::MachineContext& ctx, std::span<const mrc::Word>) {
          ctx.send(mrc::kCentral, {ctx.id()});
        });
    e.run_central_round("pre", [](mrc::MachineContext&) {});  // round 0
    e.invoke_round(ping);                                      // round 1
    e.run_central_round("drain", [](mrc::MachineContext&) {});  // round 2
    e.run_central_round("idle", [](mrc::MachineContext&) {});   // round 3
    e.invoke_round(ping);                                      // round 4
  }
  t.disable();
  std::set<std::uint64_t> coordinator, worker;
  for (const SpanRecord& s : t.snapshot().spans) {
    if (s.phase != Phase::kCallback) continue;
    (s.shard == 0 ? coordinator : worker).insert(s.round);
  }
  EXPECT_EQ(coordinator, (std::set<std::uint64_t>{1, 4}));
  EXPECT_EQ(worker, (std::set<std::uint64_t>{1, 4}));
}

// -------------------------------------- process backend: merged profile --

struct MatchingResult {
  std::vector<graph::EdgeId> matching;
  double weight = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t max_words = 0;
  std::uint64_t comm = 0;
  bool failed = true;

  bool operator==(const MatchingResult&) const = default;
};

MatchingResult run_sharded_matching(std::uint64_t shards = 4) {
  Rng rng(17 ^ 0xABCDEFull);
  graph::Graph g = graph::gnm_density(300, 0.5, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
  core::MrParams params;
  params.mu = 0.15;
  params.seed = 17;
  params.num_shards = shards;
  const auto r = core::rlr_matching(g, params);
  return {r.matching,          r.weight,
          r.outcome.rounds,    r.outcome.max_machine_words,
          r.outcome.total_communication, r.outcome.failed};
}

TEST_F(TelemetryTest, ProcessBackendMergesAllShardProfiles) {
  const MatchingResult off = run_sharded_matching();
  ASSERT_FALSE(off.failed);

  Telemetry& t = Telemetry::instance();
  t.enable();
  const MatchingResult on = run_sharded_matching();
  t.disable();

  // The headline determinism contract: telemetry must not perturb the
  // algorithm in any observable way.
  EXPECT_EQ(off, on);

  // One merged profile with spans from every shard, 0 through 3.
  const TelemetrySnapshot snap = t.snapshot();
  std::set<std::uint32_t> shards;
  for (const SpanRecord& s : snap.spans) shards.insert(s.shard);
  EXPECT_EQ(shards, (std::set<std::uint32_t>{0, 1, 2, 3}));

  // Worker spans carry in-range round attribution and worker phases.
  bool saw_worker_callback = false, saw_serialize = false,
       saw_transport = false, saw_wait = false;
  for (const SpanRecord& s : snap.spans) {
    if (s.shard > 0) {
      EXPECT_NE(s.round, obs::kNoRound);
      EXPECT_LT(s.round, on.rounds);
      saw_worker_callback |= s.phase == Phase::kCallback;
      saw_serialize |= s.phase == Phase::kShardSerialize;
      saw_transport |= s.phase == Phase::kShardTransport;
    } else {
      saw_wait |= s.phase == Phase::kWorkerWait;
    }
  }
  EXPECT_TRUE(saw_worker_callback);
  EXPECT_TRUE(saw_serialize);
  EXPECT_TRUE(saw_transport);
  EXPECT_TRUE(saw_wait);

  // The wire counters merged from both directions of the channel.
  EXPECT_GT(snap.counters.at("exec.frames_sent"), 0u);
  EXPECT_GT(snap.counters.at("exec.frames_received"), 0u);
  EXPECT_GT(snap.counters.at("exec.wire_bytes_out"), 0u);
  EXPECT_EQ(snap.counters.at("engine.rounds"), on.rounds);

  // The merged profile renders: every shard appears in the breakdown.
  const obs::ProfileReport report = obs::build_report(snap);
  EXPECT_EQ(report.by_shard.size(), 4u);
  EXPECT_GT(report.round_total_ns, 0u);
}

TEST_F(TelemetryTest, ProcessBackendSpansCoverBothEndsOfTheDataPlane) {
  // The coordinator's encode, send and apply work and the worker's
  // apply work each get their own span instead of being booked as
  // callback time.
  Telemetry& t = Telemetry::instance();
  t.enable();
  const MatchingResult on = run_sharded_matching(2);
  t.disable();
  ASSERT_FALSE(on.failed);
  std::set<std::pair<std::uint32_t, Phase>> seen;
  for (const SpanRecord& s : t.snapshot().spans) {
    seen.emplace(s.shard, s.phase);
  }
  EXPECT_TRUE(seen.count({0, Phase::kShardSerialize}));
  EXPECT_TRUE(seen.count({0, Phase::kShardTransport}));
  EXPECT_TRUE(seen.count({0, Phase::kShardApply}));
  EXPECT_TRUE(seen.count({1, Phase::kShardApply}));
}

TEST_F(TelemetryTest, ProcessBackendWireCountersBalance) {
  // Every frame is counted once by its sender and once by its receiver,
  // and the workers' counts reach the coordinator through their
  // telemetry frames: in and out must agree. Only the handshake-era
  // frames and the last round's trailing worker frames escape, which
  // the data frames of a real job dwarf.
  Telemetry& t = Telemetry::instance();
  t.enable();
  const MatchingResult on = run_sharded_matching(2);
  t.disable();
  ASSERT_FALSE(on.failed);
  const TelemetrySnapshot snap = t.snapshot();
  const double out =
      static_cast<double>(snap.counters.at("exec.wire_bytes_out"));
  const double in = static_cast<double>(snap.counters.at("exec.wire_bytes_in"));
  EXPECT_GT(out, 1e6);
  EXPECT_NEAR(in / out, 1.0, 0.01) << "in " << in << " out " << out;
}

}  // namespace
}  // namespace mrlr
