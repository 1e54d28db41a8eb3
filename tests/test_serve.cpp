// Serve-mode protocol and daemon tests: admission control against the
// projected space budget, byte-identical results through the daemon vs
// standalone run_job, client-disconnect cancellation (job killed and
// reaped, budget released, daemon healthy), typed rejection of
// malformed submissions, the shutdown drain, and the max_connections
// bound. Every daemon runs in its own forked process and must exit 0.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "mrlr/core/params.hpp"
#include "mrlr/exec/shard_channel.hpp"
#include "mrlr/exec/shard_transport.hpp"
#include "mrlr/graph/generators.hpp"
#include "mrlr/jobs/job_result.hpp"
#include "mrlr/jobs/job_spec.hpp"
#include "mrlr/jobs/worker.hpp"
#include "mrlr/obs/telemetry.hpp"
#include "mrlr/serve/admission.hpp"
#include "mrlr/serve/client.hpp"
#include "mrlr/serve/protocol.hpp"
#include "mrlr/serve/spawn.hpp"
#include "mrlr/setcover/generators.hpp"
#include "mrlr/util/rng.hpp"

namespace mrlr {
namespace {

jobs::JobSpec graph_spec(std::uint64_t n, std::uint64_t seed,
                         const char* algorithm = "matching") {
  Rng rng(seed ^ 0xABCDEFull);
  graph::Graph g = graph::gnm_density(n, 0.5, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
  core::MrParams params;
  params.mu = 0.2;
  params.seed = seed;
  return jobs::graph_job(algorithm, g, params);
}

jobs::JobSpec mis_spec(std::uint64_t n, std::uint64_t seed) {
  Rng rng(seed ^ 0xABCDEFull);
  const graph::Graph g = graph::gnm_density(n, 0.5, rng);
  core::MrParams params;
  params.mu = 0.2;
  params.seed = seed;
  return jobs::graph_job("mis", g, params);
}

/// A daemon forked on an ephemeral loopback port, drained at scope exit,
/// where it must exit 0.
struct Daemon {
  serve::SpawnedDaemon forked;

  static serve::ServeOptions with_log(serve::ServeOptions opts) {
    opts.log = [](const std::string& l) {
      fprintf(stderr, "[daemon] %s\n", l.c_str());
    };
    return opts;
  }
  explicit Daemon(serve::ServeOptions opts = {})
      : forked(with_log(std::move(opts))) {}

  ~Daemon() { EXPECT_TRUE(forked.shutdown()) << "daemon exit code"; }

  exec::Endpoint endpoint() const { return forked.endpoint(); }
  serve::StatsReply stats() const {
    return serve::ServeClient(endpoint()).stats();
  }
};

/// Polls the daemon's stats until `pred` holds or ~5s pass.
template <typename Pred>
bool eventually(const Daemon& d, Pred pred) {
  serve::ServeClient client(d.endpoint());
  for (int i = 0; i < 250; ++i) {
    if (pred(client.stats())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

/// Four distinct jobs (different seeds and algorithms).
std::vector<jobs::JobSpec> four_specs() {
  std::vector<jobs::JobSpec> specs;
  specs.push_back(graph_spec(150, 1));
  specs.push_back(graph_spec(150, 2, "filtering-matching"));
  specs.push_back(mis_spec(150, 3));
  specs.push_back(graph_spec(120, 4, "vertex-cover"));
  {  // vertex-cover needs weights
    Rng wr(99);
    auto& w = specs[3].extras["w"];
    for (std::size_t v = 0; v < 120; ++v) {
      w.push_back(core::pack_double(
          1.0 + static_cast<double>(wr() % 1000) / 250.0));
    }
  }
  return specs;
}

/// Submits each spec from its own client thread and checks every result
/// equals its standalone run.
void expect_concurrent_clients_match_standalone(
    const Daemon& d, const std::vector<jobs::JobSpec>& specs) {
  std::vector<std::string> standalone;
  for (const jobs::JobSpec& s : specs) {
    standalone.push_back(jobs::fingerprint(jobs::run_job(s)));
  }

  std::vector<std::string> remote(specs.size());
  std::vector<std::string> errors(specs.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    clients.emplace_back([&, i] {
      try {
        serve::ServeClient client(d.endpoint());
        const serve::AdmissionReply admission = client.submit(specs[i]);
        if (!admission.accepted) {
          errors[i] = "rejected: " + admission.message;
          return;
        }
        const serve::ResultReply reply = client.wait_result();
        if (!reply.ok) {
          errors[i] = "failed: " + reply.error;
          return;
        }
        remote[i] =
            jobs::fingerprint(serve::ServeClient::decode_result(reply));
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(errors[i], "") << specs[i].algorithm;
    EXPECT_EQ(remote[i], standalone[i]) << specs[i].algorithm;
  }
}

TEST(ServeAdmission, ProjectionReadsInstanceHeaderOnly) {
  const jobs::JobSpec g = graph_spec(150, 1);
  EXPECT_EQ(serve::instance_dimension(g), 150u);

  Rng rng(0x5E7C07ull);
  const setcover::SetSystem sys = setcover::many_sets(
      220, 40, 10, graph::WeightDist::kUniform, rng);
  core::MrParams params;
  const jobs::JobSpec s =
      jobs::set_system_job("set-cover-f", sys, params);
  EXPECT_EQ(serve::instance_dimension(s), sys.universe_size());

  // Monotone in n: a bigger instance always projects at least as much.
  EXPECT_GE(serve::projected_machine_words(graph_spec(600, 1)),
            serve::projected_machine_words(g));
  EXPECT_GT(serve::projected_machine_words(g), 0u);
}

TEST(ServeAdmission, MalformedInstanceThrowsTyped) {
  jobs::JobSpec spec = graph_spec(150, 1);
  spec.instance[0] = std::byte{0x00};  // break the .mgb magic
  try {
    (void)serve::projected_machine_words(spec);
    FAIL() << "malformed instance header was projected";
  } catch (const exec::TransportError& e) {
    EXPECT_EQ(e.kind, exec::TransportError::Kind::kBadPayload);
  }

  jobs::JobSpec tiny = graph_spec(150, 1);
  tiny.instance.resize(8);  // shorter than the header
  EXPECT_THROW((void)serve::instance_dimension(tiny),
               exec::TransportError);
}

TEST(ServeProtocol, ReplyEncodingsRoundTripAndRejectCorruption) {
  serve::AdmissionReply a;
  a.accepted = false;
  a.reason = serve::RejectReason::kOverBudget;
  a.message = "projected 9000 words";
  a.projected_words = 9000;
  a.budget_words = 10000;
  a.words_in_use = 8000;
  EXPECT_EQ(serve::decode_admission_reply(serve::encode_admission_reply(a)),
            a);

  // An accepted reply carrying a reject reason refuses to decode: the
  // two fields can never disagree on the wire.
  serve::AdmissionReply bad = a;
  bad.accepted = true;
  bad.job_id = 3;
  EXPECT_THROW(
      (void)serve::decode_admission_reply(serve::encode_admission_reply(bad)),
      exec::TransportError);

  serve::ResultReply r;
  r.job_id = 7;
  r.ok = true;
  r.queue_wait_ns = 123;
  r.run_ns = 456;
  r.result = jobs::encode_job_result(jobs::JobResult{
      "matching", 1, 2, true, core::MrOutcome{}, {}});
  EXPECT_EQ(serve::decode_result_reply(serve::encode_result_reply(r)), r);

  serve::ResultReply empty_ok = r;
  empty_ok.result.clear();
  EXPECT_THROW(
      (void)serve::decode_result_reply(serve::encode_result_reply(empty_ok)),
      exec::TransportError);

  serve::StatsReply s;
  s.jobs_submitted = 5;
  s.jobs_completed = 4;
  s.words_in_use = 99;
  s.uptime_ms = 1234;
  EXPECT_EQ(serve::decode_stats_reply(serve::encode_stats_reply(s)), s);

  serve::HealthReply h;
  h.shutting_down = true;
  h.jobs_running = 2;
  EXPECT_EQ(serve::decode_health_reply(serve::encode_health_reply(h)), h);
}

TEST(ServeDaemon, SingleSubmitMatchesStandaloneByteForByte) {
  const jobs::JobSpec spec = graph_spec(150, 1);
  const jobs::JobResult standalone = jobs::run_job(spec);

  Daemon d;
  serve::ServeClient client(d.endpoint());
  const serve::AdmissionReply admission = client.submit(spec);
  ASSERT_TRUE(admission.accepted) << admission.message;
  EXPECT_GT(admission.job_id, 0u);
  EXPECT_EQ(admission.reason, serve::RejectReason::kNone);
  EXPECT_EQ(admission.projected_words,
            serve::projected_machine_words(spec));

  const serve::ResultReply reply = client.wait_result();
  ASSERT_TRUE(reply.ok) << reply.error;
  const jobs::JobResult remote = serve::ServeClient::decode_result(reply);
  // The whole struct round-trips, so the fingerprint comparison below
  // is the same string `mrlr_cli run` renders from.
  EXPECT_EQ(remote, standalone);
  EXPECT_EQ(jobs::fingerprint(remote), jobs::fingerprint(standalone));

  const serve::StatsReply stats = client.stats();
  EXPECT_EQ(stats.jobs_submitted, 1u);
  EXPECT_EQ(stats.jobs_accepted, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.jobs_rejected, 0u);
  EXPECT_EQ(stats.words_in_use, 0u);  // released on completion

  const serve::HealthReply health = client.health();
  EXPECT_FALSE(health.shutting_down);
  EXPECT_EQ(health.jobs_running, 0u);
}

TEST(ServeDaemon, FourConcurrentClientsByteIdenticalToStandalone) {
  // Each job submitted from its own client thread while the daemon
  // multiplexes two executor slots. Every result must equal its
  // standalone run — the acceptance bar for service mode.
  serve::ServeOptions opts;
  opts.max_running = 2;
  Daemon d(std::move(opts));
  expect_concurrent_clients_match_standalone(d, four_specs());

  // The reservation is released before the result is relayed.
  const serve::StatsReply stats = d.stats();
  EXPECT_EQ(stats.jobs_completed, 4u);
  EXPECT_EQ(stats.words_in_use, 0u);
}

TEST(ServeDaemon, FourConcurrentClientsWithTelemetryOn) {
  // Regression: with telemetry on, a daemon that forked jobs while
  // other threads of its process were recording could fork under the
  // recorder's mutex, and the job child then blocked forever. The
  // daemon inherits the enabled recorder here while four client
  // threads record frame counters in this process.
  obs::Telemetry::instance().enable();
  {
    serve::ServeOptions opts;
    opts.max_running = 4;
    Daemon d(std::move(opts));
    expect_concurrent_clients_match_standalone(d, four_specs());
  }
  obs::Telemetry::instance().disable();
}

TEST(ServeDaemon, RejectsJobThatNeverFitsTheBudget) {
  serve::ServeOptions opts;
  opts.words_budget = 64;  // smaller than any projection
  Daemon d(std::move(opts));

  serve::ServeClient client(d.endpoint());
  const jobs::JobSpec spec = graph_spec(150, 1);
  const serve::AdmissionReply admission = client.submit(spec);
  EXPECT_FALSE(admission.accepted);
  EXPECT_EQ(admission.reason, serve::RejectReason::kNeverFits);
  EXPECT_EQ(admission.budget_words, 64u);
  EXPECT_GT(admission.projected_words, 64u);

  const serve::StatsReply stats = client.stats();
  EXPECT_EQ(stats.jobs_rejected, 1u);
  EXPECT_EQ(stats.jobs_accepted, 0u);
}

TEST(ServeDaemon, RejectsSecondJobOverBudgetWhileFirstRuns) {
  // Budget sized for exactly one copy of the job: the first submission
  // reserves it, the second (while the first is admitted-unfinished)
  // gets the typed kOverBudget reject with the space numbers filled.
  // n=12000 gives the job a ~0.5s+ runtime, which dwarfs the second
  // client's connect and submit, so the first job is still admitted
  // when the second arrives even on a loaded host.
  const jobs::JobSpec spec = mis_spec(12000, 6);
  const std::uint64_t projected = serve::projected_machine_words(spec);

  serve::ServeOptions opts;
  opts.words_budget = projected + projected / 2;
  Daemon d(std::move(opts));

  serve::ServeClient first(d.endpoint());
  const serve::AdmissionReply a1 = first.submit(spec);
  ASSERT_TRUE(a1.accepted) << a1.message;

  serve::ServeClient second(d.endpoint());
  const serve::AdmissionReply a2 = second.submit(spec);
  EXPECT_FALSE(a2.accepted);
  EXPECT_EQ(a2.reason, serve::RejectReason::kOverBudget);
  EXPECT_EQ(a2.projected_words, projected);
  EXPECT_EQ(a2.words_in_use, projected);
  EXPECT_EQ(a2.budget_words, opts.words_budget);

  const serve::ResultReply r1 = first.wait_result();
  EXPECT_TRUE(r1.ok) << r1.error;

  // With the first job finished its words are back; a resubmission of
  // the same spec now fits — kOverBudget really did mean "retry later".
  ASSERT_EQ(d.stats().words_in_use, 0u);
  const serve::AdmissionReply a3 = second.submit(spec);
  EXPECT_TRUE(a3.accepted) << a3.message;
  EXPECT_TRUE(second.wait_result().ok);
}

TEST(ServeDaemon, DisconnectMidJobCancelsReapsAndReleases) {
  Daemon d;
  {
    serve::ServeClient client(d.endpoint());
    // n=12000 gives the job a ~0.5s+ runtime (m = n^1.5 edges) so the
    // disconnect lands while it is genuinely mid-flight even in
    // optimized builds; the kill then ends the test early anyway.
    const serve::AdmissionReply admission =
        client.submit(mis_spec(12000, 6));
    ASSERT_TRUE(admission.accepted) << admission.message;
    // Abandon only once the job is observably running; vanishing
    // earlier can race the job to completion and turn this into a test
    // of the completed-but-unsendable path.
    ASSERT_TRUE(eventually(
        d, [](const serve::StatsReply& s) { return s.jobs_running == 1; }));
    client.abandon();  // vanish while the job runs
  }
  // The daemon must notice, kill the job process group, reap it, and
  // release the reservation — no hang, no zombie, no leaked words.
  ASSERT_TRUE(eventually(d, [](const serve::StatsReply& s) {
    return s.jobs_cancelled == 1 && s.jobs_running == 0 &&
           s.words_in_use == 0;
  })) << "cancelled job was not reaped";

  // And the daemon is still healthy: a fresh client completes a job.
  serve::ServeClient client(d.endpoint());
  const serve::AdmissionReply admission = client.submit(graph_spec(150, 1));
  ASSERT_TRUE(admission.accepted) << admission.message;
  EXPECT_TRUE(client.wait_result().ok);
}

TEST(ServeDaemon, MalformedSubmitRejectsTypedWithoutKillingConnection) {
  Daemon d;
  exec::TcpChannel ch = exec::tcp_connect(d.endpoint(),
                                          std::chrono::seconds(5));
  exec::handshake_connect(ch, 0, 0xBADC0DE);

  // Garbage payload: fails JobSpec decoding daemon-side, answered with
  // the typed kMalformedSpec reject — not a dropped connection.
  std::vector<std::byte> garbage(24, std::byte{0x5A});
  exec::write_frame(ch, exec::FrameKind::kJobSubmit, 0, 0, garbage);
  const exec::Frame reply =
      exec::expect_frame(ch, exec::FrameKind::kJobAdmission, 0, 0);
  const serve::AdmissionReply admission =
      serve::decode_admission_reply(reply.payload);
  EXPECT_FALSE(admission.accepted);
  EXPECT_EQ(admission.reason, serve::RejectReason::kMalformedSpec);

  // Same connection still serves a valid submission afterwards.
  exec::write_frame(ch, exec::FrameKind::kJobSubmit, 0, 1,
                    jobs::encode_job_spec(graph_spec(150, 1)));
  const exec::Frame reply2 =
      exec::expect_frame(ch, exec::FrameKind::kJobAdmission, 0, 1);
  EXPECT_TRUE(serve::decode_admission_reply(reply2.payload).accepted);
  const exec::Frame result =
      exec::expect_frame(ch, exec::FrameKind::kJobResult, 0, 1);
  EXPECT_TRUE(serve::decode_result_reply(result.payload).ok);

  const serve::StatsReply stats = d.stats();
  EXPECT_EQ(stats.jobs_rejected, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
}

TEST(ServeDaemon, GraphInstanceSizeMismatchRejectsAtSubmit) {
  // A graph instance whose byte count disagrees with its .mgb header's
  // m is refused at admission, not by the decoder in a forked job.
  Daemon d;
  serve::ServeClient client(d.endpoint());
  jobs::JobSpec shorter = graph_spec(150, 1);
  shorter.instance.resize(shorter.instance.size() - 8);  // no checksum
  jobs::JobSpec longer = graph_spec(150, 1);
  longer.instance.resize(longer.instance.size() + 16);  // one extra edge
  for (const jobs::JobSpec& spec : {shorter, longer}) {
    const serve::AdmissionReply admission = client.submit(spec);
    EXPECT_FALSE(admission.accepted);
    EXPECT_EQ(admission.reason, serve::RejectReason::kMalformedSpec);
    EXPECT_NE(admission.message.find("do not hold the header's"),
              std::string::npos)
        << admission.message;
  }
  const serve::StatsReply stats = d.stats();
  EXPECT_EQ(stats.jobs_rejected, 2u);
  EXPECT_EQ(stats.jobs_accepted, 0u);
}

TEST(ServeDaemon, UnknownAlgorithmRejectsTyped) {
  Daemon d;
  serve::ServeClient client(d.endpoint());
  jobs::JobSpec spec = graph_spec(150, 1);
  spec.algorithm = "simplex";
  const serve::AdmissionReply admission = client.submit(spec);
  EXPECT_FALSE(admission.accepted);
  EXPECT_EQ(admission.reason, serve::RejectReason::kUnknownAlgorithm);
  EXPECT_NE(admission.message.find("simplex"), std::string::npos);
}

TEST(ServeDaemon, ShutdownDrainsAndStopsAccepting) {
  Daemon d;
  {
    serve::ServeClient client(d.endpoint());
    EXPECT_TRUE(client.submit(graph_spec(150, 1)).accepted);
    EXPECT_TRUE(client.wait_result().ok);
    EXPECT_EQ(client.stats().jobs_completed, 1u);
    client.shutdown();  // returns only after the daemon acknowledged
  }
  // Nothing left to drain: the daemon exits 0 by itself.
  EXPECT_TRUE(d.forked.wait());

  // The listener is gone: a new client cannot connect.
  EXPECT_THROW(serve::ServeClient(d.endpoint(),
                                  std::chrono::milliseconds(300)),
               exec::TransportError);
}

TEST(ServeDaemon, ShutdownRunsQueuedJobsBeforeExiting) {
  // One executor slot: the second job is still queued when the shutdown
  // lands. The drain runs it rather than cancelling it, and refuses new
  // submissions typed meanwhile.
  serve::ServeOptions opts;
  opts.max_running = 1;
  Daemon d(std::move(opts));
  serve::ServeClient first(d.endpoint());
  serve::ServeClient second(d.endpoint());
  serve::ServeClient late(d.endpoint());
  ASSERT_TRUE(first.submit(mis_spec(12000, 6)).accepted);
  ASSERT_TRUE(second.submit(graph_spec(150, 1)).accepted);
  ASSERT_TRUE(eventually(d, [](const serve::StatsReply& s) {
    return s.jobs_running == 1 && s.jobs_queued == 1;
  }));
  serve::ServeClient(d.endpoint()).shutdown();

  const serve::AdmissionReply refused = late.submit(graph_spec(150, 2));
  EXPECT_FALSE(refused.accepted);
  EXPECT_EQ(refused.reason, serve::RejectReason::kShuttingDown);
  EXPECT_TRUE(first.wait_result().ok);
  EXPECT_TRUE(second.wait_result().ok);
  EXPECT_TRUE(d.forked.wait());
}

TEST(ServeDaemon, MaxConnectionsServesTheLastConnectionThenExits) {
  // Regression: the daemon used to stop right after accepting its Nth
  // connection, which then lost its first request.
  serve::ServeOptions opts;
  opts.max_connections = 1;
  Daemon d(std::move(opts));
  {
    serve::ServeClient client(d.endpoint());
    const serve::AdmissionReply admission = client.submit(graph_spec(150, 1));
    ASSERT_TRUE(admission.accepted) << admission.message;
    EXPECT_TRUE(client.wait_result().ok);
  }
  // run() returns once that connection has closed.
  EXPECT_TRUE(d.forked.wait());
}

}  // namespace
}  // namespace mrlr
