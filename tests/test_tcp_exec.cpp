// End-to-end tests for true multi-host execution: real TCP worker
// processes (forked loopback fleet), the full job-state bootstrap over
// the wire, and the coordinator's failure handling when workers die,
// stall, or reconnect. The load-bearing claim: every driver's result
// fingerprint is byte-identical whether it runs serially or over TCP
// workers that reconstructed the job from the shipped spec alone.

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "mrlr/core/params.hpp"
#include "mrlr/exec/process_shard_executor.hpp"
#include "mrlr/exec/shard_channel.hpp"
#include "mrlr/exec/shard_transport.hpp"
#include "mrlr/exec/shard_worker.hpp"
#include "mrlr/exec/worker_launcher.hpp"
#include "mrlr/graph/generators.hpp"
#include "mrlr/jobs/job_spec.hpp"
#include "mrlr/jobs/worker.hpp"
#include "mrlr/mrc/engine.hpp"
#include "mrlr/obs/telemetry.hpp"
#include "mrlr/setcover/generators.hpp"
#include "mrlr/util/rng.hpp"

namespace mrlr {
namespace {

/// A small weighted graph, deterministic in `seed`.
graph::Graph test_graph(std::uint64_t seed, bool weighted) {
  Rng rng(seed ^ 0xABCDEFull);
  graph::Graph g = graph::gnm_density(150, 0.5, rng);
  if (weighted) {
    g = g.with_weights(
        graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
  }
  return g;
}

core::MrParams spec_params(std::uint64_t shards,
                           std::uint64_t threads = 1) {
  core::MrParams p;
  p.mu = 0.2;
  p.seed = 7;
  p.num_shards = shards;
  p.num_threads = threads;
  return p;
}

/// One JobSpec per registered algorithm — all 15 — on small instances,
/// with every extra each driver requires.
std::vector<jobs::JobSpec> all_driver_specs(std::uint64_t shards,
                                            std::uint64_t threads = 1) {
  const core::MrParams params = spec_params(shards, threads);
  const graph::Graph gw = test_graph(1, /*weighted=*/true);
  const graph::Graph gu = test_graph(2, /*weighted=*/false);
  Rng sets_rng(0x5E7C07ull);
  const setcover::SetSystem sys = setcover::many_sets(
      220, 40, 10, graph::WeightDist::kUniform, sets_rng);

  std::vector<jobs::JobSpec> specs;
  for (const char* a :
       {"matching", "filtering-matching", "filtering-weighted",
        "coreset-matching"}) {
    specs.push_back(jobs::graph_job(a, gw, params));
  }
  {
    jobs::JobSpec s = jobs::graph_job("b-matching", gw, params);
    s.extras["b"] = {2};
    s.extras["eps"] = {core::pack_double(0.25)};
    specs.push_back(std::move(s));
  }
  {
    jobs::JobSpec s = jobs::graph_job("vertex-cover", gu, params);
    Rng wr(99);
    auto& w = s.extras["w"];
    for (std::size_t v = 0; v < gu.num_vertices(); ++v) {
      w.push_back(core::pack_double(
          1.0 + static_cast<double>(wr() % 1000) / 250.0));
    }
    specs.push_back(std::move(s));
  }
  specs.push_back(jobs::set_system_job("set-cover-f", sys, params));
  {
    jobs::JobSpec s = jobs::set_system_job("set-cover-greedy", sys, params);
    s.extras["eps"] = {core::pack_double(0.3)};
    specs.push_back(std::move(s));
  }
  for (const char* a : {"mis", "mis-simple", "luby-mis", "clique",
                        "colour-vertex", "luby-colouring", "colour-edge"}) {
    specs.push_back(jobs::graph_job(a, gu, params));
  }
  return specs;
}

TEST(TcpExecutor, AllDriversByteIdenticalSerialVsTcp) {
  // Serial baselines first (num_shards=1, no backend config installed).
  std::vector<std::string> serial;
  for (const jobs::JobSpec& spec : all_driver_specs(1)) {
    serial.push_back(jobs::fingerprint(jobs::run_job(spec)));
  }
  ASSERT_EQ(serial.size(), 15u);

  // One loopback fleet serves both shard counts: shard s connects to
  // endpoint s-1, extra endpoints stay idle. Every job re-ships its
  // full spec, so the workers rebuild all 15 drivers from the wire.
  jobs::ScopedTcpLoopback fleet(3);
  for (const std::uint64_t shards : {2ull, 4ull}) {
    const auto specs = all_driver_specs(shards);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      exec::ProcessBackendConfig cfg;
      cfg.workers = fleet.endpoints();
      cfg.connect_timeout = std::chrono::milliseconds(5000);
      cfg.job_spec = jobs::encode_job_spec(specs[i]);
      exec::ScopedProcessBackendConfig guard(std::move(cfg));
      EXPECT_EQ(jobs::fingerprint(jobs::run_job(specs[i])), serial[i])
          << specs[i].algorithm << " shards=" << shards;
    }
  }
}

TEST(TcpExecutor, ComposedShardsThreadsByteIdenticalSerialVsTcp) {
  // --threads x --shards over real TCP workers: K=2 shards (one remote)
  // each running its machine range on a T=4 shard-local pool, with the
  // thread count carried by the wire bootstrap. A representative driver subset — matching (weights),
  // vertex-cover (per-vertex extras), set-cover-greedy (central
  // selection), colour-edge (grouped rounds) — must be byte-identical
  // to its serial run.
  const auto serial_specs = all_driver_specs(1);
  const auto composed_specs = all_driver_specs(2, 4);
  jobs::ScopedTcpLoopback fleet(1);
  for (const std::size_t i : {std::size_t{0}, std::size_t{5},
                              std::size_t{7}, std::size_t{14}}) {
    const std::string serial =
        jobs::fingerprint(jobs::run_job(serial_specs[i]));
    exec::ProcessBackendConfig cfg;
    cfg.workers = fleet.endpoints();
    cfg.connect_timeout = std::chrono::milliseconds(5000);
    cfg.job_spec = jobs::encode_job_spec(composed_specs[i]);
    exec::ScopedProcessBackendConfig guard(std::move(cfg));
    EXPECT_EQ(jobs::fingerprint(jobs::run_job(composed_specs[i])), serial)
        << composed_specs[i].algorithm << " shards=2 threads=4";
  }
}

TEST(TcpExecutor, BootstrapBytesCountedInTelemetry) {
  obs::Telemetry& tel = obs::Telemetry::instance();
  tel.clear();
  tel.enable();
  {
    jobs::ScopedTcpLoopback fleet(1);
    const jobs::JobSpec spec = all_driver_specs(2)[0];  // matching
    exec::ProcessBackendConfig cfg;
    cfg.workers = fleet.endpoints();
    cfg.job_spec = jobs::encode_job_spec(spec);
    exec::ScopedProcessBackendConfig guard(std::move(cfg));
    (void)jobs::run_job(spec);
  }
  tel.disable();
  const obs::TelemetrySnapshot snap = tel.snapshot();
  tel.clear();
  const auto shipped = snap.counters.find("exec.bootstrap_bytes_shipped");
  ASSERT_NE(shipped, snap.counters.end());
  // The bootstrap carries the whole instance; it dwarfs the fixed
  // header fields.
  EXPECT_GT(shipped->second, 1000u);
  const auto out = snap.counters.find("exec.wire_bytes_out");
  ASSERT_NE(out, snap.counters.end());
  EXPECT_GT(out->second, shipped->second);
}

/// Runs a driver under `cfg` and returns the caught ExecError message
/// ("" when it unexpectedly succeeds).
std::string run_expecting_failure(exec::ProcessBackendConfig cfg) {
  const auto specs = all_driver_specs(2);
  cfg.job_spec = jobs::encode_job_spec(specs[0]);
  exec::ScopedProcessBackendConfig guard(std::move(cfg));
  try {
    (void)jobs::run_job(specs[0]);
    return "";
  } catch (const exec::ExecError& e) {
    return e.what();
  }
}

TEST(TcpExecutor, ConnectTimeoutToDeadEndpointIsTypedAndBounded) {
  // Bind-then-close: a port that refuses connections.
  std::uint16_t dead_port;
  {
    exec::TcpListener probe("127.0.0.1", 0);
    dead_port = probe.port();
  }
  exec::ProcessBackendConfig cfg;
  cfg.workers = {{"127.0.0.1", dead_port}};
  cfg.connect_timeout = std::chrono::milliseconds(250);
  const auto start = std::chrono::steady_clock::now();
  const std::string what = run_expecting_failure(std::move(cfg));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_NE(what.find("timed out"), std::string::npos) << what;
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

TEST(TcpExecutor, WorkerDeathBetweenHandshakeAndBootstrapIsTyped) {
  // A fake worker that completes the handshake and then dies before
  // ever reading the job setup: the coordinator's armed read timeout /
  // EOF detection must surface a typed error, never hang the job.
  exec::TcpListener listener("127.0.0.1", 0);
  const std::uint16_t port = listener.port();
  std::thread impostor([&] {
    exec::TcpChannel ch = listener.accept_channel();
    try {
      (void)exec::handshake_accept(ch, nullptr);
    } catch (...) {
    }
    ch.close_now();  // died with the bootstrap unread and unacked
  });
  exec::ProcessBackendConfig cfg;
  cfg.workers = {{"127.0.0.1", port}};
  cfg.connect_timeout = std::chrono::milliseconds(2000);
  const auto start = std::chrono::steady_clock::now();
  const std::string what = run_expecting_failure(std::move(cfg));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_NE(what, "") << "job must not succeed against a dead worker";
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  impostor.join();
}

TEST(TcpExecutor, WorkerStoppedAfterBootstrapFailsTypedWithinTheBound) {
  // A worker process of the test's own accepts the job, acks its
  // bootstrap, and then stops itself before its first round: after the
  // ack no read timeout guards the channel, so only the coordinator's
  // silence bound can end the job — typed, naming the shard and round.
  exec::TcpListener listener("127.0.0.1", 0);
  const std::uint16_t port = listener.port();
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    try {
      exec::TcpChannel ch = listener.accept_channel();
      const exec::HandshakeHello h = exec::handshake_accept(ch, nullptr);
      (void)exec::expect_frame(ch, exec::FrameKind::kJobSetup, h.shard, 0);
      exec::send_bootstrap_ack(ch, h.shard, true, {});
      std::raise(SIGSTOP);
    } catch (...) {
    }
    ::_exit(0);
  }
  listener.close_now();
  exec::ProcessBackendConfig cfg;
  cfg.workers = {{"127.0.0.1", port}};
  cfg.connect_timeout = std::chrono::milliseconds(1500);
  const auto start = std::chrono::steady_clock::now();
  const std::string what = run_expecting_failure(std::move(cfg));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  EXPECT_NE(what.find("shard 1 worker failed in round"), std::string::npos)
      << what;
  EXPECT_NE(what.find("sent nothing for 1500 ms"), std::string::npos) << what;
  EXPECT_LT(elapsed, std::chrono::seconds(8));
}

TEST(TcpExecutor, RoundAfterAFailedRoundIsRefused) {
  // A TCP worker that accepts the job and then drops its connection in
  // the first round: that round fails typed, and the engine refuses
  // every later round, naming the round that failed.
  exec::TcpListener listener("127.0.0.1", 0);
  std::thread worker([&] {
    try {
      exec::TcpChannel ch = listener.accept_channel();
      const exec::HandshakeHello h = exec::handshake_accept(ch, nullptr);
      (void)exec::expect_frame(ch, exec::FrameKind::kJobSetup, h.shard, 0);
      exec::send_bootstrap_ack(ch, h.shard, true, {});
      (void)exec::read_frame(ch);  // the first round control
      ch.close_now();
    } catch (...) {
    }
  });
  exec::ProcessBackendConfig cfg;
  cfg.workers = {{"127.0.0.1", listener.port()}};
  cfg.connect_timeout = std::chrono::milliseconds(2000);
  cfg.job_spec = {std::byte{1}};  // never decoded: the worker is a stub
  exec::ScopedProcessBackendConfig guard(std::move(cfg));
  {
    mrc::Topology t;
    t.num_machines = 4;
    mrc::Engine e(t, std::make_shared<exec::ProcessShardExecutor>(2));
    const mrc::RoundId ping = e.define_round(
        "ping", [](mrc::MachineContext& ctx, std::span<const mrc::Word>) {
          ctx.send(mrc::kCentral, {ctx.id()});
        });
    EXPECT_THROW(e.invoke_round(ping), exec::WorkerError);
    try {
      e.invoke_round(ping);
      FAIL() << "expected std::logic_error";
    } catch (const std::logic_error& err) {
      EXPECT_NE(std::string(err.what()).find("round 1 ('ping')"),
                std::string::npos)
          << err.what();
    }
  }
  worker.join();
}

TEST(TcpExecutor, MissingEndpointsRefusedUpFront) {
  // --workers lists one endpoint but the job needs three workers: a
  // typed refusal before anything connects.
  jobs::ScopedTcpLoopback fleet(1);
  const auto specs = all_driver_specs(4);
  exec::ProcessBackendConfig cfg;
  cfg.workers = fleet.endpoints();
  cfg.job_spec = jobs::encode_job_spec(specs[0]);
  exec::ScopedProcessBackendConfig guard(std::move(cfg));
  try {
    (void)jobs::run_job(specs[0]);
    FAIL() << "expected ExecError";
  } catch (const exec::ExecError& e) {
    EXPECT_NE(std::string(e.what()).find("endpoint"), std::string::npos)
        << e.what();
  }
}

TEST(TcpExecutor, ReconnectAfterDropIsRefusedAsDuplicate) {
  // Shard state lives in the worker's serving connection; when that
  // connection drops, a reconnect for the same (job, shard) cannot
  // restore it and must be refused — observable directly against a real
  // worker process.
  jobs::ScopedTcpLoopback fleet(1);
  const exec::Endpoint ep = fleet.endpoints()[0];
  const std::uint64_t nonce = 0x4C4F4F50ull;

  {
    exec::TcpChannel first =
        exec::tcp_connect(ep, std::chrono::milliseconds(2000));
    exec::handshake_connect(first, /*shard=*/1, nonce);
    // Connection drops here with the job half-started.
  }
  // The worker serves connections sequentially; give it a beat to
  // finish logging the dropped one and return to accept().
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  exec::TcpChannel second =
      exec::tcp_connect(ep, std::chrono::milliseconds(2000));
  try {
    exec::handshake_connect(second, /*shard=*/1, nonce);
    FAIL() << "expected TransportError";
  } catch (const exec::TransportError& e) {
    EXPECT_EQ(e.kind, exec::TransportError::Kind::kUnexpected);
    EXPECT_NE(std::string(e.what()).find("already registered"),
              std::string::npos)
        << e.what();
  }
  // A different job (fresh nonce) on the same worker is still welcome.
  exec::TcpChannel third =
      exec::tcp_connect(ep, std::chrono::milliseconds(2000));
  EXPECT_NO_THROW(exec::handshake_connect(third, /*shard=*/1, nonce + 1));
}

TEST(TcpExecutor, WorkerWithoutSpecRefusesJob) {
  // A coordinator that handshakes fine but ships a bootstrap without
  // the job spec (a fork-mode bootstrap aimed at a TCP worker): the
  // worker nacks and the connection dies typed, not hung.
  jobs::ScopedTcpLoopback fleet(1);
  exec::TcpChannel ch = exec::tcp_connect(fleet.endpoints()[0],
                                          std::chrono::milliseconds(2000));
  const std::uint64_t nonce = 0xBADF00Dull;
  exec::handshake_connect(ch, /*shard=*/1, nonce);
  exec::JobBootstrap b;
  b.first = 1;
  b.last = 2;
  b.machines = 4;
  b.shard_ranges = {{0, 1}, {1, 2}, {2, 4}};
  b.flags = 0;  // no kBootstrapCarriesSpec
  b.nonce = nonce;
  b.round_labels = {"r0"};
  const auto payload = exec::encode_bootstrap(b);
  exec::write_frame(ch, exec::FrameKind::kJobSetup, 1, 0, payload);
  try {
    (void)exec::expect_bootstrap_ack(ch, 1);
    FAIL() << "expected a nack";
  } catch (const exec::WorkerError& e) {
    EXPECT_NE(std::string(e.what()).find("spec"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace mrlr
