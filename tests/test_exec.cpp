// Tests for the exec/ subsystem: executor unit behavior, engine-level
// determinism of the threaded and process-sharded backends (traces,
// delivery order, space audits byte-identical to serial), persistent
// worker failure handling, and the algorithm-level determinism suite
// covering every ported driver across thread and shard counts.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <csignal>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "mrlr/baselines/coreset_matching.hpp"
#include "mrlr/baselines/filtering_matching.hpp"
#include "mrlr/baselines/luby_colouring_mr.hpp"
#include "mrlr/baselines/luby_mr.hpp"
#include "mrlr/baselines/sample_prune_setcover.hpp"
#include "mrlr/core/colouring.hpp"
#include "mrlr/core/greedy_setcover_mr.hpp"
#include "mrlr/core/hungry_clique.hpp"
#include "mrlr/core/hungry_mis.hpp"
#include "mrlr/core/rlr_bmatching.hpp"
#include "mrlr/core/rlr_matching.hpp"
#include "mrlr/core/rlr_setcover.hpp"
#include "mrlr/exec/executor.hpp"
#include "mrlr/exec/process_shard_executor.hpp"
#include "mrlr/exec/serial_executor.hpp"
#include "mrlr/exec/shard_transport.hpp"
#include "mrlr/exec/thread_pool_executor.hpp"
#include "mrlr/exec/worker_launcher.hpp"
#include "mrlr/graph/generators.hpp"
#include "mrlr/mrc/engine.hpp"
#include "mrlr/mrc/trace.hpp"
#include "mrlr/obs/telemetry.hpp"
#include "mrlr/setcover/generators.hpp"

namespace mrlr {
namespace {

using mrc::MachineContext;
using mrc::MachineId;
using mrc::Word;

// ----------------------------------------------------------- executors --

TEST(SerialExecutor, RunsMachinesInAscendingOrder) {
  exec::SerialExecutor ex;
  std::vector<std::uint64_t> order;
  ex.run_machines(3, 9, [&](std::uint64_t m) { order.push_back(m); });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(ex.name(), "serial");
  EXPECT_EQ(ex.num_threads(), 1u);
}

TEST(MakeExecutor, MapsKnobToBackend) {
  EXPECT_EQ(exec::make_executor(1)->name(), "serial");
  const auto pool = exec::make_executor(4);
  EXPECT_EQ(pool->name(), "thread-pool");
  EXPECT_EQ(pool->num_threads(), 4u);
  // 0 = hardware-sized; at least one thread either way.
  EXPECT_GE(exec::make_executor(0)->num_threads(), 1u);
  // The shard knob: 0/1 = in-process, K > 1 = process-sharded.
  EXPECT_EQ(exec::make_executor(1, 1)->name(), "serial");
  EXPECT_EQ(exec::make_executor(4, 1)->name(), "thread-pool");
  EXPECT_EQ(exec::make_executor(1, 4)->name(), "process-shard");
  EXPECT_EQ(exec::make_executor(0, 2)->name(), "process-shard");
  // The knobs compose: K process shards, each running a shard-local
  // pool of T threads; num_threads() reports the per-shard pool size.
  const auto composed = exec::make_executor(4, 2);
  EXPECT_EQ(composed->name(), "process-shard");
  EXPECT_EQ(composed->num_threads(), 4u);
  EXPECT_GE(exec::make_executor(0, 4)->num_threads(), 1u);
}

TEST(ProcessShardExecutor, PlainRunIsSerialAscending) {
  // Without a job plane there is nothing to exchange, so machines run
  // serially in the coordinator (the degenerate documented mode).
  exec::ProcessShardExecutor ex(4);
  EXPECT_EQ(ex.name(), "process-shard");
  EXPECT_EQ(ex.num_shards(), 4u);
  EXPECT_EQ(ex.num_threads(), 1u);
  std::vector<std::uint64_t> order;
  ex.run_machines(3, 9, [&](std::uint64_t m) { order.push_back(m); });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{3, 4, 5, 6, 7, 8}));
}

TEST(ThreadPoolExecutor, CoversRangeExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    exec::ThreadPoolExecutor ex(threads);
    for (const std::uint64_t machines : {0ull, 1ull, 7ull, 64ull, 1000ull}) {
      std::vector<std::atomic<int>> hits(machines);
      for (auto& h : hits) h.store(0);
      ex.run_machines(0, machines, [&](std::uint64_t m) {
        hits[m].fetch_add(1);
      });
      for (std::uint64_t m = 0; m < machines; ++m) {
        EXPECT_EQ(hits[m].load(), 1) << "machine " << m << " threads "
                                     << threads;
      }
    }
  }
}

TEST(ThreadPoolExecutor, ReusableAcrossManyRounds) {
  exec::ThreadPoolExecutor ex(4);
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    ex.run_machines(0, 10, [&](std::uint64_t m) {
      total.fetch_add(m + 1);
    });
  }
  EXPECT_EQ(total.load(), 200u * 55u);
}

TEST(ThreadPoolExecutor, RethrowsLowestMachineException) {
  exec::ThreadPoolExecutor ex(4);
  for (int attempt = 0; attempt < 10; ++attempt) {
    try {
      ex.run_machines(0, 16, [&](std::uint64_t m) {
        if (m == 3 || m == 7 || m == 12) {
          throw std::runtime_error("machine " + std::to_string(m));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "machine 3");
    }
    // The pool must stay usable after a throwing batch.
    std::atomic<int> ran{0};
    ex.run_machines(0, 4, [&](std::uint64_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 4);
  }
}

TEST(RngStream, ConstAndOrderIndependent) {
  Rng a(123), b(123);
  // stream() must not advance the parent...
  (void)a.stream(7);
  (void)a.stream(9);
  EXPECT_EQ(a(), b());
  // ...and must be a pure function of (state, label).
  Rng c(123), d(123);
  (void)c();
  (void)d();
  Rng s1 = c.stream(5), s2 = d.stream(5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(s1(), s2());
  // Distinct labels give distinct streams.
  Rng s3 = c.stream(6);
  EXPECT_NE(c.stream(5)(), s3());
}

// ------------------------------------------------- engine determinism --

/// Runs machines in DESCENDING order — a legal (if perverse) schedule
/// under the Executor contract. Any engine or callback state that
/// depends on machine execution order breaks against this backend even
/// on a single-core host, where thread-pool interleaving is rare.
class ReverseExecutor final : public exec::Executor {
 public:
  void run_machines(std::uint64_t first, std::uint64_t last,
                    const MachineFn& fn) override {
    for (std::uint64_t m = last; m > first; --m) fn(m - 1);
  }
  std::string_view name() const override { return "reverse"; }
  unsigned num_threads() const override { return 1; }
};

mrc::Topology topo(std::uint64_t machines, std::uint64_t cap = 1 << 20) {
  mrc::Topology t;
  t.num_machines = machines;
  t.words_per_machine = cap;
  t.fanout = 2;
  return t;
}

/// A synthetic multi-round workload exercising sends (fan-out, self,
/// converge-cast), resident charges, inbox-dependent replies, and the
/// final delivery order — all through registered (define_round) rounds
/// so the identical string must come back from every backend including
/// the process-sharded one, where machines run in persistent forked
/// workers that never see coordinator memory after job start. Returns
/// the central machine's view of every machine's delivery order plus
/// the full trace CSV.
std::string run_synthetic(std::shared_ptr<exec::Executor> ex,
                          std::uint64_t machines) {
  mrc::Engine e(topo(machines), std::move(ex));
  const auto count = static_cast<MachineId>(machines);
  const mrc::RoundId r_scatter = e.define_round(
      "scatter", [count](MachineContext& ctx, std::span<const Word>) {
        ctx.charge_resident(ctx.id() + 1);
        for (MachineId to = 0; to < count; ++to) {
          if ((ctx.id() + to) % 3 == 0) {
            ctx.send(to, {ctx.id(), to, ctx.id() * 1000ull + to});
          }
        }
        ctx.send(ctx.id(), {ctx.id()});  // self-send
      });
  const mrc::RoundId r_echo = e.define_round(
      "echo", [](MachineContext& ctx, std::span<const Word>) {
        ctx.charge_resident(ctx.inbox_words());
        for (const mrc::MessageView msg : ctx.messages()) {
          ctx.send(mrc::kCentral, {msg.from, msg.words()});
        }
      });
  const mrc::RoundId r_fanout = e.define_round(
      "fanout", [count](MachineContext& ctx, std::span<const Word>) {
        for (MachineId to = 0; to < count; ++to) {
          ctx.send(to, {ctx.id()});
        }
      });
  const mrc::RoundId r_observe = e.define_round(
      "observe", [](MachineContext& ctx, std::span<const Word>) {
        // Ship this machine's delivery order to central; converge-cast
        // is the process-clean replacement for writing a host-side
        // slot.
        std::vector<Word> msg;
        for (const auto& view : ctx.messages()) msg.push_back(view.from);
        ctx.send(mrc::kCentral, msg);
      });

  e.invoke_round(r_scatter);
  e.invoke_round(r_echo);
  e.run_central_round("collect", [&](MachineContext& ctx) {
    ctx.charge_resident(ctx.inbox_words() + 1);
  });
  std::ostringstream os;
  e.invoke_round(r_fanout);
  e.invoke_round(r_observe);
  std::vector<std::string> delivery(machines);
  e.run_central_round("collect-observations", [&](MachineContext& ctx) {
    // Messages arrive in sender-id order: one line per machine.
    for (const mrc::MessageView msg : ctx.messages()) {
      std::string line;
      for (const mrc::Word w : msg.payload) {
        line += std::to_string(w) + ",";
      }
      delivery[msg.from] = std::move(line);  // central runs coordinator-side
    }
  });
  for (const auto& line : delivery) os << line << "\n";
  mrc::write_trace_csv(e.metrics(), os);
  return os.str();
}

TEST(EngineDeterminism, TraceAndDeliveryIdenticalAcrossBackends) {
  for (const std::uint64_t machines : {1ull, 5ull, 23ull}) {
    const std::string serial =
        run_synthetic(std::make_shared<exec::SerialExecutor>(), machines);
    for (const unsigned threads : {1u, 2u, 8u}) {
      const std::string pooled = run_synthetic(
          std::make_shared<exec::ThreadPoolExecutor>(threads), machines);
      EXPECT_EQ(serial, pooled)
          << "machines=" << machines << " threads=" << threads;
    }
    EXPECT_EQ(serial,
              run_synthetic(std::make_shared<ReverseExecutor>(), machines))
        << "machines=" << machines << " (reverse order)";
    // The process-sharded backend: identical traces and delivery with
    // the machines split across 1/2/4 persistent worker processes and
    // the staged arenas shipped back over the shard transport.
    for (const unsigned shards : {1u, 2u, 4u}) {
      const std::string sharded = run_synthetic(
          std::make_shared<exec::ProcessShardExecutor>(shards), machines);
      EXPECT_EQ(serial, sharded)
          << "machines=" << machines << " shards=" << shards;
    }
  }
}

TEST(EngineDeterminism, DeliveryOrderIsSenderIdOrder) {
  // With the threaded backend machines finish in arbitrary order, but
  // the merged inbox must still list senders 0..M-1 ascending.
  mrc::Engine e(topo(8), std::make_shared<exec::ThreadPoolExecutor>(8));
  const mrc::RoundId fanout = e.define_round(
      "fanout", [](MachineContext& ctx, std::span<const Word>) {
        ctx.send(2, {ctx.id()});
      });
  const mrc::RoundId check = e.define_round(
      "check", [](MachineContext& ctx, std::span<const Word>) {
        if (ctx.id() != 2) return;
        const mrc::InboxView inbox = ctx.messages();
        ASSERT_EQ(inbox.size(), 8u);
        for (MachineId s = 0; s < 8; ++s) {
          EXPECT_EQ(inbox[s].from, s);
          EXPECT_EQ(inbox[s].payload[0], s);
        }
      });
  e.invoke_round(fanout);
  e.invoke_round(check);
}

TEST(EngineDeterminism, SpaceLimitReportsLowestIdOffender) {
  auto run = [](std::shared_ptr<exec::Executor> ex) -> std::string {
    mrc::Engine e(topo(16, /*cap=*/10), std::move(ex));
    const mrc::RoundId r = e.define_round(
        "r", [](MachineContext& ctx, std::span<const Word>) {
          // Machines 5, 9, and 13 all blow the cap; 5 must be reported.
          if (ctx.id() % 4 == 1 && ctx.id() >= 5) {
            ctx.charge_resident(100 + ctx.id());
          }
        });
    try {
      e.invoke_round(r);
    } catch (const mrc::SpaceLimitExceeded& ex_caught) {
      EXPECT_EQ(ex_caught.words, 105u);
      EXPECT_EQ(ex_caught.cap, 10u);
      return ex_caught.what();
    }
    return "<no throw>";
  };
  const std::string serial = run(std::make_shared<exec::SerialExecutor>());
  EXPECT_NE(serial.find("machine 5"), std::string::npos);
  for (const unsigned threads : {1u, 2u, 8u}) {
    EXPECT_EQ(serial,
              run(std::make_shared<exec::ThreadPoolExecutor>(threads)));
  }
  // The space audit runs on the coordinator's merged accounting, so the
  // persistent-worker backend throws the identical message.
  for (const unsigned shards : {2u, 4u}) {
    EXPECT_EQ(serial,
              run(std::make_shared<exec::ProcessShardExecutor>(shards)))
        << "shards=" << shards;
  }
}

TEST(Engine, InboxPeekMatchesDeliveryAndIsBoundsChecked) {
  for (const unsigned shards : {1u, 2u}) {
    mrc::Engine e(topo(6),
                  std::make_shared<exec::ProcessShardExecutor>(shards));
    const mrc::RoundId r = e.define_round(
        "fanout", [](MachineContext& ctx, std::span<const Word>) {
          ctx.send(2, {ctx.id(), ctx.id()});
          if (ctx.id() == 5) ctx.send(0, {1, 2, 3});
        });
    e.invoke_round(r);
    // Control-plane peek between rounds: the merged coordinator view.
    EXPECT_EQ(e.inbox_words(2), 12u) << "shards=" << shards;
    EXPECT_EQ(e.inbox_size(2), 6u) << "shards=" << shards;
    EXPECT_EQ(e.inbox_words(0), 3u) << "shards=" << shards;
    EXPECT_EQ(e.inbox_size(0), 1u) << "shards=" << shards;
    EXPECT_EQ(e.inbox_words(1), 0u) << "shards=" << shards;
    EXPECT_THROW((void)e.inbox_words(6), std::out_of_range);
    EXPECT_THROW((void)e.inbox_size(6), std::out_of_range);
    try {
      (void)e.inbox_size(7);
      FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range& ex) {
      // The message names the accessor and the offending id.
      const std::string what = ex.what();
      EXPECT_NE(what.find("inbox_size"), std::string::npos) << what;
      EXPECT_NE(what.find("7"), std::string::npos) << what;
    }
  }
}

// ------------------------------------------- process worker failure --

TEST(ProcessShardExecutor, KilledWorkerSurfacesTypedErrorNotHang) {
  // Machine 6 lives in shard 1 (machines 4..7 of 8 at K=2), which runs
  // in a persistent forked worker; killing it mid-round must surface as
  // a typed WorkerError naming the shard and round — never a hang on
  // the merge barrier, and never a silent partial merge. The first
  // invocation succeeds so the kill hits an already-running persistent
  // worker, not the spawn path.
  mrc::Engine e(topo(8), std::make_shared<exec::ProcessShardExecutor>(2));
  const mrc::RoundId r_doomed = e.define_round(
      "doomed", [](MachineContext& ctx, std::span<const Word> ps) {
        if (ps[0] == 1 && ctx.id() == 6) {
          std::raise(SIGKILL);  // only ever runs in the worker process
        }
        ctx.send(mrc::kCentral, {ctx.id()});
      });
  e.invoke_round(r_doomed, {Word{0}});  // round 1: worker survives
  try {
    e.invoke_round(r_doomed, {Word{1}});  // round 2: worker dies mid-round
    FAIL() << "expected WorkerError";
  } catch (const exec::WorkerError& err) {
    EXPECT_EQ(err.shard, 1u);
    EXPECT_EQ(err.round, 2u);
    const std::string what = err.what();
    EXPECT_NE(what.find("shard 1"), std::string::npos) << what;
    EXPECT_NE(what.find("round 2"), std::string::npos) << what;
    EXPECT_NE(what.find("signal"), std::string::npos) << what;
  }
  // Reconnect refusal: the dead worker's resident mirrors are gone, so
  // a respawned worker could not rejoin mid-job. The engine refuses
  // every further round of the failed job, naming the round that failed,
  // instead of silently recomputing.
  try {
    e.invoke_round(r_doomed, {Word{0}});
    FAIL() << "expected std::logic_error (reconnect refusal)";
  } catch (const std::logic_error& err) {
    EXPECT_NE(std::string(err.what()).find("round 2 ('doomed')"),
              std::string::npos)
        << err.what();
  }
}

TEST(ProcessShardExecutor, StoppedWorkerFailsTypedWithinTheSilenceBound) {
  // A worker stopped after its bootstrap sends nothing, not even a
  // heartbeat: the coordinator must fail the job typed, naming the
  // shard and the round, once the worker has been silent for the
  // launcher's timeout — not wait for it forever.
  exec::ProcessBackendConfig cfg;
  cfg.connect_timeout = std::chrono::milliseconds(1500);
  exec::ScopedProcessBackendConfig guard(std::move(cfg));
  mrc::Engine e(topo(8), std::make_shared<exec::ProcessShardExecutor>(4));
  const mrc::RoundId r_stall = e.define_round(
      "stall", [](MachineContext& ctx, std::span<const Word> ps) {
        if (ps[0] == 1 && ctx.id() == 4) {
          std::raise(SIGSTOP);  // machine 4 lives in shard 2's worker
        }
        ctx.send(mrc::kCentral, {ctx.id()});
      });
  e.invoke_round(r_stall, {Word{0}});  // round 1: every worker answers
  const auto start = std::chrono::steady_clock::now();
  try {
    e.invoke_round(r_stall, {Word{1}});
    FAIL() << "expected WorkerError";
  } catch (const exec::WorkerError& err) {
    EXPECT_EQ(err.shard, 2u);
    EXPECT_EQ(err.round, 2u);
    const std::string what = err.what();
    EXPECT_NE(what.find("sent nothing for 1500 ms"), std::string::npos)
        << what;
  }
  // The bound, plus the reaper's grace before it kills the stopped
  // worker, plus slack for a loaded host.
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(8));
}

TEST(ProcessShardExecutor, LongRoundIsNotSilence) {
  // A round that runs longer than the silence bound is legal: the
  // worker's heartbeats keep it audible while its machines run. So is a
  // slow shard 0: a worker that finished long ago, its frames waiting
  // in the socket, is not silent.
  exec::ProcessBackendConfig cfg;
  cfg.connect_timeout = std::chrono::milliseconds(1000);
  exec::ScopedProcessBackendConfig guard(std::move(cfg));
  mrc::Engine e(topo(4), std::make_shared<exec::ProcessShardExecutor>(2));
  const mrc::RoundId r_slow = e.define_round(
      "slow", [](MachineContext& ctx, std::span<const Word> ps) {
        if (ctx.id() == ps[0]) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2500));
        }
        ctx.send(mrc::kCentral, {ctx.id()});
      });
  for (const Word slow : {Word{3}, Word{0}}) {  // a worker's, then shard 0's
    e.invoke_round(r_slow, {slow});
    e.run_central_round("count", [](MachineContext& ctx) {
      EXPECT_EQ(ctx.messages().size(), 4u);
    });
  }
}

/// Sockets this process holds, read from /proc/self/fd.
std::uint64_t open_sockets() {
  std::uint64_t sockets = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    const auto target = std::filesystem::read_symlink(entry.path(), ec);
    if (!ec && target.string().rfind("socket:", 0) == 0) ++sockets;
  }
  return sockets;
}

TEST(ProcessShardExecutor, WorkersHoldOnlyTheirOwnChannels) {
  // A K-shard fork job gives each worker its coordinator channel and
  // one peer socket per other worker — no descriptor of anyone else's —
  // and leaves the coordinator its K - 1 worker channels. That is what
  // makes a dead worker's peers see end of stream.
  constexpr std::uint64_t kShards = 5;
  const std::uint64_t before = open_sockets();
  mrc::Engine e(topo(10), std::make_shared<exec::ProcessShardExecutor>(
                              static_cast<unsigned>(kShards)));
  // Workers are forked from this process, so they start from its
  // sockets too.
  const mrc::RoundId r_count = e.define_round(
      "count", [before](MachineContext& ctx, std::span<const Word>) {
        if (ctx.id() % 2 == 0) {
          ctx.send(mrc::kCentral, {open_sockets() - before});
        }
      });
  e.invoke_round(r_count);
  EXPECT_EQ(open_sockets() - before, kShards - 1);
  e.run_central_round("check", [&](MachineContext& ctx) {
    const mrc::InboxView inbox = ctx.messages();
    ASSERT_EQ(inbox.size(), kShards);
    for (std::size_t i = 1; i < kShards; ++i) {
      EXPECT_EQ(inbox[i].payload[0], kShards - 1) << "shard " << i;
    }
  });
}

TEST(ProcessShardExecutor, KilledWorkerFailsTypedWhileItsPeersRunOn) {
  // Killing one worker of a mesh: its peers see end of stream on their
  // channels to it and finish the round; the coordinator fails the job
  // typed, naming the dead shard.
  mrc::Engine e(topo(8), std::make_shared<exec::ProcessShardExecutor>(4));
  const mrc::RoundId r_doomed = e.define_round(
      "doomed", [](MachineContext& ctx, std::span<const Word> ps) {
        if (ps[0] == 1 && ctx.id() == 4) std::raise(SIGKILL);
        // Every machine sends to every shard, over every peer channel.
        for (MachineId to = 0; to < ctx.num_machines(); to += 2) {
          ctx.send(to, {ctx.id()});
        }
      });
  e.invoke_round(r_doomed, {Word{0}});
  try {
    e.invoke_round(r_doomed, {Word{1}});
    FAIL() << "expected WorkerError";
  } catch (const exec::WorkerError& err) {
    EXPECT_EQ(err.shard, 2u);
    EXPECT_EQ(err.round, 2u);
    EXPECT_NE(std::string(err.what()).find("signal"), std::string::npos)
        << err.what();
  }
}

TEST(ProcessShardExecutor, SixtyFourShardsFitALowDescriptorLimit) {
  // No process of a mesh job holds more than O(K) descriptors: a K = 64
  // fork job runs, byte-identical to serial, under RLIMIT_NOFILE = 256
  // (the limit is lowered in a child of the test, so the test process
  // keeps its own).
  const auto job = [](std::shared_ptr<exec::Executor> ex) {
    mrc::Engine e(topo(128), std::move(ex));
    const mrc::RoundId r_spread = e.define_round(
        "spread", [](MachineContext& ctx, std::span<const Word> ps) {
          for (MachineId k = 1; k <= 3; ++k) {
            ctx.send((ctx.id() * 37 + k * 11 + ps[0]) % 128,
                     {ctx.id(), ps[0]});
          }
        });
    std::vector<Word> seen;
    const mrc::RoundId r_read = e.define_round(
        "read", [](MachineContext& ctx, std::span<const Word>) {
          Word sum = 0;
          for (const mrc::MessageView m : ctx.messages()) {
            sum = sum * 31 + m.from + m.payload[0];
          }
          ctx.send(mrc::kCentral, {sum});
        });
    for (Word round = 0; round < 3; ++round) {
      e.invoke_round(r_spread, {round});
      e.invoke_round(r_read);
      e.run_central_round("collect", [&](MachineContext& ctx) {
        for (const mrc::MessageView m : ctx.messages()) {
          seen.push_back(m.payload[0]);
        }
      });
    }
    return seen;
  };
  const std::vector<Word> serial = job(std::make_shared<exec::SerialExecutor>());
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    rlimit lim{256, 256};
    int code = ::setrlimit(RLIMIT_NOFILE, &lim) == 0 ? 0 : 3;
    try {
      if (code == 0 &&
          job(std::make_shared<exec::ProcessShardExecutor>(64)) != serial) {
        code = 1;
      }
    } catch (...) {
      code = 2;
    }
    ::_exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "the K = 64 job did not exit";
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1: differs from serial, 2: threw, 3: setrlimit failed";
}

TEST(ProcessShardExecutor, WorkerCallbackExceptionIsTypedWithMachineId) {
  // Only a worker-shard machine throws: the coordinator rethrows a
  // typed ShardCallbackError carrying the machine id, round, and the
  // original message, after the barrier (state stays merged).
  mrc::Engine e(topo(8), std::make_shared<exec::ProcessShardExecutor>(2));
  const mrc::RoundId r_throwing = e.define_round(
      "throwing", [](MachineContext& ctx, std::span<const Word>) {
        ctx.send(mrc::kCentral, {ctx.id()});
        if (ctx.id() >= 5) {
          throw std::runtime_error("boom on machine " +
                                   std::to_string(ctx.id()));
        }
      });
  try {
    e.invoke_round(r_throwing);
    FAIL() << "expected ShardCallbackError";
  } catch (const exec::ShardCallbackError& err) {
    EXPECT_EQ(err.machine, 5u);  // lowest-id thrower wins
    EXPECT_EQ(err.round, 1u);
    EXPECT_NE(std::string(err.what()).find("boom on machine 5"),
              std::string::npos);
  }
  // A coordinator-shard (lower-id) exception takes precedence and is
  // rethrown as the original type, exactly like SerialExecutor.
  mrc::Engine e2(topo(8), std::make_shared<exec::ProcessShardExecutor>(2));
  const mrc::RoundId r_both = e2.define_round(
      "throwing", [](MachineContext& ctx, std::span<const Word>) {
        if (ctx.id() == 2 || ctx.id() == 6) {
          throw std::runtime_error("machine " + std::to_string(ctx.id()));
        }
      });
  try {
    e2.invoke_round(r_both);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& err) {
    EXPECT_STREQ(err.what(), "machine 2");
  }
}

TEST(ProcessShardExecutor, WorkersSpawnedOncePerJob) {
  // Persistent workers fork exactly once, at job start: the telemetry
  // counter must report shards-1 spawns (the coordinator runs shard 0
  // locally) no matter how many rounds the job runs, and every
  // subsequent round ships only control frames and inbox state.
  obs::Telemetry& tel = obs::Telemetry::instance();
  tel.clear();
  tel.enable();
  {
    mrc::Engine e(topo(8), std::make_shared<exec::ProcessShardExecutor>(4));
    const mrc::RoundId r_ping = e.define_round(
        "ping", [](MachineContext& ctx, std::span<const Word>) {
          ctx.send(mrc::kCentral, {ctx.id()});
        });
    for (int round = 0; round < 5; ++round) {
      e.invoke_round(r_ping);
      e.run_central_round("drain", [](MachineContext& ctx) {
        ctx.charge_resident(ctx.inbox_words());
      });
    }
  }  // engine teardown ends the job and reaps the workers
  tel.disable();
  const obs::TelemetrySnapshot snap = tel.snapshot();
  tel.clear();
  const auto spawned = snap.counters.find("exec.workers_spawned");
  ASSERT_NE(spawned, snap.counters.end());
  EXPECT_EQ(spawned->second, 3u);  // 4 shards, shard 0 stays local
  const auto shipped = snap.counters.find("exec.state_bytes_shipped");
  ASSERT_NE(shipped, snap.counters.end());
  EXPECT_GT(shipped->second, 0u);
}

// ------------------------------------------------ shard wire layouts --

/// Thrown by GrabPlaneExecutor to unwind out of the first invoke_round.
struct PlaneGrabbed {};

/// The executor of a stand-in worker engine: like a TCP worker's, its
/// start_job takes the engine's job plane and unwinds the driver.
class GrabPlaneExecutor final : public exec::Executor {
 public:
  void run_machines(std::uint64_t first, std::uint64_t last,
                    const MachineFn& fn) override {
    for (std::uint64_t m = first; m < last; ++m) fn(m);
  }
  void start_job(std::uint64_t, exec::ShardJobPlane* p) override {
    plane = p;
    throw PlaneGrabbed{};
  }
  std::string_view name() const override { return "grab-plane"; }
  unsigned num_threads() const override { return 1; }

  exec::ShardJobPlane* plane = nullptr;
};

/// The process backend's round protocol at K = 2 in one process, driven
/// the way ProcessShardExecutor and its worker drive it: the engine
/// under test is shard 0 (machines [0, split)) and a second engine with
/// the same rounds stands in for shard 1's worker. Each round it
/// captures the bytes a kRoundControl frame carries after its round id
/// and parameters, and the bytes of the kShardData frame; the worker's
/// own bucket stays in `held`, filed under the round that sent it. Both
/// captured buffers start with a 3-byte prefix: the encoders append,
/// and the decoders must read unaligned lanes.
class LoopbackShardExecutor final : public exec::Executor {
 public:
  static constexpr std::byte kPrefix[3] = {std::byte{0xA1}, std::byte{0xA2},
                                           std::byte{0xA3}};

  LoopbackShardExecutor(exec::ShardJobPlane* worker_plane, std::uint64_t split)
      : worker(worker_plane), split_(split) {}

  void run_machines(std::uint64_t first, std::uint64_t last,
                    const MachineFn& fn) override {
    for (std::uint64_t m = first; m < last; ++m) fn(m);
  }
  void start_job(std::uint64_t machines, exec::ShardJobPlane* plane) override {
    coordinator = plane;
    machines_ = machines;
    const std::vector<std::uint64_t> bounds{0, split_, machines};
    coordinator->set_shards(bounds, 0);
    worker->set_shards(bounds, 1);
  }
  void run_job_round(std::uint64_t, std::uint64_t round_id,
                     std::span<const std::uint64_t> params, std::uint64_t,
                     const MachineFn& fn, exec::ShardJobPlane*) override {
    std::vector<std::byte> in(std::begin(kPrefix), std::end(kPrefix));
    std::vector<std::span<const std::byte>> stream;
    coordinator->serialize_round_input(1, in, stream);
    for (const std::span<const std::byte> part : stream) {
      in.insert(in.end(), part.begin(), part.end());
    }
    const std::span<const std::byte> input =
        std::span<const std::byte>(in).subspan(3);
    ++generation_;
    named.push_back(worker->peer_generation(input));
    worker->apply_round_input(input, bucket());
    // Installed, every bucket older than this round is dead.
    std::erase_if(held, [&](const auto& kv) {
      return kv.first.first < generation_;
    });
    round_inputs.push_back(std::move(in));
    for (std::uint64_t m = 0; m < split_; ++m) fn(m);
    coordinator->route_local_sends();
    for (std::uint64_t m = split_; m < machines_; ++m) {
      worker->run_registered(round_id, m, params);
    }
    std::vector<std::vector<std::byte>> parts;
    worker->serialize_machines(parts);
    std::vector<std::byte> out(std::begin(kPrefix), std::end(kPrefix));
    out.insert(out.end(), parts[0].begin(), parts[0].end());
    coordinator->apply_machines(1, std::span<const std::byte>(out).subspan(3));
    held[{generation_, 1}] = parts[1];
    shard_data.push_back(std::move(out));
  }
  std::string_view name() const override { return "loopback-shards"; }
  unsigned num_threads() const override { return 1; }

  /// The worker's view of the buckets it holds.
  exec::PeerBucketFn bucket() {
    return [this](std::uint32_t sender, std::uint64_t generation) {
      const auto it = held.find({generation, sender});
      if (it == held.end()) {
        throw exec::TransportError(exec::TransportError::Kind::kBadPayload,
                                   "loopback: no bucket held for round " +
                                       std::to_string(generation));
      }
      return std::span<const std::byte>(it->second);
    };
  }

  exec::ShardJobPlane* coordinator = nullptr;
  exec::ShardJobPlane* worker;
  std::vector<std::vector<std::byte>> round_inputs;
  /// The peer generation each round input named.
  std::vector<std::uint64_t> named;
  std::vector<std::vector<std::byte>> shard_data;
  /// Buckets by (generation, sender shard).
  std::map<std::pair<std::uint64_t, std::uint32_t>, std::vector<std::byte>>
      held;

 private:
  std::uint64_t split_;
  std::uint64_t machines_ = 0;
  std::uint64_t generation_ = 0;  // job rounds run so far
};

/// Known-answer payload builder: u64 lanes and (from, to, len) records
/// in wire byte order, optionally after LoopbackShardExecutor::kPrefix.
struct Wire {
  explicit Wire(bool prefixed = true) {
    if (prefixed) {
      bytes.assign(std::begin(LoopbackShardExecutor::kPrefix),
                   std::end(LoopbackShardExecutor::kPrefix));
    }
  }
  Wire& lanes(std::initializer_list<std::uint64_t> values) {
    for (const std::uint64_t v : values) exec::wire::append_u64(bytes, v);
    return *this;
  }
  Wire& record(std::uint32_t from, std::uint32_t to,
               std::initializer_list<std::uint64_t> payload) {
    return header(from, to, static_cast<std::uint32_t>(payload.size()))
        .lanes(payload);
  }
  Wire& header(std::uint32_t from, std::uint32_t to, std::uint32_t len) {
    for (const std::uint32_t v : {from, to, len}) {
      const std::size_t at = bytes.size();
      bytes.resize(at + 4);
      std::memcpy(bytes.data() + at, &v, 4);
    }
    return *this;
  }
  std::vector<std::byte> bytes;
};

/// What every machine read in the "read" round: (sender, payload) per
/// message, in delivery order.
using Inbox = std::vector<std::pair<MachineId, std::vector<Word>>>;
using Inboxes = std::vector<Inbox>;

/// Hand-built 3-machine job. "seed": machine 0 sends {11, 12} to 1 and
/// an empty message to 2; machine 1 sends {21, 22, 23} to 0 and {31}
/// to 2; machine 2 sends {41, 42} to 0 and
/// {43} to itself and declares 5 resident words. "read": every machine
/// records its inbox into `seen`.
void define_known_rounds(mrc::Engine& e, Inboxes& seen) {
  e.define_round("seed", [](MachineContext& ctx, std::span<const Word>) {
    if (ctx.id() == 0) {
      ctx.send(1, {11, 12});
      ctx.send(2, std::vector<Word>{});
    } else if (ctx.id() == 1) {
      ctx.send(0, {21, 22, 23});
      ctx.send(2, {31});
    } else {
      ctx.send(0, {41, 42});
      ctx.send(2, {43});
      ctx.charge_resident(5);
    }
  });
  e.define_round("read", [&seen](MachineContext& ctx, std::span<const Word>) {
    for (const mrc::MessageView msg : ctx.messages()) {
      seen[ctx.id()].emplace_back(
          msg.from, std::vector<Word>(msg.payload.begin(), msg.payload.end()));
    }
  });
}

/// The K = 2 loopback pair over `define_known_rounds`, shard 0 =
/// machines [0, 2), shard 1 = {2}.
struct LoopbackJob {
  LoopbackJob() : seen(3) {
    auto grab = std::make_shared<GrabPlaneExecutor>();
    worker_engine = std::make_unique<mrc::Engine>(topo(3), grab);
    define_known_rounds(*worker_engine, seen);
    try {
      worker_engine->invoke_round(0);
    } catch (const PlaneGrabbed&) {
    }
    loop = std::make_shared<LoopbackShardExecutor>(grab->plane, 2);
    engine = std::make_unique<mrc::Engine>(topo(3), loop);
    define_known_rounds(*engine, seen);
  }

  Inboxes seen;
  std::unique_ptr<mrc::Engine> worker_engine;
  std::shared_ptr<LoopbackShardExecutor> loop;
  std::unique_ptr<mrc::Engine> engine;
};

TEST(ShardWireLayout, RecordPayloadsMatchKnownBytes) {
  LoopbackJob job;
  job.engine->invoke_round(0);  // seed
  // Host peeks at worker machines come from the shipped totals.
  EXPECT_EQ(job.engine->inbox_size(2), 3u);
  EXPECT_EQ(job.engine->inbox_words(2), 2u);
  EXPECT_EQ(job.engine->inbox_size(0), 2u);
  EXPECT_EQ(job.engine->inbox_words(0), 5u);
  job.engine->invoke_round(1);  // read
  const LoopbackShardExecutor& cap = *job.loop;
  ASSERT_EQ(cap.round_inputs.size(), 2u);
  ASSERT_EQ(cap.shard_data.size(), 2u);

  // kShardData after "seed": machine 2's outbox words and resident
  // words; (frames, words) it sent each of machines 0..2;
  // the bucket count and byte lengths; then shard 0's bucket. Shard 1's
  // bucket stays with the worker.
  EXPECT_EQ(cap.shard_data[0], Wire()
                                   .lanes({3, 5})
                                   .lanes({1, 2, 0, 0, 1, 1})
                                   .lanes({2, 12 + 16, 12 + 8})
                                   .record(2, 0, {41, 42})
                                   .bytes);

  // kRoundControl for shard 1 before "read": the buckets of round 1
  // follow the coordinator's records; machine 2's frame count and word
  // total; then shard 0's own sends. Shard 1's bucket of round 1
  // completes the inbox in sender-id order.
  EXPECT_EQ(cap.round_inputs[1], Wire()
                                     .lanes({1})
                                     .lanes({3, 2})
                                     .record(0, 2, {})
                                     .record(1, 2, {31})
                                     .bytes);
  EXPECT_EQ(cap.named, (std::vector<std::uint64_t>{0, 1}));
  // Round 1's buckets were dropped once the "read" input was installed;
  // "read" sent nothing.
  ASSERT_EQ(cap.held.size(), 1u);
  EXPECT_TRUE(cap.held.at({2, 1}).empty());

  // Before the first round every inbox is empty; after "read" nothing
  // was sent.
  EXPECT_EQ(cap.round_inputs[0], Wire().lanes({0, 0, 0}).bytes);
  EXPECT_EQ(cap.shard_data[1],
            Wire().lanes({0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0}).bytes);

  // Every machine read what the serial engine delivers.
  Inboxes serial(3);
  mrc::Engine ref(topo(3));
  define_known_rounds(ref, serial);
  ref.invoke_round(0);
  ref.invoke_round(1);
  EXPECT_EQ(job.seen, serial);
  EXPECT_EQ(serial[0], (Inbox{{1, {21, 22, 23}}, {2, {41, 42}}}));
  EXPECT_EQ(serial[2], (Inbox{{0, {}}, {1, {31}}, {2, {43}}}));
}

/// Runs `apply` and expects TransportError(kBadPayload) naming `needle`.
void expect_bad_payload(const std::function<void()>& apply,
                        const std::string& needle) {
  try {
    apply();
    ADD_FAILURE() << "accepted a payload that should fail on " << needle;
  } catch (const exec::TransportError& e) {
    EXPECT_EQ(e.kind, exec::TransportError::Kind::kBadPayload) << e.what();
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(ShardWireLayout, WorkerRefusesMalformedRoundInput) {
  const auto apply = [](const Wire& w) {
    return [bytes = w.bytes] {
      LoopbackJob job;
      job.engine->invoke_round(0);
      job.loop->worker->apply_round_input(bytes, job.loop->bucket());
    };
  };
  // The buckets of round `generation` follow the coordinator's records;
  // then machine 2's totals.
  const auto head = [](std::uint64_t generation,
                       std::initializer_list<std::uint64_t> totals) {
    Wire w(false);
    w.lanes({generation}).lanes(totals);
    return w;
  };
  // Shard 1 owns machine 2 only; the coordinator's records come from
  // shard 0's machines [0, 2).
  expect_bad_payload(apply(head(0, {1, 1}).record(0, 1, {7})),
                     "record destination 1 outside [2, 3)");
  expect_bad_payload(apply(head(0, {1, 1}).record(2, 2, {7})),
                     "record sender 2 outside [0, 2)");
  expect_bad_payload(apply(head(0, {1, 5}).header(0, 2, 5).lanes({7})),
                     "record length 5 runs past the payload");
  expect_bad_payload(apply(head(0, {1, 1}).lanes({7})),
                     "truncated record header");
  // Totals that disagree with the records, in frames and in words.
  expect_bad_payload(apply(head(0, {2, 1}).record(0, 2, {7})),
                     "its totals say 2 of 1");
  expect_bad_payload(apply(head(0, {1, 2}).record(0, 2, {7})),
                     "its totals say 1 of 2");
  expect_bad_payload(apply(head(0, {1})), "inbox word total");
  expect_bad_payload(apply(Wire(false)), "peer generation");
  // Buckets of a round the worker does not hold (round 1's is held:
  // machine 2's record {43} to itself).
  expect_bad_payload(apply(head(5, {0, 0})), "no bucket held for round 5");
  EXPECT_NO_THROW(apply(head(1, {1, 1}))());
  expect_bad_payload(apply(head(1, {0, 0})), "its totals say 0 of 0");
}

TEST(ShardWireLayout, CoordinatorRefusesMalformedShardData) {
  const auto apply = [](const Wire& w) {
    return [bytes = w.bytes] {
      LoopbackJob job;
      job.engine->invoke_round(0);
      job.loop->coordinator->apply_machines(1, bytes);
    };
  };
  // The well-formed reply of a machine 2 that sends {41, 42} to 0:
  // accounting, totals, buckets.
  const auto reply = [](std::initializer_list<std::uint64_t> totals,
                        std::initializer_list<std::uint64_t> buckets) {
    Wire w(false);
    w.lanes({2, 0}).lanes(totals).lanes(buckets);
    return w;
  };
  EXPECT_NO_THROW(apply(reply({1, 2, 0, 0, 0, 0}, {2, 28, 0})
                            .record(2, 0, {41, 42}))());
  expect_bad_payload(apply(reply({1, 2, 0, 0, 0, 0}, {3, 28, 0, 0})
                               .record(2, 0, {41, 42})),
                     "3 buckets for a 2-shard job");
  expect_bad_payload(apply(reply({1, 2, 0, 0, 0, 0}, {2, 28, 8})
                               .record(2, 0, {41, 42})),
                     "totals of shard 1's machines encode to 0 bytes, its "
                     "bucket holds 8");
  expect_bad_payload(apply(reply({1, 2, 0, 0, 0, 0}, {2, 20, 0})
                               .record(2, 0, {41, 42})),
                     "shard 0's bucket length is 20 bytes, the frame "
                     "carries 28");
  expect_bad_payload(apply(reply({1, 2, 0, 0, 0, 0}, {2, 28, 1ull << 41})
                               .record(2, 0, {41, 42})),
                     "exceeds the frame payload cap");
  expect_bad_payload(apply(Wire(false)
                               .lanes({4, 0})
                               .lanes({1, 2, 0, 0, 0, 0})
                               .lanes({2, 28, 0})
                               .record(2, 0, {41, 42})),
                     "outbox words exceed the buckets");
  // Lying totals: too small or too large for the bucket, encoding to
  // the right length but naming the wrong machine, or carrying other
  // words than the senders' outbox words.
  expect_bad_payload(apply(reply({1, 1, 0, 0, 0, 0}, {2, 28, 0})
                               .record(2, 0, {41, 42})),
                     "encode to 20 bytes, its bucket holds 28");
  expect_bad_payload(apply(reply({2, 2, 0, 0, 0, 0}, {2, 28, 0})
                               .record(2, 0, {41, 42})),
                     "exceed its bucket");
  expect_bad_payload(apply(reply({0, 2, 1, 0, 0, 0}, {2, 28, 0})
                               .record(2, 0, {41, 42})),
                     "carries more than the totals of machine 0");
  expect_bad_payload(apply(Wire(false)
                               .lanes({3, 0})
                               .lanes({1, 2, 0, 0, 0, 0})
                               .lanes({2, 28, 0})
                               .record(2, 0, {41, 42})),
                     "the senders' outbox words say 3");
  // Records the coordinator decodes are checked like the worker's.
  expect_bad_payload(apply(reply({1, 2, 0, 0, 0, 0}, {2, 28, 0})
                               .record(1, 0, {41, 42})),
                     "record sender 1 outside [2, 3)");
  expect_bad_payload(apply(reply({1, 2, 0, 0, 0, 0}, {2, 28, 0})
                               .record(2, 2, {41, 42})),
                     "record destination 2 outside [0, 2)");
  expect_bad_payload(apply(reply({0, 0, 0, 0, 1, 2}, {2, 28, 0})
                               .record(2, 2, {41, 42})),
                     "machine 2 exceed its bucket");
}

TEST(ShardWireLayout, RelayedBucketIsCheckedByItsReceiver) {
  // Worker-to-worker buckets never pass through the coordinator, only
  // their totals do. A bucket that went bad on its way — here the held
  // bucket of round 1 loses its record header — fails typed at its
  // receiver when the next round input names it.
  LoopbackJob job;
  job.engine->invoke_round(0);
  ASSERT_EQ(job.loop->held.at({1, 1}), Wire(false).record(2, 2, {43}).bytes);
  job.loop->held.at({1, 1}) = Wire(false).lanes({43}).bytes;
  expect_bad_payload([&] { job.engine->invoke_round(1); },
                     "truncated record header");
}

// ---------------------------------------------- algorithm determinism --

/// Everything rlr_matching reports, flattened for equality checks.
struct MatchingFingerprint {
  std::vector<graph::EdgeId> matching;
  double weight;
  std::uint64_t stack_size;
  std::uint64_t rounds, iterations, max_words, central, comm, violations;
  bool failed;

  bool operator==(const MatchingFingerprint&) const = default;
};

MatchingFingerprint run_matching(std::uint64_t seed,
                                 std::uint64_t num_threads,
                                 std::uint64_t num_shards = 1) {
  Rng rng(seed ^ 0xABCDEFull);
  graph::Graph g = graph::gnm_density(300, 0.5, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
  core::MrParams params;
  params.mu = 0.15;
  params.seed = seed;
  params.num_threads = num_threads;
  params.num_shards = num_shards;
  const auto r = core::rlr_matching(g, params);
  return {r.matching,
          r.weight,
          r.stack_size,
          r.outcome.rounds,
          r.outcome.iterations,
          r.outcome.max_machine_words,
          r.outcome.max_central_inbox,
          r.outcome.total_communication,
          r.outcome.space_violations,
          r.outcome.failed};
}

TEST(AlgorithmDeterminism, RlrMatchingIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const auto serial = run_matching(seed, 1);
    EXPECT_FALSE(serial.failed);
    for (const std::uint64_t threads : {2ull, 8ull}) {
      EXPECT_EQ(serial, run_matching(seed, threads))
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(AlgorithmDeterminism, RlrMatchingIdenticalAcrossShardCounts) {
  // The full algorithm on the process-sharded backend: machines run in
  // persistent worker processes and every result field — matching,
  // weight, rounds, space, communication — must equal the serial run
  // exactly.
  for (const std::uint64_t seed : {1ull, 7ull}) {
    const auto serial = run_matching(seed, 1);
    EXPECT_FALSE(serial.failed);
    for (const std::uint64_t shards : {1ull, 2ull, 4ull}) {
      EXPECT_EQ(serial, run_matching(seed, 1, shards))
          << "seed=" << seed << " shards=" << shards;
    }
  }
}

TEST(AlgorithmDeterminism, RlrMatchingIdenticalAcrossShardThreadMatrix) {
  // --threads x --shards composed: K persistent worker shards, each
  // running its machine range on a shard-local pool of T threads. The
  // (K, T) points cover both skews (more shards than threads and vice
  // versa); every fingerprint field must equal the serial run.
  for (const std::uint64_t seed : {1ull, 7ull}) {
    const auto serial = run_matching(seed, 1);
    EXPECT_FALSE(serial.failed);
    for (const auto& [shards, threads] :
         {std::pair{2ull, 2ull}, {4ull, 4ull}, {2ull, 8ull}}) {
      EXPECT_EQ(serial, run_matching(seed, threads, shards))
          << "seed=" << seed << " shards=" << shards
          << " threads=" << threads;
    }
  }
}

struct CoverFingerprint {
  std::vector<setcover::SetId> cover;
  double weight;
  std::uint64_t preprocessed, failures, drops;
  std::uint64_t rounds, iterations, max_words, central, comm;
  bool failed;

  bool operator==(const CoverFingerprint&) const = default;
};

CoverFingerprint run_greedy_cover(std::uint64_t seed,
                                  std::uint64_t num_threads) {
  Rng rng(seed ^ 0x5EEDull);
  const setcover::SetSystem sys = setcover::many_sets(
      400, 52, 12, graph::WeightDist::kUniform, rng);
  core::MrParams params;
  params.mu = 0.3;
  params.seed = seed;
  params.num_threads = num_threads;
  const auto r = core::greedy_set_cover_mr(sys, /*eps=*/0.3, params);
  return {r.cover,
          r.weight,
          r.preprocessed_sets,
          r.sampling_failures,
          r.level_drops,
          r.outcome.rounds,
          r.outcome.iterations,
          r.outcome.max_machine_words,
          r.outcome.max_central_inbox,
          r.outcome.total_communication,
          r.outcome.failed};
}

TEST(AlgorithmDeterminism, GreedySetCoverIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : {1ull, 5ull}) {
    const auto serial = run_greedy_cover(seed, 1);
    EXPECT_FALSE(serial.failed);
    for (const std::uint64_t threads : {2ull, 8ull}) {
      EXPECT_EQ(serial, run_greedy_cover(seed, threads))
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

// Byte-identity of every ported driver's full result across the serial
// and process-sharded backends. num_shards=1 maps to the serial
// executor (MakeExecutor.MapsKnobToBackend proves it), so the K=1
// process run is definitionally the baseline; K=2 and K=4 split the
// machines across persistent forked workers and must reproduce the
// identical fingerprint — result vectors, exact weights (hexfloat, so
// every bit of the double counts), and all engine metrics.

std::string outcome_fp(const core::MrOutcome& o) {
  std::ostringstream os;
  os << "failed=" << o.failed << " iter=" << o.iterations
     << " rounds=" << o.rounds << " words=" << o.max_machine_words
     << " central=" << o.max_central_inbox
     << " comm=" << o.total_communication
     << " viol=" << o.space_violations;
  return os.str();
}

template <typename T>
void vec_fp(std::ostringstream& os, const std::vector<T>& v) {
  os << " [" << v.size() << ":";
  for (const T& x : v) os << x << ",";
  os << "]";
}

void weight_fp(std::ostringstream& os, double w) {
  os << " w=" << std::hexfloat << w << std::defaultfloat;
}

graph::Graph test_graph(std::uint64_t n) {
  Rng rng(0xC0FFEEull);
  graph::Graph g = graph::gnm_density(n, 0.5, rng);
  return g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
}

core::MrParams shard_params(std::uint64_t shards, double mu = 0.15) {
  core::MrParams p;
  p.mu = mu;
  p.seed = 7;
  p.num_threads = 1;
  p.num_shards = shards;
  return p;
}

using DriverFn = std::function<std::string(std::uint64_t shards)>;

void expect_shard_identical(
    const std::vector<std::pair<std::string, DriverFn>>& drivers) {
  for (const auto& [name, run] : drivers) {
    const std::string serial = run(1);
    for (const std::uint64_t shards : {2ull, 4ull}) {
      EXPECT_EQ(serial, run(shards)) << name << " shards=" << shards;
    }
  }
}

TEST(AlgorithmDeterminism, CoreDriversByteIdenticalAcrossShardCounts) {
  const graph::Graph g = test_graph(150);
  const std::vector<std::pair<std::string, DriverFn>> drivers = {
      {"rlr_set_cover",
       [](std::uint64_t shards) {
         Rng rng(0x5E7C07ull);
         const setcover::SetSystem sys = setcover::many_sets(
             220, 40, 10, graph::WeightDist::kUniform, rng);
         const auto r =
             core::rlr_set_cover(sys, shard_params(shards, 0.3));
         std::ostringstream os;
         vec_fp(os, r.cover);
         weight_fp(os, r.weight);
         weight_fp(os, r.lower_bound);
         os << " " << outcome_fp(r.outcome);
         return os.str();
       }},
      {"rlr_vertex_cover",
       [&g](std::uint64_t shards) {
         Rng wr(99);
         std::vector<double> w(g.num_vertices());
         for (double& x : w) {
           x = 1.0 + static_cast<double>(wr() % 1000) / 250.0;
         }
         const auto r = core::rlr_vertex_cover(g, w, shard_params(shards));
         std::ostringstream os;
         vec_fp(os, r.cover);
         weight_fp(os, r.weight);
         weight_fp(os, r.lower_bound);
         os << " " << outcome_fp(r.outcome);
         return os.str();
       }},
      {"rlr_b_matching",
       [&g](std::uint64_t shards) {
         std::vector<std::uint32_t> b(g.num_vertices());
         for (std::size_t v = 0; v < b.size(); ++v) {
           b[v] = 1 + static_cast<std::uint32_t>(v % 3);
         }
         const auto r =
             core::rlr_b_matching(g, b, /*eps=*/0.25, shard_params(shards));
         std::ostringstream os;
         vec_fp(os, r.matching);
         weight_fp(os, r.weight);
         os << " stack=" << r.stack_size << " " << outcome_fp(r.outcome);
         return os.str();
       }},
      {"greedy_set_cover_mr",
       [](std::uint64_t shards) {
         Rng rng(1ull ^ 0x5EEDull);
         const setcover::SetSystem sys = setcover::many_sets(
             400, 52, 12, graph::WeightDist::kUniform, rng);
         const auto r = core::greedy_set_cover_mr(
             sys, /*eps=*/0.3, shard_params(shards, 0.3));
         std::ostringstream os;
         vec_fp(os, r.cover);
         weight_fp(os, r.weight);
         os << " pre=" << r.preprocessed_sets
            << " fail=" << r.sampling_failures
            << " drops=" << r.level_drops << " " << outcome_fp(r.outcome);
         return os.str();
       }},
      {"hungry_mis_simple",
       [&g](std::uint64_t shards) {
         const auto r = core::hungry_mis_simple(g, shard_params(shards));
         std::ostringstream os;
         vec_fp(os, r.independent_set);
         os << " phases=" << r.phases << " adds=" << r.central_adds << " "
            << outcome_fp(r.outcome);
         return os.str();
       }},
      {"hungry_mis_improved",
       [&g](std::uint64_t shards) {
         const auto r = core::hungry_mis_improved(g, shard_params(shards));
         std::ostringstream os;
         vec_fp(os, r.independent_set);
         os << " phases=" << r.phases << " adds=" << r.central_adds << " "
            << outcome_fp(r.outcome);
         return os.str();
       }},
      {"hungry_clique",
       [&g](std::uint64_t shards) {
         const auto r = core::hungry_clique(g, shard_params(shards));
         std::ostringstream os;
         vec_fp(os, r.clique);
         os << " adds=" << r.central_adds << " " << outcome_fp(r.outcome);
         return os.str();
       }},
      {"mr_vertex_colouring",
       [&g](std::uint64_t shards) {
         const auto r = core::mr_vertex_colouring(g, shard_params(shards));
         std::ostringstream os;
         vec_fp(os, r.colour);
         os << " used=" << r.colours_used << " groups=" << r.groups << " "
            << outcome_fp(r.outcome);
         return os.str();
       }},
      {"mr_edge_colouring",
       [&g](std::uint64_t shards) {
         const auto r = core::mr_edge_colouring(g, shard_params(shards));
         std::ostringstream os;
         vec_fp(os, r.colour);
         os << " used=" << r.colours_used << " groups=" << r.groups << " "
            << outcome_fp(r.outcome);
         return os.str();
       }},
  };
  expect_shard_identical(drivers);
}

TEST(AlgorithmDeterminism, BaselineDriversByteIdenticalAcrossShardCounts) {
  const graph::Graph g = test_graph(150);
  const std::vector<std::pair<std::string, DriverFn>> drivers = {
      {"luby_mis_mr",
       [&g](std::uint64_t shards) {
         const auto r = baselines::luby_mis_mr(g, shard_params(shards));
         std::ostringstream os;
         vec_fp(os, r.independent_set);
         os << " phases=" << r.phases << " " << outcome_fp(r.outcome);
         return os.str();
       }},
      {"luby_colouring_mr",
       [&g](std::uint64_t shards) {
         const auto r =
             baselines::luby_colouring_mr(g, shard_params(shards));
         std::ostringstream os;
         vec_fp(os, r.colour);
         os << " used=" << r.colours_used << " phases=" << r.phases << " "
            << outcome_fp(r.outcome);
         return os.str();
       }},
      {"sample_prune_set_cover",
       [](std::uint64_t shards) {
         Rng rng(0xFEEDull);
         const setcover::SetSystem sys = setcover::many_sets(
             220, 40, 10, graph::WeightDist::kUniform, rng);
         const auto r = baselines::sample_prune_set_cover(
             sys, /*eps=*/0.3, shard_params(shards, 0.3));
         std::ostringstream os;
         vec_fp(os, r.cover);
         weight_fp(os, r.weight);
         os << " drops=" << r.level_drops << " " << outcome_fp(r.outcome);
         return os.str();
       }},
      {"coreset_matching",
       [&g](std::uint64_t shards) {
         const auto r = baselines::coreset_matching(g, shard_params(shards));
         std::ostringstream os;
         vec_fp(os, r.matching);
         weight_fp(os, r.weight);
         os << " union=" << r.coreset_union_size << " "
            << outcome_fp(r.outcome);
         return os.str();
       }},
      {"filtering_matching",
       [&g](std::uint64_t shards) {
         const auto r =
             baselines::filtering_matching(g, shard_params(shards));
         std::ostringstream os;
         vec_fp(os, r.matching);
         weight_fp(os, r.weight);
         os << " " << outcome_fp(r.outcome);
         return os.str();
       }},
      {"filtering_weighted_matching",
       [&g](std::uint64_t shards) {
         const auto r =
             baselines::filtering_weighted_matching(g, shard_params(shards));
         std::ostringstream os;
         vec_fp(os, r.matching);
         weight_fp(os, r.weight);
         os << " " << outcome_fp(r.outcome);
         return os.str();
       }},
  };
  expect_shard_identical(drivers);
}

TEST(AlgorithmDeterminism, RepresentativeDriversByteIdenticalAcrossKtMatrix) {
  // The (K, T) matrix sweep on representative drivers spanning the
  // engine's behaviours: set sampling (rlr_set_cover), per-vertex
  // weights (rlr_vertex_cover), central greedy selection
  // (greedy_set_cover_mr), phase-structured MIS (hungry_mis_improved),
  // and edge colouring's grouped rounds (mr_edge_colouring). Each runs
  // serially and then at {K=2,T=2}, {K=4,T=4}, {K=2,T=8}; the full
  // result fingerprint must be byte-identical.
  const graph::Graph g = test_graph(150);
  const auto kt_params = [](std::uint64_t shards, std::uint64_t threads,
                            double mu = 0.15) {
    core::MrParams p;
    p.mu = mu;
    p.seed = 7;
    p.num_threads = threads;
    p.num_shards = shards;
    return p;
  };
  using KtDriverFn =
      std::function<std::string(std::uint64_t, std::uint64_t)>;
  const std::vector<std::pair<std::string, KtDriverFn>> drivers = {
      {"rlr_set_cover",
       [&](std::uint64_t shards, std::uint64_t threads) {
         Rng rng(0x5E7C07ull);
         const setcover::SetSystem sys = setcover::many_sets(
             220, 40, 10, graph::WeightDist::kUniform, rng);
         const auto r =
             core::rlr_set_cover(sys, kt_params(shards, threads, 0.3));
         std::ostringstream os;
         vec_fp(os, r.cover);
         weight_fp(os, r.weight);
         weight_fp(os, r.lower_bound);
         os << " " << outcome_fp(r.outcome);
         return os.str();
       }},
      {"rlr_vertex_cover",
       [&](std::uint64_t shards, std::uint64_t threads) {
         Rng wr(99);
         std::vector<double> w(g.num_vertices());
         for (double& x : w) {
           x = 1.0 + static_cast<double>(wr() % 1000) / 250.0;
         }
         const auto r =
             core::rlr_vertex_cover(g, w, kt_params(shards, threads));
         std::ostringstream os;
         vec_fp(os, r.cover);
         weight_fp(os, r.weight);
         weight_fp(os, r.lower_bound);
         os << " " << outcome_fp(r.outcome);
         return os.str();
       }},
      {"greedy_set_cover_mr",
       [&](std::uint64_t shards, std::uint64_t threads) {
         Rng rng(1ull ^ 0x5EEDull);
         const setcover::SetSystem sys = setcover::many_sets(
             400, 52, 12, graph::WeightDist::kUniform, rng);
         const auto r = core::greedy_set_cover_mr(
             sys, /*eps=*/0.3, kt_params(shards, threads, 0.3));
         std::ostringstream os;
         vec_fp(os, r.cover);
         weight_fp(os, r.weight);
         os << " pre=" << r.preprocessed_sets
            << " fail=" << r.sampling_failures
            << " drops=" << r.level_drops << " " << outcome_fp(r.outcome);
         return os.str();
       }},
      {"hungry_mis_improved",
       [&](std::uint64_t shards, std::uint64_t threads) {
         const auto r =
             core::hungry_mis_improved(g, kt_params(shards, threads));
         std::ostringstream os;
         vec_fp(os, r.independent_set);
         os << " phases=" << r.phases << " adds=" << r.central_adds << " "
            << outcome_fp(r.outcome);
         return os.str();
       }},
      {"mr_edge_colouring",
       [&](std::uint64_t shards, std::uint64_t threads) {
         const auto r =
             core::mr_edge_colouring(g, kt_params(shards, threads));
         std::ostringstream os;
         vec_fp(os, r.colour);
         os << " used=" << r.colours_used << " groups=" << r.groups << " "
            << outcome_fp(r.outcome);
         return os.str();
       }},
  };
  for (const auto& [name, run] : drivers) {
    const std::string serial = run(1, 1);
    for (const auto& [shards, threads] :
         {std::pair{2ull, 2ull}, {4ull, 4ull}, {2ull, 8ull}}) {
      EXPECT_EQ(serial, run(shards, threads))
          << name << " shards=" << shards << " threads=" << threads;
    }
  }
}

TEST(AlgorithmDeterminism, SpaceLimitStressIdenticalAcrossThreadCounts) {
  // Tiny word caps: the engine must throw SpaceLimitExceeded with the
  // same message (same round, same lowest-id offender, same words) at
  // every thread count.
  auto run = [](std::uint64_t seed, std::uint64_t threads,
                std::uint64_t shards = 1) -> std::string {
    Rng rng(seed ^ 0xFACEull);
    graph::Graph g = graph::gnm_density(200, 0.5, rng);
    g = g.with_weights(
        graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
    core::MrParams params;
    params.mu = 0.15;
    params.seed = seed;
    params.num_threads = threads;
    params.num_shards = shards;
    params.slack = 0.2;  // far below the 16.0 the algorithm needs
    try {
      const auto r = core::rlr_matching(g, params);
      return "completed failed=" + std::to_string(r.outcome.failed);
    } catch (const mrc::SpaceLimitExceeded& e) {
      return std::string("threw: ") + e.what();
    }
  };
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const std::string serial = run(seed, 1);
    EXPECT_NE(serial.find("threw"), std::string::npos) << serial;
    for (const std::uint64_t threads : {2ull, 8ull}) {
      EXPECT_EQ(serial, run(seed, threads))
          << "seed=" << seed << " threads=" << threads;
    }
    // The space audit runs in the coordinator on merged accounting, so
    // the process backend must throw the identical message too.
    EXPECT_EQ(serial, run(seed, 1, 2)) << "seed=" << seed << " shards=2";
    // Composed K x T under overflow pressure: shard-local pools racing
    // toward tiny word caps (this suite runs under TSan in CI) must
    // still produce the identical typed failure.
    EXPECT_EQ(serial, run(seed, 4, 2))
        << "seed=" << seed << " shards=2 threads=4";
  }
}

}  // namespace
}  // namespace mrlr
