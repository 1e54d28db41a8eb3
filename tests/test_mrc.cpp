// Tests for the MapReduce round engine: message delivery, cost
// accounting, space auditing, the broadcast tree helpers, and the
// registered tree broadcast (JobBroadcast).

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <span>
#include <sstream>

#include "mrlr/exec/process_shard_executor.hpp"
#include "mrlr/exec/serial_executor.hpp"
#include "mrlr/mrc/broadcast.hpp"
#include "mrlr/mrc/engine.hpp"
#include "mrlr/mrc/trace.hpp"

namespace mrlr::mrc {
namespace {

using Params = std::span<const Word>;

Topology small_topo(std::uint64_t machines, std::uint64_t cap = 1 << 20,
                    std::uint64_t fanout = 2, bool enforce = true) {
  Topology t;
  t.num_machines = machines;
  t.words_per_machine = cap;
  t.fanout = fanout;
  t.enforce = enforce;
  return t;
}

/// A registered round in which no machine does anything.
RoundId define_idle(Engine& e, std::string label) {
  return e.define_round(std::move(label), [](MachineContext&, Params) {});
}

// ------------------------------------------------------------- engine --

TEST(Engine, DeliversMessagesNextRound) {
  Engine e(small_topo(4));
  std::vector<Word> got;
  MachineId from = 99;
  const RoundId send = e.define_round("send", [](MachineContext& ctx, Params) {
    if (ctx.id() == 1) ctx.send(3, {7, 8, 9});
  });
  const RoundId recv = e.define_round("recv", [&](MachineContext& ctx, Params) {
    if (ctx.id() == 3) {
      ASSERT_EQ(ctx.messages().size(), 1u);
      const MessageView m = ctx.messages()[0];
      got.assign(m.payload.begin(), m.payload.end());
      from = m.from;
    } else {
      EXPECT_TRUE(ctx.messages().empty());
    }
  });
  e.invoke_round(send);
  e.invoke_round(recv);
  EXPECT_EQ(got, (std::vector<Word>{7, 8, 9}));
  EXPECT_EQ(from, 1u);
}

TEST(Engine, MessagesDoNotPersistBeyondOneRound) {
  Engine e(small_topo(2));
  const RoundId send = e.define_round("send", [](MachineContext& ctx, Params) {
    if (ctx.id() == 0) ctx.send(1, {1});
  });
  const RoundId recv = define_idle(e, "recv");
  const RoundId check = e.define_round("check", [](MachineContext& ctx,
                                                   Params) {
    EXPECT_TRUE(ctx.messages().empty());
    EXPECT_EQ(ctx.inbox_words(), 0u);
  });
  e.invoke_round(send);
  e.invoke_round(recv);
  e.invoke_round(check);
}

TEST(Engine, CountsRounds) {
  Engine e(small_topo(2));
  const RoundId r = define_idle(e, "r");
  for (int i = 0; i < 5; ++i) e.invoke_round(r);
  EXPECT_EQ(e.metrics().rounds(), 5u);
}

TEST(Engine, InvokeParamsReachEveryMachine) {
  Engine e(small_topo(3));
  std::vector<Word> seen(3, 0);
  const RoundId r = e.define_round("r", [&](MachineContext& ctx, Params ps) {
    ASSERT_EQ(ps.size(), 2u);
    seen[ctx.id()] = ps[0] * 10 + ps[1];
  });
  e.invoke_round(r, {4, 2});
  EXPECT_EQ(seen, (std::vector<Word>{42, 42, 42}));
}

TEST(Engine, SelfSendAllowed) {
  Engine e(small_topo(2));
  bool seen = false;
  const RoundId send = e.define_round("send", [](MachineContext& ctx, Params) {
    if (ctx.id() == 0) ctx.send(0, {5});
  });
  const RoundId recv = e.define_round("recv", [&](MachineContext& ctx,
                                                  Params) {
    const InboxView inbox = ctx.messages();
    if (ctx.id() == 0 && !inbox.empty()) {
      seen = inbox[0].from == 0 && inbox[0].payload[0] == 5;
    }
  });
  e.invoke_round(send);
  e.invoke_round(recv);
  EXPECT_TRUE(seen);
}

TEST(Engine, MetricsTrackCommunication) {
  Engine e(small_topo(3));
  const RoundId send = e.define_round("send", [](MachineContext& ctx, Params) {
    if (ctx.id() == 0) {
      ctx.send(1, {1, 2});
      ctx.send(2, {3});
    }
    if (ctx.id() == 1) ctx.send(2, {4, 5, 6});
  });
  const RoundId recv = define_idle(e, "recv");
  e.invoke_round(send);
  const auto& r = e.metrics().per_round().back();
  EXPECT_EQ(r.total_sent, 6u);
  EXPECT_EQ(r.max_outbox, 3u);  // both machine 0 and machine 1 sent 3
  e.invoke_round(recv);
  const auto& r2 = e.metrics().per_round().back();
  EXPECT_EQ(r2.max_inbox, 4u);  // machine 2 received 1 + 3 words
}

TEST(Engine, CentralInboxTracked) {
  Engine e(small_topo(3));
  const RoundId send = e.define_round("send", [](MachineContext& ctx, Params) {
    if (!ctx.is_central()) ctx.send(kCentral, {ctx.id()});
  });
  e.invoke_round(send);
  e.run_central_round("recv", [](MachineContext& ctx) {
    EXPECT_EQ(ctx.messages().size(), 2u);
  });
  EXPECT_EQ(e.metrics().max_central_inbox(), 2u);
}

TEST(Engine, ResidentChargeRecorded) {
  Engine e(small_topo(2));
  const RoundId r = e.define_round("r", [](MachineContext& ctx, Params) {
    ctx.charge_resident(ctx.id() == 1 ? 500u : 10u);
  });
  e.invoke_round(r);
  EXPECT_EQ(e.metrics().per_round().back().max_resident, 500u);
  EXPECT_EQ(e.metrics().max_machine_words(), 500u);
}

TEST(Engine, SpaceViolationThrowsWhenEnforced) {
  Engine e(small_topo(2, /*cap=*/100));
  const RoundId r = e.define_round("r", [](MachineContext& ctx, Params) {
    ctx.charge_resident(101);
  });
  EXPECT_THROW(e.invoke_round(r), SpaceLimitExceeded);
}

TEST(Engine, SpaceViolationRecordedWhenNotEnforced) {
  Engine e(small_topo(2, /*cap=*/100, /*fanout=*/2, /*enforce=*/false));
  const RoundId r = e.define_round("r", [](MachineContext& ctx, Params) {
    ctx.charge_resident(101);
  });
  e.invoke_round(r);
  EXPECT_EQ(e.metrics().violations(), 1u);
  EXPECT_TRUE(e.metrics().per_round().back().space_violation);
}

TEST(Engine, OutboxCountsAgainstCap) {
  Engine e(small_topo(2, /*cap=*/10));
  const RoundId r = e.define_round("r", [](MachineContext& ctx, Params) {
    if (ctx.id() == 0) ctx.send(1, std::vector<Word>(11, 0));
  });
  EXPECT_THROW(e.invoke_round(r), SpaceLimitExceeded);
}

TEST(Engine, InboxCountsAgainstCap) {
  Engine e(small_topo(3, /*cap=*/10));
  // Two senders, 6 words each: outboxes fit (6 <= 10) but machine 2's
  // inbox in the next round holds 12 > 10.
  const RoundId send = e.define_round("send", [](MachineContext& ctx, Params) {
    if (ctx.id() != 2) ctx.send(2, std::vector<Word>(6, 1));
  });
  const RoundId recv = define_idle(e, "recv");
  e.invoke_round(send);
  EXPECT_THROW(e.invoke_round(recv), SpaceLimitExceeded);
}

TEST(Engine, CentralRoundRunsOnlyCentral) {
  Engine e(small_topo(4));
  int runs = 0;
  e.run_central_round("c", [&](MachineContext& ctx) {
    EXPECT_TRUE(ctx.is_central());
    ++runs;
  });
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(e.metrics().rounds(), 1u);
}

TEST(Engine, CentralRoundConsumesEveryInbox) {
  // Non-central machines run no code in a central round, but their
  // inboxes are still consumed: nothing is delivered twice.
  Engine e(small_topo(3));
  const RoundId send = e.define_round("send", [](MachineContext& ctx, Params) {
    ctx.send((ctx.id() + 1) % 3, {ctx.id()});
  });
  e.invoke_round(send);
  EXPECT_EQ(e.inbox_size(2), 1u);
  e.run_central_round("c", [](MachineContext& ctx) {
    EXPECT_EQ(ctx.messages().size(), 1u);
  });
  for (MachineId m = 0; m < 3; ++m) EXPECT_EQ(e.inbox_size(m), 0u);
}

TEST(Engine, RejectsBadDestination) {
  Engine e(small_topo(2));
  const RoundId r = e.define_round("r", [](MachineContext& ctx, Params) {
    if (ctx.id() == 0) ctx.send(7, {1});
  });
  EXPECT_DEATH(e.invoke_round(r), "nonexistent");
}

TEST(Engine, DefineRoundAfterJobStartDies) {
  // Worker processes snapshot the round registry when the job starts,
  // so the registry is frozen from the first invoke_round on.
  Engine e(small_topo(2));
  e.invoke_round(define_idle(e, "first"));
  EXPECT_DEATH(define_idle(e, "late"), "define_round after the job started");
}

// ---------------------------------------------------------- broadcast --

TEST(BroadcastTree, ParentDepthConsistency) {
  for (std::uint64_t fanout : {2ull, 3ull, 5ull}) {
    for (MachineId m = 1; m < 100; ++m) {
      const MachineId p = tree_parent(m, fanout);
      EXPECT_LT(p, m);
      EXPECT_EQ(tree_depth(m, fanout), tree_depth(p, fanout) + 1);
    }
    EXPECT_EQ(tree_depth(0, fanout), 0u);
  }
}

TEST(BroadcastTree, RoundsFormula) {
  EXPECT_EQ(broadcast_rounds(1, 2), 0u);
  EXPECT_EQ(broadcast_rounds(2, 2), 1u);
  EXPECT_EQ(broadcast_rounds(3, 2), 1u);
  EXPECT_EQ(broadcast_rounds(4, 2), 2u);
  EXPECT_EQ(broadcast_rounds(7, 2), 2u);
  EXPECT_EQ(broadcast_rounds(8, 2), 3u);
  EXPECT_EQ(broadcast_rounds(4, 3), 1u);
  EXPECT_EQ(broadcast_rounds(5, 3), 2u);
  EXPECT_EQ(broadcast_rounds(13, 3), 2u);
  EXPECT_EQ(broadcast_rounds(14, 3), 3u);
}

/// Records what every machine's apply hook saw (in-process backends
/// only: the slots live in this process).
struct Received {
  std::vector<std::vector<Word>> payload;
  std::vector<int> calls;

  explicit Received(std::uint64_t machines)
      : payload(machines), calls(machines, 0) {}

  JobBroadcast::ApplyFn hook() {
    return [this](MachineContext& ctx, std::span<const Word> p) {
      payload[ctx.id()].assign(p.begin(), p.end());
      ++calls[ctx.id()];
    };
  }
};

TEST(JobBroadcast, EveryMachineAppliesThePayload) {
  for (std::uint64_t machines : {1ull, 2ull, 5ull, 16ull, 33ull}) {
    Engine e(small_topo(machines, 1 << 20, 3));
    Received got(machines);
    JobBroadcast b(e, "b", got.hook());
    const std::vector<Word> payload{1, 2, 3, 4};
    b.run(payload);
    for (std::uint64_t m = 0; m < machines; ++m) {
      EXPECT_EQ(got.payload[m], payload) << "machine " << m;
      EXPECT_EQ(got.calls[m], 1) << "machine " << m;
    }
  }
}

TEST(JobBroadcast, UsesTreeDepthRoundsPlusDrain) {
  for (std::uint64_t machines : {1ull, 2ull, 16ull}) {
    Engine e(small_topo(machines, 1 << 20, 2));
    JobBroadcast b(e, "b");
    const auto rounds = b.run({42});
    // 16 machines in a binary heap tree: deepest machine is at depth 4;
    // plus the final drain round, which runs even on one machine.
    EXPECT_EQ(rounds, broadcast_rounds(machines, 2) + 1);
    EXPECT_EQ(e.metrics().rounds(), rounds);
  }
}

TEST(JobBroadcast, MaxOutboxIsFanoutTimesPayload) {
  // With cap 10 and payload 4, a machine forwarding to 2 children sends
  // 8 words -- fits; a flat broadcast from the root to 15 machines would
  // send 60 and violate. The tree must succeed.
  Engine e(small_topo(16, /*cap=*/10, /*fanout=*/2));
  JobBroadcast b(e, "b");
  EXPECT_NO_THROW(b.run({1, 2, 3, 4}));
  std::uint64_t max_out = 0;
  for (const RoundMetrics& rm : e.metrics().per_round()) {
    max_out = std::max(max_out, rm.max_outbox);
  }
  EXPECT_EQ(max_out, 2u * 4u);
}

TEST(JobBroadcast, GenerationsDoNotMixPayloads) {
  const std::uint64_t machines = 9;
  Engine e(small_topo(machines, 1 << 20, 2));
  Received got(machines);
  JobBroadcast b(e, "b", got.hook());
  b.run({1, 2, 3});
  b.run({9, 8});
  for (std::uint64_t m = 0; m < machines; ++m) {
    EXPECT_EQ(got.payload[m], (std::vector<Word>{9, 8})) << "machine " << m;
    EXPECT_EQ(got.calls[m], 2) << "machine " << m;
  }
}

/// Two broadcasts whose apply hooks report back to the central machine
/// (a process-clean observation), plus the full metrics trace.
std::string broadcast_trace(std::shared_ptr<exec::Executor> ex) {
  const std::uint64_t machines = 11;
  Engine e(small_topo(machines, 1 << 20, 3), std::move(ex));
  JobBroadcast b(e, "b", [](MachineContext& ctx, std::span<const Word> p) {
    ctx.send(kCentral, {ctx.id(), std::accumulate(p.begin(), p.end(),
                                                  Word{0})});
  });
  std::ostringstream os;
  for (const std::vector<Word>& payload :
       {std::vector<Word>{5, 6, 7}, std::vector<Word>{100}}) {
    b.run(payload);
    e.run_central_round("collect", [&](MachineContext& ctx) {
      for (const MessageView m : ctx.messages()) {
        os << m.payload[0] << ":" << m.payload[1] << " ";
      }
      os << "\n";
    });
  }
  write_trace_csv(e.metrics(), os);
  return os.str();
}

TEST(JobBroadcast, TraceIdenticalUnderProcessShards) {
  const std::string serial =
      broadcast_trace(std::make_shared<exec::SerialExecutor>());
  EXPECT_NE(serial.find("10:18 "), std::string::npos) << serial;
  EXPECT_NE(serial.find("10:100 "), std::string::npos) << serial;
  EXPECT_EQ(serial,
            broadcast_trace(std::make_shared<exec::ProcessShardExecutor>(2)));
}

// -------------------------------------------------------------- trace --

TEST(Trace, CsvHasHeaderAndRows) {
  Engine e(small_topo(2));
  const RoundId alpha = e.define_round("alpha", [](MachineContext& ctx,
                                                   Params) {
    if (ctx.id() == 0) ctx.send(1, {1});
  });
  e.invoke_round(alpha);
  std::ostringstream os;
  write_trace_csv(e.metrics(), os);
  const std::string s = os.str();
  EXPECT_NE(s.find("round,label"), std::string::npos);
  EXPECT_NE(s.find("0,alpha,1"), std::string::npos);
}

TEST(Trace, SummaryMentionsRounds) {
  Engine e(small_topo(2));
  e.invoke_round(define_idle(e, "r"));
  std::ostringstream os;
  print_summary(e.metrics(), os);
  EXPECT_NE(os.str().find("rounds=1"), std::string::npos);
}

}  // namespace
}  // namespace mrlr::mrc
