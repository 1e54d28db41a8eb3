// Tests for the flat-buffer message layer: the MessageWriter / send
// arena encode paths, coalesced sends, span-view decode, slab move-merge
// delivery, pending traffic after a failed space audit, and equality of
// the two encode paths on adversarial workloads, across execution
// backends.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mrlr/exec/process_shard_executor.hpp"
#include "mrlr/exec/serial_executor.hpp"
#include "mrlr/exec/thread_pool_executor.hpp"
#include "mrlr/mrc/engine.hpp"
#include "mrlr/mrc/trace.hpp"
#include "mrlr/obs/telemetry.hpp"
#include "mrlr/util/rng.hpp"

namespace mrlr::mrc {
namespace {

Topology topo(std::uint64_t machines, std::uint64_t cap = 1 << 20) {
  Topology t;
  t.num_machines = machines;
  t.words_per_machine = cap;
  t.fanout = 2;
  return t;
}

using Params = std::span<const Word>;

// ------------------------------------------------------- writer basics --

TEST(MessageWriter, BuildsOneContiguousMessage) {
  Engine e(topo(3));
  const RoundId send = e.define_round("send", [](MachineContext& ctx, Params) {
    if (ctx.id() != 1) return;
    MessageWriter w = ctx.begin_message(2);
    w.push(10);
    const std::vector<Word> tail{11, 12};
    w.append(tail);
    EXPECT_EQ(w.size(), 3u);
  });
  const RoundId recv = e.define_round("recv", [](MachineContext& ctx, Params) {
    if (ctx.id() != 2) return;
    ASSERT_EQ(ctx.inbox_size(), 1u);
    const MessageView m = ctx.message(0);
    EXPECT_EQ(m.from, 1u);
    EXPECT_EQ(std::vector<Word>(m.payload.begin(), m.payload.end()),
              (std::vector<Word>{10, 11, 12}));
  });
  e.invoke_round(send);
  e.invoke_round(recv);
}

TEST(MessageWriter, CancelSendsNothingAndChargesNothing) {
  Engine e(topo(2));
  const RoundId send = e.define_round("send", [](MachineContext& ctx, Params) {
    if (!ctx.is_central()) return;
    {
      MessageWriter w = ctx.begin_message(1);
      w.push(1);
      w.push(2);
      w.cancel();
    }
    // The arena must have rolled back: a subsequent message is intact.
    ctx.send(1, {7});
  });
  const RoundId recv = e.define_round("recv", [](MachineContext& ctx, Params) {
    if (ctx.id() != 1) return;
    ASSERT_EQ(ctx.inbox_size(), 1u);
    ASSERT_EQ(ctx.message(0).payload.size(), 1u);
    EXPECT_EQ(ctx.message(0).payload[0], 7u);
  });
  e.invoke_round(send);
  EXPECT_EQ(e.metrics().per_round().back().total_sent, 1u);
  e.invoke_round(recv);
}

TEST(MessageWriter, EmptyCommitDeliversEmptyMessage) {
  // Parity with send: an empty writer and send(to, {}) both
  // deliver a 0-word message.
  Engine e(topo(2));
  const RoundId send = e.define_round("send", [](MachineContext& ctx, Params) {
    if (!ctx.is_central()) return;
    { MessageWriter w = ctx.begin_message(1); }
    ctx.send(1, std::vector<Word>{});
  });
  const RoundId recv = e.define_round("recv", [](MachineContext& ctx, Params) {
    if (ctx.id() != 1) return;
    EXPECT_EQ(ctx.inbox_size(), 2u);
    EXPECT_EQ(ctx.inbox_words(), 0u);
    for (const MessageView m : ctx.messages()) {
      EXPECT_TRUE(m.payload.empty());
    }
  });
  e.invoke_round(send);
  e.invoke_round(recv);
}

TEST(MessageWriter, InterleavedPlainSendDies) {
  Engine e(topo(2));
  const RoundId send = e.define_round("send", [](MachineContext& ctx, Params) {
    if (!ctx.is_central()) return;
    MessageWriter w = ctx.begin_message(1);
    w.push(1);
    ctx.send(1, {2});  // would corrupt w's frame
  });
  EXPECT_DEATH(e.invoke_round(send), "MessageWriter");
}

TEST(MessageWriter, SecondOpenWriterDies) {
  Engine e(topo(2));
  const RoundId send = e.define_round("send", [](MachineContext& ctx, Params) {
    if (!ctx.is_central()) return;
    MessageWriter a = ctx.begin_message(1);
    MessageWriter b = ctx.begin_message(1);
  });
  EXPECT_DEATH(e.invoke_round(send), "MessageWriter");
}

// ------------------------------------------------------- view parity --

TEST(InboxView, RangeIndexAndCountsAgree) {
  Engine e(topo(4));
  const RoundId send = e.define_round("send", [](MachineContext& ctx, Params) {
    for (MachineId to = 0; to < 4; ++to) {
      ctx.send(to, {ctx.id(), to, 99});
    }
  });
  const RoundId check = e.define_round("check", [](MachineContext& ctx,
                                                   Params) {
    const InboxView inbox = ctx.messages();
    ASSERT_EQ(inbox.size(), ctx.inbox_size());
    ASSERT_EQ(inbox.size(), 4u);
    EXPECT_EQ(ctx.inbox_words(), 12u);
    std::size_t i = 0;
    for (const MessageView v : inbox) {
      EXPECT_EQ(v.from, i);
      EXPECT_EQ(inbox[i].from, v.from);
      EXPECT_EQ(ctx.message(i).payload.data(), v.payload.data());
      EXPECT_EQ(std::vector<Word>(v.payload.begin(), v.payload.end()),
                (std::vector<Word>{i, ctx.id(), 99}));
      ++i;
    }
  });
  e.invoke_round(send);
  e.invoke_round(check);
}

// ------------------------------------- pending traffic after a throw --

/// A backend the pending-traffic cases run on. Under the process
/// backend the violating sender, machine 3 of 4, sits on a worker.
struct PendingBackend {
  const char* name;
  std::shared_ptr<exec::Executor> (*make)();
};

void PrintTo(const PendingBackend& backend, std::ostream* os) {
  *os << backend.name;
}

/// Each delivered message as its sender followed by its payload.
using Transcript = std::vector<std::vector<Word>>;

void record_inbox(const MachineContext& ctx, Transcript& out) {
  for (const MessageView msg : ctx.messages()) {
    std::vector<Word> entry{msg.from};
    entry.insert(entry.end(), msg.payload.begin(), msg.payload.end());
    out.push_back(std::move(entry));
  }
}

class PendingInbox : public ::testing::TestWithParam<PendingBackend> {
 protected:
  Engine make_engine(std::uint64_t cap) const {
    return Engine(topo(4, cap), GetParam().make());
  }
};

TEST_P(PendingInbox, StagedMessagesSurviveSpaceThrow) {
  // The violating round's traffic is not delivered when the audit
  // throws; it stays staged and arrives, intact, at the end of the next
  // round.
  Engine e = make_engine(/*cap=*/4);
  const RoundId send = e.define_round("send", [](MachineContext& ctx, Params) {
    if (ctx.id() == 3) ctx.send(0, {1, 2, 3, 4, 5});
  });
  const RoundId idle = e.define_round("idle", [](MachineContext&, Params) {});
  EXPECT_THROW(e.invoke_round(send), SpaceLimitExceeded);
  EXPECT_EQ(e.inbox_size(0), 0u);  // not delivered by the failed round
  e.invoke_round(idle);
  EXPECT_EQ(e.inbox_size(0), 1u);
  EXPECT_EQ(e.inbox_words(0), 5u);
  // The 5-word inbox is over the cap: the callback still observes it
  // (callbacks run before the audit), and then the audit throws.
  Transcript got;
  const auto read = [&](MachineContext& ctx) { record_inbox(ctx, got); };
  EXPECT_THROW(e.run_central_round("read", read), SpaceLimitExceeded);
  EXPECT_EQ(got, (Transcript{{3, 1, 2, 3, 4, 5}}));
}

TEST_P(PendingInbox, NoDoubleDeliveryWhenEngineReusedAfterThrow) {
  // Regression: staged frames must be consumed by the merge even when
  // the audit throws, or the next round re-merges them and every
  // message from the violating round arrives twice. Under the process
  // backend the pending words must also survive the next round's data
  // from the same worker.
  Engine e = make_engine(/*cap=*/4);
  const RoundId violate =
      e.define_round("violate", [](MachineContext& ctx, Params) {
        if (ctx.id() == 3) ctx.send(0, {1, 2, 3, 4, 5});  // outbox 5 > 4
      });
  const RoundId after =
      e.define_round("after", [](MachineContext& ctx, Params) {
        if (ctx.id() == 3) ctx.send(0, {9});
      });
  EXPECT_THROW(e.invoke_round(violate), SpaceLimitExceeded);
  // Next round is legal (outbox 1 <= cap; the violating message was
  // never delivered so machine 0's current inbox is still empty) and
  // must deliver the pending message exactly once, ahead of the new
  // traffic.
  e.invoke_round(after);
  EXPECT_EQ(e.inbox_size(0), 2u);
  EXPECT_EQ(e.inbox_words(0), 6u);
  // The delivered 6-word inbox now itself exceeds the cap: the central
  // round observes it, and the audit then reports the violation.
  Transcript got;
  const auto read = [&](MachineContext& ctx) { record_inbox(ctx, got); };
  EXPECT_THROW(e.run_central_round("read", read), SpaceLimitExceeded);
  EXPECT_EQ(got, (Transcript{{3, 1, 2, 3, 4, 5}, {3, 9}}));
}

TEST_P(PendingInbox, GenerationsReachWorkerMachinesInOrder) {
  // A resident-words violation leaves traffic pending towards the
  // central machine and towards machine 2, a worker machine under the
  // process backend, from the coordinator's shard and from workers.
  // The next round's traffic is delivered behind it, each generation in
  // sender-id order, exactly as the serial simulation does.
  Engine e = make_engine(/*cap=*/16);
  const RoundId violate =
      e.define_round("violate", [](MachineContext& ctx, Params) {
        if (ctx.id() == 0) ctx.send(2, {7});
        if (ctx.id() == 3) {
          ctx.send(0, {1, 2, 3});
          ctx.send(2, {4, 5});
          ctx.charge_resident(100);
        }
      });
  const RoundId after =
      e.define_round("after", [](MachineContext& ctx, Params) {
        if (ctx.id() == 1) ctx.send(2, {11});
        if (ctx.id() == 3) {
          ctx.send(0, {9});
          ctx.send(2, {10});
        }
      });
  Transcript central;
  const RoundId report =
      e.define_round("report", [&central](MachineContext& ctx, Params) {
        if (ctx.is_central()) record_inbox(ctx, central);
        if (ctx.id() != 2) return;
        // Machine 2 forwards what it read to the central machine.
        Transcript read;
        record_inbox(ctx, read);
        for (const std::vector<Word>& entry : read) ctx.send(kCentral, entry);
      });
  EXPECT_THROW(e.invoke_round(violate), SpaceLimitExceeded);
  EXPECT_EQ(e.inbox_size(0), 0u);
  EXPECT_EQ(e.inbox_size(2), 0u);
  e.invoke_round(after);
  EXPECT_EQ(e.inbox_size(0), 2u);
  EXPECT_EQ(e.inbox_words(0), 4u);
  EXPECT_EQ(e.inbox_size(2), 4u);
  EXPECT_EQ(e.inbox_words(2), 5u);
  e.invoke_round(report);
  Transcript forwarded;
  e.run_central_round("collect", [&](MachineContext& ctx) {
    for (const MessageView msg : ctx.messages()) {
      forwarded.emplace_back(msg.payload.begin(), msg.payload.end());
    }
  });
  EXPECT_EQ(central, (Transcript{{3, 1, 2, 3}, {3, 9}}));
  EXPECT_EQ(forwarded, (Transcript{{0, 7}, {3, 4, 5}, {1, 11}, {3, 10}}));
}

TEST_P(PendingInbox, TrafficFromBeforeTheJobReachesWorkerMachines) {
  // Central rounds run before the first registered round starts the
  // job: one delivers a message to machine 3, another leaves one for
  // machine 2 pending. Under the process backend both must join the
  // worker shards' streams when the job starts.
  Engine e = make_engine(/*cap=*/16);
  Transcript central;
  const RoundId report =
      e.define_round("report", [&central](MachineContext& ctx, Params) {
        Transcript read;
        record_inbox(ctx, read);
        if (ctx.is_central()) {
          central.insert(central.end(), read.begin(), read.end());
          return;
        }
        for (const std::vector<Word>& entry : read) ctx.send(kCentral, entry);
      });
  e.run_central_round("greet",
                      [](MachineContext& ctx) { ctx.send(3, {5}); });
  EXPECT_THROW(e.run_central_round("violate",
                                   [](MachineContext& ctx) {
                                     ctx.send(2, {6});
                                     ctx.charge_resident(100);
                                   }),
               SpaceLimitExceeded);
  e.invoke_round(report);  // machine 3 forwards {5}; {6} reaches 2
  EXPECT_EQ(e.inbox_size(2), 1u);
  e.invoke_round(report);  // machine 2 forwards {6}
  e.run_central_round("collect",
                      [&](MachineContext& ctx) { record_inbox(ctx, central); });
  EXPECT_EQ(central, (Transcript{{3, 0, 5}, {2, 0, 6}}));
}

const auto kBackends = ::testing::Values(
    PendingBackend{"serial",
                   []() -> std::shared_ptr<exec::Executor> {
                     return std::make_shared<exec::SerialExecutor>();
                   }},
    PendingBackend{"threads2",
                   []() -> std::shared_ptr<exec::Executor> {
                     return std::make_shared<exec::ThreadPoolExecutor>(2);
                   }},
    PendingBackend{"process2",
                   []() -> std::shared_ptr<exec::Executor> {
                     return std::make_shared<exec::ProcessShardExecutor>(2);
                   }},
    PendingBackend{"process3",
                   []() -> std::shared_ptr<exec::Executor> {
                     return std::make_shared<exec::ProcessShardExecutor>(3);
                   }});

std::string backend_name(const ::testing::TestParamInfo<PendingBackend>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Backends, PendingInbox, kBackends, backend_name);

// ---------------------------------------------------- coalesced sends --

/// The coalescing cases run on the same backends. The sender, machine 3
/// of 4, sits on a worker under the process backend.
class Coalesced : public PendingInbox {
 protected:
  /// Defines a round in which every machine reports its inbox, each
  /// message as (receiver, sender, payload...): the central machine into
  /// `out` directly, the others as messages to the central machine.
  static RoundId define_report(Engine& e, Transcript& out) {
    return e.define_round("report", [&out](MachineContext& ctx, Params) {
      Transcript read;
      record_inbox(ctx, read);
      for (std::vector<Word>& entry : read) {
        entry.insert(entry.begin(), ctx.id());
        if (ctx.is_central()) {
          out.push_back(std::move(entry));
        } else {
          ctx.send(kCentral, entry);
        }
      }
    });
  }

  /// Appends the reports forwarded to the central machine to `out`.
  static void collect(Engine& e, Transcript& out) {
    e.run_central_round("collect", [&out](MachineContext& ctx) {
      for (const MessageView msg : ctx.messages()) {
        out.emplace_back(msg.payload.begin(), msg.payload.end());
      }
    });
  }
};

TEST_P(Coalesced, OneMessagePerDestinationInAppendOrder) {
  // Appends to one destination become one message holding their words
  // in append order, framed after the callback's plain sends, with the
  // runs in ascending destination order.
  Engine e = make_engine(/*cap=*/1 << 20);
  const RoundId send = e.define_round("send", [](MachineContext& ctx, Params) {
    if (ctx.id() != 3) return;
    ctx.send_coalesced(2, {1, 2});
    ctx.send_coalesced(0, {3});
    ctx.send(2, {100});
    ctx.send_coalesced(2, std::vector<Word>{4, 5, 6});
    ctx.send_coalesced(1, {7});
    ctx.send_coalesced(0, {});  // an empty append frames nothing
    ctx.send_coalesced(0, {8, 9});
    ctx.send(0, {200});
  });
  Transcript got;
  const RoundId report = define_report(e, got);
  e.invoke_round(send);
  EXPECT_EQ(e.metrics().per_round().back().total_sent, 11u);
  EXPECT_EQ(e.inbox_size(0), 2u);
  EXPECT_EQ(e.inbox_words(0), 4u);
  EXPECT_EQ(e.inbox_size(1), 1u);
  EXPECT_EQ(e.inbox_size(2), 2u);
  EXPECT_EQ(e.inbox_words(2), 6u);
  e.invoke_round(report);
  collect(e, got);
  EXPECT_EQ(got, (Transcript{{0, 3, 200},
                             {0, 3, 3, 8, 9},
                             {1, 3, 7},
                             {2, 3, 100},
                             {2, 3, 1, 2, 4, 5, 6}}));
}

TEST_P(Coalesced, CentralRoundRunsAreFramedToo) {
  Engine e = make_engine(/*cap=*/1 << 20);
  Transcript got;
  const RoundId report = define_report(e, got);
  e.run_central_round("send", [](MachineContext& ctx) {
    for (Word v = 0; v < 8; ++v) {
      ctx.send_coalesced(static_cast<MachineId>(v % 4), {v});
    }
  });
  for (MachineId m = 0; m < 4; ++m) EXPECT_EQ(e.inbox_size(m), 1u);
  e.invoke_round(report);
  collect(e, got);
  EXPECT_EQ(got, (Transcript{{0, 0, 0, 4}, {1, 0, 1, 5}, {2, 0, 2, 6},
                             {3, 0, 3, 7}}));
}

TEST_P(Coalesced, ThrowingCallbackDeliversNoPartOfItsRuns) {
  Engine e = make_engine(/*cap=*/1 << 20);
  const RoundId fail = e.define_round("fail", [](MachineContext& ctx, Params) {
    if (ctx.id() != 3) return;
    ctx.send_coalesced(0, {1, 2});
    ctx.send_coalesced(2, {3});
    throw std::runtime_error("callback failed");
  });
  const RoundId idle = e.define_round("idle", [](MachineContext&, Params) {});
  EXPECT_THROW(e.invoke_round(fail), std::runtime_error);
  EXPECT_THROW(e.run_central_round("fail",
                                   [](MachineContext& ctx) {
                                     ctx.send_coalesced(1, {4});
                                     throw std::runtime_error("central");
                                   }),
               std::runtime_error);
  e.invoke_round(idle);
  for (MachineId m = 0; m < 4; ++m) {
    EXPECT_EQ(e.inbox_size(m), 0u) << "machine " << m;
  }
  EXPECT_EQ(e.metrics().per_round().back().total_sent, 0u);
}

TEST_P(Coalesced, ThrownRoundDeliversNothingOnRetry) {
  // Every machine sends the central machine and machine 3 one message
  // each (even ids plainly, odd ids coalesced); with parameter 1,
  // machine 3 then throws. The machines that returned normally staged
  // their sends, and so did machine 3's plain send; none of it may
  // reach an inbox, so the retry delivers exactly its own 4 + 4.
  Engine e = make_engine(/*cap=*/1 << 20);
  const RoundId send =
      e.define_round("send", [](MachineContext& ctx, Params ps) {
        for (const MachineId to : {kCentral, MachineId{3}}) {
          if (ctx.id() % 2 == 0) {
            ctx.send(to, {ctx.id()});
          } else {
            ctx.send_coalesced(to, {ctx.id()});
          }
        }
        if (ctx.id() == 3 && ps[0] == 1) {
          throw std::runtime_error("first try");
        }
      });
  Transcript got;
  const RoundId report = define_report(e, got);
  EXPECT_THROW(e.invoke_round(send, {1}), std::runtime_error);
  e.invoke_round(send, {0});
  EXPECT_EQ(e.inbox_size(kCentral), 4u);
  EXPECT_EQ(e.inbox_words(kCentral), 4u);
  EXPECT_EQ(e.inbox_size(3), 4u);
  EXPECT_EQ(e.metrics().per_round().back().total_sent, 8u);
  e.invoke_round(report);
  collect(e, got);
  EXPECT_EQ(got, (Transcript{{0, 0, 0}, {0, 1, 1}, {0, 2, 2}, {0, 3, 3},
                             {3, 0, 0}, {3, 1, 1}, {3, 2, 2}, {3, 3, 3}}));
  e.invoke_round(report);
  for (MachineId m = 0; m < 4; ++m) {
    EXPECT_EQ(e.inbox_size(m), 0u) << "machine " << m;
  }
}

TEST_P(Coalesced, RunOfAThrowingAuditIsDeliveredOnce) {
  // A resident-words violation leaves the framed runs pending like any
  // other staged message: they arrive once, ahead of the next round's.
  Engine e = make_engine(/*cap=*/16);
  const RoundId violate =
      e.define_round("violate", [](MachineContext& ctx, Params) {
        if (ctx.id() != 3) return;
        ctx.send_coalesced(2, {1});
        ctx.send_coalesced(0, {2});
        ctx.send_coalesced(2, {3});
        ctx.charge_resident(100);
      });
  const RoundId after =
      e.define_round("after", [](MachineContext& ctx, Params) {
        if (ctx.id() == 3) ctx.send_coalesced(2, {4});
      });
  Transcript got;
  const RoundId report = define_report(e, got);
  EXPECT_THROW(e.invoke_round(violate), SpaceLimitExceeded);
  EXPECT_EQ(e.inbox_size(2), 0u);
  e.invoke_round(after);
  EXPECT_EQ(e.inbox_size(0), 1u);
  EXPECT_EQ(e.inbox_size(2), 2u);
  e.invoke_round(report);
  collect(e, got);
  EXPECT_EQ(got, (Transcript{{0, 3, 2}, {2, 3, 1, 3}, {2, 3, 4}}));
  e.invoke_round(report);
  for (MachineId m = 0; m < 4; ++m) {
    EXPECT_EQ(e.inbox_size(m), 0u) << "machine " << m;
  }
}

TEST_P(Coalesced, MessageCounterFallsWhileWordsStayEqual) {
  // engine.messages counts each message once, by the process that
  // staged it, so every backend reports the serial count; coalescing
  // cuts it from one message per append to one per (sender,
  // destination), and the shuffled words do not move.
  const auto run = [this](bool coalesce) {
    obs::Telemetry& tel = obs::Telemetry::instance();
    tel.enable();
    Engine e = make_engine(/*cap=*/1 << 20);
    const RoundId send =
        e.define_round("send", [coalesce](MachineContext& ctx, Params) {
          for (Word k = 0; k < 3; ++k) {
            for (MachineId to = 0; to < 4; ++to) {
              if (coalesce) {
                ctx.send_coalesced(to, {ctx.id(), k});
              } else {
                ctx.send(to, {ctx.id(), k});
              }
            }
          }
        });
    const RoundId idle =
        e.define_round("idle", [](MachineContext&, Params) {});
    e.invoke_round(send);
    e.invoke_round(idle);
    const std::uint64_t words = e.metrics().total_communication();
    tel.disable();
    const std::uint64_t messages = tel.snapshot().counters.at("engine.messages");
    tel.clear();
    return std::pair{messages, words};
  };
  const auto plain = run(false);
  const auto coalesced = run(true);
  EXPECT_EQ(plain.first, 4u * 4u * 3u);
  EXPECT_EQ(coalesced.first, 4u * 4u);
  EXPECT_EQ(plain.second, 4u * 4u * 3u * 2u);
  EXPECT_EQ(coalesced.second, plain.second);
}

INSTANTIATE_TEST_SUITE_P(Backends, Coalesced, kBackends, backend_name);

TEST(SendCoalesced, WhileWriterOpenDies) {
  Engine e(topo(2));
  const RoundId send = e.define_round("send", [](MachineContext& ctx, Params) {
    if (!ctx.is_central()) return;
    MessageWriter w = ctx.begin_message(1);
    w.push(1);
    ctx.send_coalesced(1, {2});  // would land inside w's frame
  });
  EXPECT_DEATH(e.invoke_round(send),
               "send while this machine's MessageWriter is open");
}

// -------------------------------------------- adversarial round-trips --

/// One message of a synthetic workload.
struct SentMsg {
  MachineId from;
  MachineId to;
  std::vector<Word> payload;
};

enum class Shape { kEmpty, kMaxLen, kManyTiny, kAllToOne, kMixed };

std::vector<SentMsg> make_workload(Shape shape, std::uint64_t machines,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<SentMsg> ms;
  const auto M = static_cast<MachineId>(machines);
  switch (shape) {
    case Shape::kEmpty:
      // Every machine sends several empty messages; framing must carry
      // them even though they contribute zero words.
      for (MachineId s = 0; s < M; ++s) {
        for (int k = 0; k < 5; ++k) {
          ms.push_back({s, static_cast<MachineId>(rng.uniform(machines)), {}});
        }
      }
      break;
    case Shape::kMaxLen: {
      // A few senders ship one near-cap message each.
      for (MachineId s = 0; s < M; ++s) {
        std::vector<Word> big(4096);
        for (Word& w : big) w = rng();
        ms.push_back({s, static_cast<MachineId>((s + 1) % M),
                      std::move(big)});
      }
      break;
    }
    case Shape::kManyTiny:
      for (MachineId s = 0; s < M; ++s) {
        for (int k = 0; k < 300; ++k) {
          ms.push_back({s, static_cast<MachineId>((s + k) % M),
                        {rng(), static_cast<Word>(k)}});
        }
      }
      break;
    case Shape::kAllToOne:
      // Skew: everything converges on the central machine.
      for (MachineId s = 0; s < M; ++s) {
        for (int k = 0; k < 50; ++k) {
          std::vector<Word> p(1 + rng.uniform(7));
          for (Word& w : p) w = rng();
          ms.push_back({s, kCentral, std::move(p)});
        }
      }
      break;
    case Shape::kMixed:
      for (MachineId s = 0; s < M; ++s) {
        for (int k = 0; k < 40; ++k) {
          std::vector<Word> p(rng.uniform(33));
          for (Word& w : p) w = rng();
          ms.push_back({s, static_cast<MachineId>(rng.uniform(machines)),
                        std::move(p)});
        }
      }
      break;
  }
  return ms;
}

/// How run_fingerprint encodes each message.
enum class Encode { kWriter, kSend, kCoalesced };

/// Runs the workload through one engine round and fingerprints every
/// delivered (receiver, sender, payload) plus the full metrics trace.
/// `encode` selects the send path: MessageWriter, send or
/// send_coalesced.
std::string run_fingerprint(const std::vector<SentMsg>& ms,
                            std::uint64_t machines, Encode encode,
                            std::shared_ptr<exec::Executor> ex) {
  Engine e(topo(machines), std::move(ex));
  std::vector<std::string> lines(machines);
  const RoundId send = e.define_round("send", [&](MachineContext& ctx,
                                                  Params) {
    for (const SentMsg& m : ms) {
      if (m.from != ctx.id()) continue;
      if (encode == Encode::kWriter) {
        MessageWriter w = ctx.begin_message(m.to);
        w.append(m.payload);
      } else if (encode == Encode::kSend) {
        ctx.send(m.to, m.payload);
      } else {
        ctx.send_coalesced(m.to, m.payload);
      }
    }
  });
  const RoundId recv = e.define_round("recv", [&](MachineContext& ctx,
                                                  Params) {
    std::ostringstream os;
    os << "machine " << ctx.id() << " words=" << ctx.inbox_words() << "\n";
    for (const MessageView m : ctx.messages()) {
      os << "  from " << m.from << ":";
      for (const Word w : m.payload) os << " " << w;
      os << "\n";
    }
    lines[ctx.id()] = os.str();  // per-machine slot: no race
  });
  e.invoke_round(send);
  e.invoke_round(recv);
  std::ostringstream os;
  for (const std::string& l : lines) os << l;
  write_trace_csv(e.metrics(), os);
  return os.str();
}

TEST(ArenaRoundTrip, WriterMatchesSendOnAdversarialShapes) {
  for (const Shape shape : {Shape::kEmpty, Shape::kMaxLen, Shape::kManyTiny,
                            Shape::kAllToOne, Shape::kMixed}) {
    for (const std::uint64_t machines : {1ull, 3ull, 8ull}) {
      const auto ms =
          make_workload(shape, machines, 100 + static_cast<int>(shape));
      const std::string plain = run_fingerprint(
          ms, machines, Encode::kSend,
          std::make_shared<exec::SerialExecutor>());
      const std::string writer = run_fingerprint(
          ms, machines, Encode::kWriter,
          std::make_shared<exec::SerialExecutor>());
      EXPECT_EQ(plain, writer)
          << "shape=" << static_cast<int>(shape) << " machines=" << machines;
    }
  }
}

TEST(ArenaRoundTrip, ByteIdenticalAcrossBackends) {
  for (const Shape shape : {Shape::kManyTiny, Shape::kAllToOne,
                            Shape::kMixed}) {
    const std::uint64_t machines = 8;
    const auto ms = make_workload(shape, machines, 7);
    const std::string serial = run_fingerprint(
        ms, machines, Encode::kWriter,
        std::make_shared<exec::SerialExecutor>());
    for (const unsigned threads : {1u, 2u, 8u}) {
      EXPECT_EQ(serial,
                run_fingerprint(
                    ms, machines, Encode::kWriter,
                    std::make_shared<exec::ThreadPoolExecutor>(threads)))
          << "shape=" << static_cast<int>(shape) << " threads=" << threads;
    }
  }
}

TEST(ArenaRoundTrip, CoalescedByteIdenticalAcrossThreadCounts) {
  for (const Shape shape : {Shape::kManyTiny, Shape::kAllToOne,
                            Shape::kMixed}) {
    const std::uint64_t machines = 8;
    const auto ms = make_workload(shape, machines, 11);
    const std::string serial = run_fingerprint(
        ms, machines, Encode::kCoalesced,
        std::make_shared<exec::SerialExecutor>());
    for (const unsigned threads : {2u, 8u}) {
      EXPECT_EQ(serial,
                run_fingerprint(
                    ms, machines, Encode::kCoalesced,
                    std::make_shared<exec::ThreadPoolExecutor>(threads)))
          << "shape=" << static_cast<int>(shape) << " threads=" << threads;
    }
  }
}

TEST(ArenaReuse, SteadyStateRoundsStayCorrect) {
  // Slabs and staging buffers swap roles every round; contents must stay
  // exact over many rounds of shifting traffic. The round number rides
  // in the invoke parameters.
  const std::uint64_t machines = 5;
  Engine e(topo(machines));
  const RoundId shift = e.define_round("shift", [&](MachineContext& ctx,
                                                    Params ps) {
    const std::uint64_t round = ps[0];
    // Check what arrived from the previous round.
    if (round > 0) {
      ASSERT_EQ(ctx.inbox_size(), 1u);
      const MessageView m = ctx.message(0);
      const auto expect_from = static_cast<MachineId>(
          (ctx.id() + machines - (round - 1) % machines) % machines);
      EXPECT_EQ(m.from, expect_from);
      ASSERT_EQ(m.payload.size(), 2u + (round - 1) % 3);
      EXPECT_EQ(m.payload[0], round - 1);
      EXPECT_EQ(m.payload[1], m.from);
    }
    // Send to a rotating neighbour with a round-varying length.
    const auto to =
        static_cast<MachineId>((ctx.id() + round % machines) % machines);
    MessageWriter w = ctx.begin_message(to);
    w.push(round);
    w.push(ctx.id());
    for (std::uint64_t k = 0; k < round % 3; ++k) w.push(k);
  });
  for (std::uint64_t round = 0; round < 60; ++round) {
    e.invoke_round(shift, {round});
  }
}

}  // namespace
}  // namespace mrlr::mrc
