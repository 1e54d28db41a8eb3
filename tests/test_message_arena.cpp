// Tests for the flat-buffer message layer: the MessageWriter /
// send_batch arena encode paths, span-view decode, slab move-merge
// delivery, pending traffic after a failed space audit, and equality of
// the two encode paths on adversarial workloads, across execution
// backends.

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "mrlr/exec/serial_executor.hpp"
#include "mrlr/exec/thread_pool_executor.hpp"
#include "mrlr/mrc/engine.hpp"
#include "mrlr/mrc/trace.hpp"
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
  // Parity with send_batch: an empty writer and send(to, {}) both
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

TEST(PendingInbox, StagedMessagesSurviveSpaceThrow) {
  // The violating round's traffic is not delivered when the audit
  // throws; it stays staged and arrives, intact, at the end of the next
  // round.
  Engine e(topo(2, /*cap=*/4));
  const RoundId send = e.define_round("send", [](MachineContext& ctx, Params) {
    if (ctx.is_central()) ctx.send(1, {1, 2, 3, 4, 5});
  });
  const RoundId idle = e.define_round("idle", [](MachineContext&, Params) {});
  const RoundId read = e.define_round("read", [](MachineContext& ctx, Params) {
    if (ctx.id() != 1) return;
    ASSERT_EQ(ctx.inbox_size(), 1u);
    EXPECT_EQ(ctx.message(0).from, 0u);
    EXPECT_EQ(std::vector<Word>(ctx.message(0).payload.begin(),
                                ctx.message(0).payload.end()),
              (std::vector<Word>{1, 2, 3, 4, 5}));
  });
  EXPECT_THROW(e.invoke_round(send), SpaceLimitExceeded);
  EXPECT_EQ(e.inbox_size(1), 0u);  // not delivered by the failed round
  e.invoke_round(idle);
  EXPECT_EQ(e.inbox_size(1), 1u);
  EXPECT_EQ(e.inbox_words(1), 5u);
  // The 5-word inbox is over the cap: the callback still observes it
  // (callbacks run before the audit), and then the audit throws.
  EXPECT_THROW(e.invoke_round(read), SpaceLimitExceeded);
}

TEST(PendingInbox, NoDoubleDeliveryWhenEngineReusedAfterThrow) {
  // Regression: staged frames must be consumed by the merge even when
  // the audit throws, or the next round re-merges them and every
  // message from the violating round arrives twice.
  Engine e(topo(2, /*cap=*/4));
  const RoundId violate = e.define_round("violate", [](MachineContext& ctx,
                                                       Params) {
    if (ctx.is_central()) ctx.send(1, {1, 2, 3, 4, 5});  // outbox 5 > 4
  });
  const RoundId after = e.define_round("after", [](MachineContext& ctx,
                                                   Params) {
    if (ctx.is_central()) ctx.send(1, {9});
  });
  const RoundId read = e.define_round("read", [](MachineContext& ctx, Params) {
    if (ctx.id() != 1) return;
    ASSERT_EQ(ctx.inbox_size(), 2u);
    EXPECT_EQ(std::vector<Word>(ctx.message(0).payload.begin(),
                                ctx.message(0).payload.end()),
              (std::vector<Word>{1, 2, 3, 4, 5}));
    EXPECT_EQ(std::vector<Word>(ctx.message(1).payload.begin(),
                                ctx.message(1).payload.end()),
              (std::vector<Word>{9}));
  });
  try {
    e.invoke_round(violate);
    FAIL() << "expected SpaceLimitExceeded";
  } catch (const SpaceLimitExceeded&) {
  }
  // Next round is legal (outbox 1 <= cap; the violating message was
  // never delivered so machine 1's current inbox is still empty) and
  // must deliver the pending message exactly once, alongside the new
  // traffic — not re-merge it into a duplicate.
  e.invoke_round(after);
  EXPECT_EQ(e.inbox_size(1), 2u);
  EXPECT_EQ(e.inbox_words(1), 6u);
  // The delivered 6-word inbox now itself exceeds the cap: the read
  // round's callback observes it (callbacks run before the audit), and
  // the audit then reports the violation.
  try {
    e.invoke_round(read);
    FAIL() << "expected SpaceLimitExceeded (6-word inbox over cap 4)";
  } catch (const SpaceLimitExceeded&) {
  }
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
enum class Encode { kWriter, kSendBatch };

/// Runs the workload through one engine round and fingerprints every
/// delivered (receiver, sender, payload) plus the full metrics trace.
/// `encode` selects the send path: MessageWriter versus send_batch.
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
      } else {
        ctx.send_batch(m.to, m.payload);
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

TEST(ArenaRoundTrip, WriterMatchesSendBatchOnAdversarialShapes) {
  for (const Shape shape : {Shape::kEmpty, Shape::kMaxLen, Shape::kManyTiny,
                            Shape::kAllToOne, Shape::kMixed}) {
    for (const std::uint64_t machines : {1ull, 3ull, 8ull}) {
      const auto ms =
          make_workload(shape, machines, 100 + static_cast<int>(shape));
      const std::string batch = run_fingerprint(
          ms, machines, Encode::kSendBatch,
          std::make_shared<exec::SerialExecutor>());
      const std::string writer = run_fingerprint(
          ms, machines, Encode::kWriter,
          std::make_shared<exec::SerialExecutor>());
      EXPECT_EQ(batch, writer)
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
