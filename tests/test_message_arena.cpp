// Tests for the flat-buffer message layer: the send and coalesced-send
// arena encode paths, span-view decode, slab move-merge delivery, the end
// of a job at a round that throws, and byte-identical delivery of
// adversarial workloads across execution backends.

#include <gtest/gtest.h>

#include <cerrno>
#include <functional>
#include <memory>
#include <stdexcept>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

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

// --------------------------------------------------------- send basics --

TEST(Send, BuildsOneContiguousMessage) {
  Engine e(topo(3));
  const RoundId send = e.define_round("send", [](MachineContext& ctx, Params) {
    if (ctx.id() != 1) return;
    std::vector<Word> msg{10};
    const std::vector<Word> tail{11, 12};
    msg.insert(msg.end(), tail.begin(), tail.end());
    ctx.send(2, msg);
    msg.assign({13});  // the buffer is the caller's again after send
  });
  const RoundId recv = e.define_round("recv", [](MachineContext& ctx, Params) {
    if (ctx.id() != 2) return;
    ASSERT_EQ(ctx.messages().size(), 1u);
    const MessageView m = ctx.messages()[0];
    EXPECT_EQ(m.from, 1u);
    EXPECT_EQ(std::vector<Word>(m.payload.begin(), m.payload.end()),
              (std::vector<Word>{10, 11, 12}));
  });
  e.invoke_round(send);
  EXPECT_EQ(e.metrics().per_round().back().total_sent, 3u);
  e.invoke_round(recv);
}

TEST(Send, EmptySendDeliversEmptyMessage) {
  // An empty span and an empty initializer list both deliver a 0-word
  // message: a placeholder whose index the receiver can read.
  Engine e(topo(2));
  const RoundId send = e.define_round("send", [](MachineContext& ctx, Params) {
    if (!ctx.is_central()) return;
    ctx.send(1, std::vector<Word>{});
    ctx.send(1, {});
  });
  const RoundId recv = e.define_round("recv", [](MachineContext& ctx, Params) {
    if (ctx.id() != 1) return;
    EXPECT_EQ(ctx.messages().size(), 2u);
    EXPECT_EQ(ctx.inbox_words(), 0u);
    for (const MessageView m : ctx.messages()) {
      EXPECT_TRUE(m.payload.empty());
    }
  });
  e.invoke_round(send);
  e.invoke_round(recv);
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
    ASSERT_EQ(inbox.size(), 4u);
    EXPECT_EQ(ctx.inbox_words(), 12u);
    std::size_t i = 0;
    for (const MessageView v : inbox) {
      EXPECT_EQ(v.from, i);
      EXPECT_EQ(inbox[i].from, v.from);
      EXPECT_EQ(inbox[i].payload.data(), v.payload.data());
      EXPECT_EQ(std::vector<Word>(v.payload.begin(), v.payload.end()),
                (std::vector<Word>{i, ctx.id(), 99}));
      ++i;
    }
  });
  e.invoke_round(send);
  e.invoke_round(check);
}

// ----------------------------------------- a round that throws ends it --

/// A backend the cases below run on. Under the process backend machine
/// 3 of 4 sits on a worker and machine 0 in the coordinator.
struct EngineBackend {
  const char* name;
  std::shared_ptr<exec::Executor> (*make)();
};

void PrintTo(const EngineBackend& backend, std::ostream* os) {
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

class OnEachBackend : public ::testing::TestWithParam<EngineBackend> {
 protected:
  Engine make_engine(std::uint64_t cap) const {
    return Engine(topo(4, cap), GetParam().make());
  }
};

/// Round calls on an engine whose round `failed` threw: every later
/// invoke_round and run_central_round throws std::logic_error naming
/// it, and runs nothing.
class FailedEngine : public OnEachBackend {
 protected:
  static void expect_refused(Engine& e, RoundId round,
                             const std::string& failed) {
    const auto expect_names_failed = [&](const std::function<void()>& call) {
      try {
        call();
        ADD_FAILURE() << "a round ran after " << failed << " threw";
      } catch (const std::logic_error& err) {
        EXPECT_NE(std::string(err.what()).find(failed), std::string::npos)
            << err.what();
      }
    };
    const std::uint64_t rounds = e.metrics().rounds();
    expect_names_failed([&] { e.invoke_round(round, {0}); });
    expect_names_failed([&] {
      e.run_central_round("central", [](MachineContext&) {
        ADD_FAILURE() << "central round ran";
      });
    });
    EXPECT_EQ(e.metrics().rounds(), rounds);
  }

  /// After the engine is gone no worker process of it is left, running
  /// or unreaped.
  static void expect_no_children() {
    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
  }

  /// A round in which every machine sends the central machine and
  /// machine 2 a word each, plainly and coalesced; with parameter
  /// `thrower` + 1, machine `thrower` then stages one more message to
  /// machine 2 and throws.
  static RoundId define_sends(Engine& e) {
    return e.define_round("send", [](MachineContext& ctx, Params ps) {
      ctx.send(kCentral, {ctx.id()});
      ctx.send_coalesced(2, {ctx.id()});
      if (ps[0] == ctx.id() + 1) {
        ctx.send(2, {99});
        throw std::runtime_error("machine " + std::to_string(ctx.id()));
      }
    });
  }
};

TEST_P(FailedEngine, AuditThrow) {
  {
    Engine e = make_engine(/*cap=*/4);
    const RoundId send = define_sends(e);
    const RoundId violate =
        e.define_round("violate", [](MachineContext& ctx, Params) {
          if (ctx.id() == 3) ctx.send(0, {1, 2, 3, 4, 5});  // outbox 5 > 4
        });
    e.invoke_round(send, {0});
    EXPECT_THROW(e.invoke_round(violate), SpaceLimitExceeded);
    expect_refused(e, send, "round 2 ('violate')");
  }
  expect_no_children();
}

TEST_P(FailedEngine, CoordinatorCallbackThrow) {
  {
    Engine e = make_engine(/*cap=*/1 << 20);
    const RoundId send = define_sends(e);
    e.invoke_round(send, {0});
    try {
      e.invoke_round(send, {1});  // machine 0 throws
      ADD_FAILURE() << "expected the callback's exception";
    } catch (const std::runtime_error& err) {
      EXPECT_STREQ(err.what(), "machine 0");
    }
    expect_refused(e, send, "round 2 ('send')");
  }
  expect_no_children();
}

TEST_P(FailedEngine, WorkerCallbackThrow) {
  // Under the process backend machine 3 throws in a worker, and the
  // coordinator rethrows it as ShardCallbackError.
  {
    Engine e = make_engine(/*cap=*/1 << 20);
    const RoundId send = define_sends(e);
    e.invoke_round(send, {0});
    e.run_central_round("drain", [](MachineContext&) {});
    try {
      e.invoke_round(send, {4});  // machine 3 throws
      ADD_FAILURE() << "expected the callback's exception";
    } catch (const std::runtime_error& err) {
      EXPECT_NE(std::string(err.what()).find("machine 3"), std::string::npos)
          << err.what();
    }
    expect_refused(e, send, "round 3 ('send')");
  }
  expect_no_children();
}

TEST_P(FailedEngine, CentralRoundThrow) {
  // Once after the job started, and once before it: the refused
  // invoke_round then starts no job at all.
  for (const bool started : {true, false}) {
    {
      Engine e = make_engine(/*cap=*/1 << 20);
      const RoundId send = define_sends(e);
      if (started) e.invoke_round(send, {0});
      EXPECT_THROW(e.run_central_round("fail",
                                       [](MachineContext& ctx) {
                                         ctx.send_coalesced(1, {4});
                                         throw std::runtime_error("central");
                                       }),
                   std::runtime_error);
      expect_refused(e, send, started ? "round 2 ('fail')" : "round 1 ('fail')");
    }
    expect_no_children();
  }
}

// --------------------------------------- traffic from before the job --

class JobStart : public OnEachBackend {};

TEST_P(JobStart, TrafficFromBeforeTheJobReachesWorkerMachines) {
  // Central rounds run before the first registered round starts the
  // job. The last one's deliveries, to machines 2 and 3, must join the
  // worker shards' first inputs under the process backend; what the
  // first one sent machine 3 was consumed by the second.
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
                      [](MachineContext& ctx) { ctx.send(3, {4}); });
  e.run_central_round("greet again", [](MachineContext& ctx) {
    ctx.send(3, {5});
    ctx.send(2, {6});
  });
  EXPECT_EQ(e.inbox_size(2), 1u);
  EXPECT_EQ(e.inbox_size(3), 1u);
  e.invoke_round(report);  // machines 2 and 3 forward what they read
  e.run_central_round("collect",
                      [&](MachineContext& ctx) { record_inbox(ctx, central); });
  EXPECT_EQ(central, (Transcript{{2, 0, 6}, {3, 0, 5}}));
}

const auto kBackends = ::testing::Values(
    EngineBackend{"serial",
                  []() -> std::shared_ptr<exec::Executor> {
                    return std::make_shared<exec::SerialExecutor>();
                  }},
    EngineBackend{"threads2",
                  []() -> std::shared_ptr<exec::Executor> {
                    return std::make_shared<exec::ThreadPoolExecutor>(2);
                  }},
    EngineBackend{"process2",
                  []() -> std::shared_ptr<exec::Executor> {
                    return std::make_shared<exec::ProcessShardExecutor>(2);
                  }},
    EngineBackend{"process3",
                  []() -> std::shared_ptr<exec::Executor> {
                    return std::make_shared<exec::ProcessShardExecutor>(3);
                  }});

std::string backend_name(const ::testing::TestParamInfo<EngineBackend>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Backends, FailedEngine, kBackends, backend_name);
INSTANTIATE_TEST_SUITE_P(Backends, JobStart, kBackends, backend_name);

// ---------------------------------------------------- coalesced sends --

/// The coalescing cases run on the same backends. The sender, machine 3
/// of 4, sits on a worker under the process backend.
class Coalesced : public OnEachBackend {
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
enum class Encode { kSend, kCoalesced };

/// Runs the workload through one engine round and fingerprints every
/// delivered (receiver, sender, payload) plus the full metrics trace.
/// `encode` selects the send path: send or send_coalesced. Each machine
/// ships what it read to the central machine as one message of
/// {inbox words, then (from, len, payload) per delivered message}, so the
/// fingerprint is read the same way on every backend.
std::string run_fingerprint(const std::vector<SentMsg>& ms,
                            std::uint64_t machines, Encode encode,
                            std::shared_ptr<exec::Executor> ex) {
  Engine e(topo(machines), std::move(ex));
  const RoundId send = e.define_round("send", [&](MachineContext& ctx,
                                                  Params) {
    for (const SentMsg& m : ms) {
      if (m.from != ctx.id()) continue;
      if (encode == Encode::kSend) {
        ctx.send(m.to, m.payload);
      } else {
        ctx.send_coalesced(m.to, m.payload);
      }
    }
  });
  const RoundId recv = e.define_round("recv", [](MachineContext& ctx,
                                                 Params) {
    std::vector<Word> read{ctx.inbox_words()};
    for (const MessageView m : ctx.messages()) {
      read.push_back(m.from);
      read.push_back(m.payload.size());
      read.insert(read.end(), m.payload.begin(), m.payload.end());
    }
    ctx.send(kCentral, read);
  });
  e.invoke_round(send);
  e.invoke_round(recv);
  std::ostringstream os;
  e.run_central_round("collect", [&os](MachineContext& ctx) {
    for (const MessageView m : ctx.messages()) {
      const std::span<const Word> r = m.payload;
      os << "machine " << m.from << " words=" << r[0] << "\n";
      for (std::size_t i = 1; i < r.size(); i += 2 + r[i + 1]) {
        os << "  from " << r[i] << ":";
        for (std::size_t k = 0; k < r[i + 1]; ++k) os << " " << r[i + 2 + k];
        os << "\n";
      }
    }
  });
  write_trace_csv(e.metrics(), os);
  return os.str();
}

TEST(ArenaRoundTrip, ByteIdenticalAcrossBackends) {
  // Across the wire too: under the process backend the empty messages
  // and each sender's send order must reach the receivers as they do in
  // process, since a receiver may tell senders' messages apart by index.
  for (const Shape shape : {Shape::kEmpty, Shape::kManyTiny,
                            Shape::kAllToOne, Shape::kMixed}) {
    const std::uint64_t machines = 8;
    const auto ms = make_workload(shape, machines, 7);
    const std::string serial = run_fingerprint(
        ms, machines, Encode::kSend,
        std::make_shared<exec::SerialExecutor>());
    for (const unsigned threads : {1u, 2u, 8u}) {
      EXPECT_EQ(serial,
                run_fingerprint(
                    ms, machines, Encode::kSend,
                    std::make_shared<exec::ThreadPoolExecutor>(threads)))
          << "shape=" << static_cast<int>(shape) << " threads=" << threads;
    }
    for (const unsigned shards : {2u, 3u}) {
      EXPECT_EQ(serial,
                run_fingerprint(
                    ms, machines, Encode::kSend,
                    std::make_shared<exec::ProcessShardExecutor>(shards)))
          << "shape=" << static_cast<int>(shape) << " shards=" << shards;
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
      ASSERT_EQ(ctx.messages().size(), 1u);
      const MessageView m = ctx.messages()[0];
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
    std::vector<Word> msg{round, ctx.id()};
    for (std::uint64_t k = 0; k < round % 3; ++k) msg.push_back(k);
    ctx.send(to, msg);
  });
  for (std::uint64_t round = 0; round < 60; ++round) {
    e.invoke_round(shift, {round});
  }
}

}  // namespace
}  // namespace mrlr::mrc
