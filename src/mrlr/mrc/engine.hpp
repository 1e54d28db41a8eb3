#pragma once
// The synchronous round engine: the simulated MapReduce cluster.
//
// Execution model (matching Karloff et al.'s MRC formalization):
//   * state lives on machines; machine 0 is the central machine;
//   * a round runs a user callback once per machine, giving it the
//     machine's inbox (messages sent in the previous round) and letting
//     it emit messages for the next round;
//   * after all machines have run, the engine audits per-machine space
//     (inbox words, declared resident words, outbox words against the
//     topology's cap), records metrics, and delivers the messages.
//
// There are two ways to run a round, mirroring how the paper writes its
// algorithms. A per-machine round is *registered* before the job starts
// (define_round) and then invoked by id with a few parameter words
// (invoke_round). A central round (run_central_round, the paper's "blue
// lines") runs a host closure on the central machine only. Nothing else
// runs code on a machine, so the rules for what callbacks may touch
// (see define_round) are the whole process-clean contract.
//
// Machines within a round are data-independent, so the engine routes the
// per-machine callbacks through an exec::Executor: the serial backend
// runs them in machine order on the calling thread, the thread-pool
// backend runs them concurrently (Topology::num_threads), and the
// process-sharded backend (Topology::num_shards) runs them in
// persistent worker processes spawned once per job; each round the
// engine ships every worker its machines' inboxes and the workers ship
// their staged arenas back through the engine's ShardJobPlane
// implementation. Either way the simulation is deterministic: each
// machine's sends append only to its own staging arena, and staged
// messages are merged into next-round inboxes in machine-id order after
// the round barrier, so traces, metrics, and SpaceLimitExceeded behavior
// are byte-identical across backends, thread counts, and shard counts.
// Since the quantities the paper bounds are rounds and words (not
// wall-clock), the backend is irrelevant to the measured results;
// determinism makes every experiment replayable from its seed.
//
// Message storage (the flat-buffer shuffle): each machine's staging slot
// is one contiguous Word buffer plus a small (to, offset, len) frame
// index — no per-message heap allocation. The post-barrier merge builds
// per-destination frame indexes in sender-id order and then moves the
// arena slabs wholesale into the delivered position; payload words are
// written exactly once, at send time. Callbacks read their inbox as
// MessageView spans into the senders' slabs via messages().
//
// Per-machine algorithm state is owned by the algorithms themselves
// (typically a std::vector sized by num_machines); the engine owns only
// the mailboxes and the cost accounting. Under a threaded backend, round
// callbacks must write only machine-disjoint algorithm state (per-machine
// slots or id-strided vector elements); shared reductions belong in
// messages to the central machine. Batched sends follow the same rule: a
// MessageWriter appends to its own machine's arena, so at most one
// writer per machine may be open at a time, and plain sends may not
// interleave with an open writer.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "mrlr/util/require.hpp"

#include "mrlr/exec/executor.hpp"
#include "mrlr/mrc/config.hpp"
#include "mrlr/mrc/message.hpp"
#include "mrlr/mrc/metrics.hpp"

namespace mrlr::mrc {

/// Thrown when Topology::enforce is set and a machine exceeds its
/// word cap in some round. The reported machine is the lowest-id
/// offender of the round, independent of the execution backend.
class SpaceLimitExceeded : public std::runtime_error {
 public:
  SpaceLimitExceeded(std::string what, std::uint64_t words,
                     std::uint64_t cap);
  std::uint64_t words;
  std::uint64_t cap;
};

class Engine;
class MachineContext;

/// Zero-copy batched message builder: words push straight into the
/// sending machine's staging arena; the frame is committed when the
/// writer is destroyed (or discarded entirely via cancel()). If the
/// writer dies during exception unwind the partial message is rolled
/// back, not committed — a half-built record must never become
/// deliverable traffic. At most one writer per machine may be open at a
/// time, and MachineContext::send may not be called while one is open —
/// frames must stay contiguous.
class MessageWriter {
 public:
  MessageWriter(const MessageWriter&) = delete;
  MessageWriter& operator=(const MessageWriter&) = delete;
  ~MessageWriter();

  void push(Word w);
  void append(std::span<const Word> words);

  /// Words written so far.
  std::uint64_t size() const;
  bool empty() const { return size() == 0; }

  /// Rolls the arena back to the pre-writer state: no message is sent
  /// and nothing is charged. The writer is dead afterwards.
  void cancel();

 private:
  friend class MachineContext;
  MessageWriter(Engine& engine, MachineId from, MachineId to);

  Engine* engine_;
  MachineId from_;
  MachineId to_;
  std::uint64_t begin_;
  int uncaught_on_open_;
  bool done_ = false;
};

/// Lightweight range over one machine's delivered messages, yielding
/// MessageView spans into the senders' slabs. Valid only during the
/// round in which it was obtained.
class InboxView {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = MessageView;
    using difference_type = std::ptrdiff_t;

    MessageView operator*() const;
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator t = *this;
      ++i_;
      return t;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    friend class InboxView;
    iterator(const Engine* engine, MachineId m, std::size_t i)
        : engine_(engine), m_(m), i_(i) {}
    const Engine* engine_;
    MachineId m_;
    std::size_t i_;
  };

  std::size_t size() const;
  bool empty() const { return size() == 0; }
  MessageView operator[](std::size_t i) const;
  iterator begin() const { return iterator(engine_, m_, 0); }
  iterator end() const { return iterator(engine_, m_, size()); }

 private:
  friend class MachineContext;
  InboxView(const Engine& engine, MachineId m) : engine_(&engine), m_(m) {}
  const Engine* engine_;
  MachineId m_;
};

/// Handle passed to the per-machine round callback. Under a threaded
/// backend each machine's context is used from one worker thread; all
/// members touch only that machine's slots, so contexts never contend.
class MachineContext {
 public:
  MachineId id() const { return id_; }
  std::uint64_t num_machines() const;
  bool is_central() const { return id_ == kCentral; }

  /// Zero-copy view of the messages delivered to this machine at the
  /// start of the round, in (sender id, send order) order. Views are
  /// invalidated by the end of the round.
  InboxView messages() const;

  /// Number of messages delivered this round.
  std::size_t inbox_size() const;

  /// The i-th delivered message as a zero-copy view.
  MessageView message(std::size_t i) const;

  /// Total words in the inbox (precomputed; O(1)).
  std::uint64_t inbox_words() const;

  /// Queue a message for delivery at the start of the next round. The
  /// payload is copied once into this machine's staging arena (and not
  /// consumed — callers may reuse their buffer).
  void send(MachineId to, const std::vector<Word>& payload);
  void send(MachineId to, std::initializer_list<Word> payload);

  /// Span-based send: copies `payload` into the arena without requiring
  /// the caller to own a std::vector.
  void send_batch(MachineId to, std::span<const Word> payload);

  /// Zero-copy batched send: returns a writer appending directly to
  /// this machine's arena. The message is framed when the writer dies.
  MessageWriter begin_message(MachineId to);

  /// Declare the words of algorithm state resident on this machine during
  /// this round. Algorithms must call this with an honest figure; the
  /// engine audits it against the topology cap.
  void charge_resident(std::uint64_t words);

 private:
  friend class Engine;
  MachineContext(Engine& engine, MachineId id) : engine_(engine), id_(id) {}
  Engine& engine_;
  MachineId id_;
};

/// Identifier of a round registered with Engine::define_round.
using RoundId = std::uint32_t;

class Engine : private exec::ShardJobPlane {
 public:
  /// Builds the execution backend from topology.num_threads /
  /// topology.num_shards.
  explicit Engine(Topology topology);

  /// Uses a caller-provided backend (e.g. a pool shared across engines,
  /// or a specific executor under test). `executor` must not be null.
  Engine(Topology topology, std::shared_ptr<exec::Executor> executor);

  /// Ends the persistent job, if one started (tears worker processes
  /// down on backends that spawned them).
  ~Engine() override;

  const Topology& topology() const { return topology_; }
  std::uint64_t num_machines() const { return topology_.num_machines; }
  const exec::Executor& executor() const { return *executor_; }

  /// Registered round callback: the machine context plus the invoke
  /// parameters (small per-invocation words, e.g. iteration number or a
  /// packed probability — the coordinator ships them to every worker).
  using RoundFn =
      std::function<void(MachineContext&, std::span<const Word>)>;

  /// Registers a round for the job. All rounds must be defined before
  /// the first invoke_round (worker-backed executors snapshot the
  /// registry when the job starts); definition after that throws.
  /// `label` names the phase in the execution trace each time the round
  /// is invoked.
  ///
  /// Under the process backend the non-central machines run `fn` in
  /// worker processes forked at job start, which see nothing of
  /// coordinator memory after that. So `fn` may touch only: job-immutable
  /// data captured before the first invoke_round (the graph, parameters,
  /// an unforked root Rng copy); per-machine state that only that
  /// machine's own callbacks mutate (owner-strided vector slots); and its
  /// invoke parameters, its inbox, and RNG streams derived from (round,
  /// machine id). A driver that keeps to this is *process-clean*: its
  /// results are bit-identical on every backend.
  RoundId define_round(std::string label, RoundFn fn);

  /// Execute one synchronous round of a registered callback. The first
  /// invocation starts the job on the executor (spawning persistent
  /// workers under the process backend). `params` is broadcast to every
  /// machine's callback.
  void invoke_round(RoundId round, std::span<const Word> params = {});
  void invoke_round(RoundId round, std::initializer_list<Word> params);

  /// Run a round in which only the central machine does work (the
  /// paper's blue lines). The central machine always lives in the
  /// coordinator, so `fn` may read and write any host state. Every other
  /// machine's inbox is consumed without running code.
  void run_central_round(std::string_view label,
                         const std::function<void(MachineContext&)>& fn);

  const Metrics& metrics() const { return metrics_; }

  /// Control-plane peek at delivered traffic: total words (O(1)) and
  /// message count in the inbox machine m will read in the round now
  /// starting. Between rounds this is the coordinator's merged view, so
  /// it is identical across every backend; host code steers with these
  /// (e.g. a sampling fail check, a "did anyone send?" termination test)
  /// without breaking the process-clean contract. Throws
  /// std::out_of_range for machine ids outside [0, num_machines()).
  std::uint64_t inbox_words(MachineId m) const;
  std::uint64_t inbox_size(MachineId m) const;

 private:
  friend class MachineContext;
  friend class MessageWriter;
  friend class InboxView;

  /// ShardJobPlane, coordinator -> worker: per machine, the delivered
  /// word total and frame count, then each message as (sender, length,
  /// payload words). apply_round_input rebuilds the worker-local inbox
  /// index and slabs from the bytes and resets the range's per-round
  /// scratch.
  void serialize_round_input(std::uint64_t first, std::uint64_t last,
                             std::vector<std::byte>& out) const override;
  void apply_round_input(std::uint64_t first, std::uint64_t last,
                         std::span<const std::byte> bytes) override;

  /// ShardJobPlane, worker -> coordinator: per machine, the accounting
  /// slots (outbox words, resident words, writer-open flag) followed by
  /// the staged frame index and the arena word buffer verbatim (the flat
  /// slab layout already is a wire format). After apply_machines
  /// installs a shard, the ordinary id-ordered merge proceeds unchanged.
  ///
  /// Both apply sides validate every field and throw
  /// exec::TransportError(kBadPayload) on malformed bytes.
  void serialize_machines(std::uint64_t first, std::uint64_t last,
                          std::vector<std::byte>& out) const override;
  void apply_machines(std::uint64_t first, std::uint64_t last,
                      std::span<const std::byte> bytes) override;

  void run_registered(std::uint64_t round_id, std::uint64_t machine,
                      std::span<const std::uint64_t> params) override;
  std::uint64_t registered_rounds() const override {
    return rounds_.size();
  }
  std::string_view round_label(std::uint64_t i) const override {
    return rounds_[i].label;
  }

  void check_machine_id(MachineId m, const char* what) const;

  /// The round skeleton shared by invoke_round and run_central_round:
  /// resets per-round scratch, runs `dispatch` (the callbacks), then
  /// merges staged frames, records metrics, audits space, and delivers.
  void round_body(std::string_view label, bool central_only,
                  const std::function<void()>& dispatch);

  /// One message in a sender's staging arena: destination plus the
  /// [offset, offset+len) extent in that arena's word buffer.
  struct Frame {
    MachineId to;
    std::uint64_t offset;
    std::uint64_t len;
  };

  /// Per-sender round arena: one flat word buffer plus the frame index.
  /// Buffers keep their capacity across rounds, so steady-state rounds
  /// allocate nothing.
  struct Outbox {
    std::vector<Word> words;
    std::vector<Frame> frames;
  };

  /// Inbox index entry: the message occupies
  /// slabs_[from].words[offset, offset+len).
  struct InboxFrame {
    MachineId from;
    std::uint64_t offset;
    std::uint64_t len;
  };

  /// Zero-copy view of delivered message i of machine m.
  MessageView view_message(MachineId m, std::size_t i) const {
    const InboxFrame& f = inbox_frames_[m][i];
    return {f.from, {slabs_[f.from].words.data() + f.offset,
                     static_cast<std::size_t>(f.len)}};
  }

  Topology topology_;
  std::shared_ptr<exec::Executor> executor_;
  Metrics metrics_;
  /// Rounds registered via define_round; frozen once the job starts
  /// (worker processes inherit the registry at spawn, so it must never
  /// change afterwards).
  struct Registered {
    std::string label;
    RoundFn fn;
  };
  std::vector<Registered> rounds_;
  bool job_started_ = false;
  // staging_[m] = machine m's outgoing arena for the current round; only
  // machine m's callback (its sends and writers) touches it, so sends
  // never contend. After the barrier the arenas are merged by frame
  // index and then moved wholesale into slabs_.
  std::vector<Outbox> staging_;
  // slabs_[s] = sender s's arena from the previous round, backing this
  // round's inboxes. Spent slabs are recycled as staging buffers.
  std::vector<Outbox> slabs_;
  // inbox_frames_[m] = this round's messages for machine m, in
  // (sender id, send order) order; words live in slabs_.
  std::vector<std::vector<InboxFrame>> inbox_frames_;
  std::vector<std::uint64_t> inbox_words_;  // per-destination totals
  // Merge scratch for the next round's inbox index.
  std::vector<std::vector<InboxFrame>> next_frames_;
  std::vector<std::uint64_t> next_inbox_words_;
  // writer_open_[m] = machine m has a live MessageWriter (its frame is
  // still growing, so no other send may interleave).
  std::vector<char> writer_open_;
  // Per-round scratch, reset in round_body; slot m is written only by
  // machine m's callback.
  std::vector<std::uint64_t> outbox_words_;
  std::vector<std::uint64_t> resident_words_;
};

// ------------------------------------------------------------ inline --
// Hot-path members live here so shuffle-heavy algorithm loops inline
// them; everything below only touches the calling machine's slots.

inline MessageView InboxView::operator[](std::size_t i) const {
  return engine_->view_message(m_, i);
}

inline std::size_t InboxView::size() const {
  return engine_->inbox_frames_[m_].size();
}

inline MessageView InboxView::iterator::operator*() const {
  return engine_->view_message(m_, i_);
}

inline InboxView MachineContext::messages() const {
  return InboxView(engine_, id_);
}

inline std::size_t MachineContext::inbox_size() const {
  return engine_.inbox_frames_[id_].size();
}

inline MessageView MachineContext::message(std::size_t i) const {
  return engine_.view_message(id_, i);
}

inline std::uint64_t MachineContext::inbox_words() const {
  return engine_.inbox_words_[id_];
}

inline MessageWriter::MessageWriter(Engine& engine, MachineId from,
                                    MachineId to)
    : engine_(&engine), from_(from), to_(to),
      begin_(engine.staging_[from].words.size()),
      uncaught_on_open_(std::uncaught_exceptions()) {
  engine.writer_open_[from] = 1;
}

inline MessageWriter::~MessageWriter() {
  if (done_) return;
  if (std::uncaught_exceptions() > uncaught_on_open_) {
    // Dying on the unwind path: roll the partial message back.
    cancel();
    return;
  }
  Engine::Outbox& out = engine_->staging_[from_];
  const std::uint64_t len = out.words.size() - begin_;
  out.frames.push_back({to_, begin_, len});
  engine_->outbox_words_[from_] += len;
  engine_->writer_open_[from_] = 0;
}

inline void MessageWriter::push(Word w) {
  MRLR_DEBUG_REQUIRE(!done_, "MessageWriter: push after cancel");
  engine_->staging_[from_].words.push_back(w);
}

inline void MessageWriter::append(std::span<const Word> words) {
  MRLR_DEBUG_REQUIRE(!done_, "MessageWriter: append after cancel");
  auto& buf = engine_->staging_[from_].words;
  buf.insert(buf.end(), words.begin(), words.end());
}

inline std::uint64_t MessageWriter::size() const {
  MRLR_DEBUG_REQUIRE(!done_, "MessageWriter: size after cancel");
  return engine_->staging_[from_].words.size() - begin_;
}

inline void MessageWriter::cancel() {
  engine_->staging_[from_].words.resize(begin_);
  engine_->writer_open_[from_] = 0;
  done_ = true;
}

}  // namespace mrlr::mrc
