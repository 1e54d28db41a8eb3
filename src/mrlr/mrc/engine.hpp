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
// persistent worker processes spawned once per job. There, messages
// cross the wire as records through the engine's ShardJobPlane
// implementation: each worker buckets its sends by destination shard
// and sends the shard-0 bucket to the coordinator and every other bucket
// straight to its destination worker, and a worker's inbox is the
// coordinator's record stream plus those peer buckets, assembled at the
// next round's start. Either way the
// simulation is deterministic: each machine's sends append only to its
// own staging arena, and every inbox holds its messages in (sender id,
// send order) order — by the id-ordered merge after the round barrier,
// or because shards are contiguous id ranges assembled in shard order —
// so traces, metrics, and SpaceLimitExceeded behavior are
// byte-identical across backends, thread counts, and shard counts.
// A round whose callbacks throw delivers nothing and is not recorded:
// every machine's sends of that round are discarded on every backend,
// so a driver that catches the error may run the round again.
// Since the quantities the paper bounds are rounds and words (not
// wall-clock), the backend is irrelevant to the measured results;
// determinism makes every experiment replayable from its seed.
//
// Message storage (the flat-buffer shuffle): each machine's staging slot
// is one contiguous Word buffer plus a small (to, offset, len) frame
// index — no per-message heap allocation. The post-barrier merge builds
// per-destination frame indexes in sender-id order and then moves the
// arena slabs wholesale into the delivered position; payload words are
// written exactly once, at send time (coalesced words twice: into the
// run, then into the arena when the run is framed). Callbacks read their
// inbox as MessageView spans into the senders' slabs via messages().
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
//
// Coalesced sends (MachineContext::send_coalesced) append words to the
// sending machine's run for a destination instead of framing a message
// per call. When the callback returns, the engine frames each non-empty
// run as one message, after that callback's plain sends and in ascending
// destination order; a callback that throws delivers no part of its
// runs. A receiver therefore sees one message per (sender, destination)
// holding the appended words in append order, which is only the same
// traffic to a receiver that parses its inbox as a flat run of
// fixed-width records. Words, rounds and space accounting are those of
// the equivalent plain sends; only the message count falls.

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
  /// payload (any contiguous range) is copied once into this machine's
  /// staging arena and not consumed — callers may reuse their buffer.
  void send(MachineId to, std::span<const Word> payload);
  void send(MachineId to, std::initializer_list<Word> payload);

  /// Coalesced send: appends `words` to this machine's run for `to`.
  /// When the callback returns, each non-empty run becomes one message,
  /// framed after the callback's plain sends, in ascending destination
  /// order; boundaries between appends are not kept, so use it only
  /// towards receivers that parse a flat run of fixed-width records. A
  /// callback that throws delivers no part of its runs. One append is
  /// capped at 2^32 - 1 words.
  void send_coalesced(MachineId to, std::span<const Word> words);
  void send_coalesced(MachineId to, std::initializer_list<Word> words);

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

  /// ShardJobPlane (see exec/executor.hpp for the round protocol). One
  /// record encoding (from, to, len as u32 lanes, then the payload
  /// words) carries messages in every direction:
  ///   * kRoundControl for worker shard B: the first generation B must
  ///     keep, and a reuse flag (set when nothing was delivered since
  ///     B's last input: B keeps the inbox it installed); otherwise the
  ///     segment table (per segment: coordinator bytes, then the
  ///     generation whose peer buckets follow them, 0 for none), per
  ///     machine of B its inbox frame count and word total, and the
  ///     coordinator's records;
  ///   * kShardData from worker shard A: per machine of A, its outbox
  ///     words, resident words and writer-open flag; per destination
  ///     machine of the job, the frame count and word total A sent it;
  ///     the bucket count K and K bucket byte lengths; then the bucket
  ///     of records bound for shard 0, in sender-id then send order;
  ///   * kPeerBucket from A to B: A's bucket for B (serialize_machines'
  ///     part B), which B files under its generation (job_rounds_).
  /// The coordinator decodes the shard-0 bucket into staging_, so the
  /// id-ordered merge sees those frames as it would in-process, and
  /// adds the other destinations' totals to next round's inputs. Both
  /// apply sides validate every field and throw
  /// exec::TransportError(kBadPayload) on malformed bytes; a worker
  /// checks the records it assembled against the totals the
  /// coordinator shipped for its range.
  void set_shards(std::span<const std::uint64_t> bounds,
                  std::uint32_t own) override;
  void serialize_round_input(
      std::uint32_t shard, std::vector<std::byte>& out,
      std::vector<std::span<const std::byte>>& stream) override;
  void peer_generations(std::span<const std::byte> bytes,
                        std::vector<std::uint64_t>& generations,
                        std::uint64_t& keep_from) const override;
  void apply_round_input(std::span<const std::byte> bytes,
                         const exec::PeerBucketFn& buckets) override;
  void serialize_machines(
      std::vector<std::vector<std::byte>>& parts) override;
  void route_local_sends() override;
  void apply_machines(std::uint32_t shard,
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

  /// Runs machine m's callback `fn`, then frames m's coalesced runs; if
  /// `fn` throws, the runs are dropped and the exception propagates.
  template <class Fn>
  void run_callback(MachineId m, Fn&& fn);

  /// The round skeleton shared by invoke_round and run_central_round:
  /// resets per-round scratch, runs `dispatch` (the callbacks), then
  /// merges staged frames, records metrics, audits space, and delivers.
  /// If `dispatch` throws, the round is discarded (discard_round) and
  /// the exception propagates.
  void round_body(std::string_view label, bool central_only,
                  const std::function<void()>& dispatch);

  /// Undoes every send of the round whose dispatch threw, on every
  /// machine: staged frames and runs, and (on a routed coordinator) the
  /// records and peer-bucket generations it added to the worker
  /// streams, back to the marks round_body took before dispatching.
  /// Traffic pending from before the round stays pending.
  void discard_round();

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

  /// One send_coalesced append, in append order: `len` words of the
  /// run buffer, bound for `to`.
  struct Piece {
    MachineId to;
    std::uint32_t len;
  };

  /// A machine's coalesced runs while its callback runs: the appended
  /// words and their pieces, emptied when the callback returns. Buffers
  /// keep their capacity across rounds.
  struct Runs {
    std::vector<Word> words;
    std::vector<Piece> pieces;
  };

  /// Frames machine m's runs into its staging arena, one message per
  /// destination in ascending destination order, and empties them.
  void frame_runs(MachineId m);

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

  /// True on a coordinator whose job is split across worker shards:
  /// destinations at or above local_end_ live in workers.
  bool routed() const { return local_end_ < topology_.num_machines; }

  /// A worker shard's record stream on the coordinator: records
  /// encoded here (shard 0's sends, or inboxes adopted at set_shards)
  /// in `owned`, and where the peer buckets of each round go between
  /// them. Segment i is owned[segments[i-1].end, segments[i].end)
  /// followed by the buckets every worker sent in generation
  /// `generation` (0: none), in shard order.
  struct Stream {
    struct Segment {
      std::uint64_t end;
      std::uint64_t generation;
    };
    std::vector<std::byte> owned;
    std::vector<Segment> segments;

    /// Appends `bytes` owned bytes and returns where to write them.
    std::byte* append(std::uint64_t bytes);
    /// Places generation `generation`'s peer buckets after everything
    /// appended so far (once per generation).
    void add_generation(std::uint64_t generation);
    void clear() {
      owned.clear();
      segments.clear();
    }

    /// How far the stream reached: rewind(mark()) drops whatever is
    /// appended or placed after the mark was taken.
    struct Mark {
      std::uint64_t owned = 0;
      std::size_t segments = 0;
      Segment back{};
    };
    Mark mark() const {
      return {owned.size(), segments.size(),
              segments.empty() ? Segment{} : segments.back()};
    }
    void rewind(const Mark& m) {
      owned.resize(m.owned);
      segments.resize(m.segments);
      if (!segments.empty()) segments.back() = m.back;
    }
  };

  /// Coordinator, at set_shards: re-encodes the in-process inbox index
  /// `frames` (words in `arenas`) of every worker machine as records on
  /// `streams`, counting its messages in `counts`.
  void adopt_worker_inboxes(std::vector<std::vector<InboxFrame>>& frames,
                            const std::vector<Outbox>& arenas,
                            std::vector<Stream>& streams,
                            std::vector<std::uint64_t>& counts);

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
  // Registered rounds run so far in the job. The process backend names
  // a round's peer buckets by it (their generation); unlike the round
  // index, it never repeats, even when a round throws before it is
  // recorded.
  std::uint64_t job_rounds_ = 0;
  // staging_[m] = machine m's outgoing arena for the current round; only
  // machine m's callback (its sends and writers) touches it, so sends
  // never contend. After the barrier the arenas are merged by frame
  // index and then moved wholesale into slabs_.
  std::vector<Outbox> staging_;
  // slabs_[s] = sender s's arena from the previous round, backing this
  // round's inboxes. Spent slabs are recycled as staging buffers.
  std::vector<Outbox> slabs_;
  // runs_[m] = machine m's coalesced runs; empty outside m's callback.
  std::vector<Runs> runs_;
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
  // Shard routing under the process backend (set_shards); in-process
  // engines keep local_end_ = num_machines and leave the rest empty.
  // shard_bounds_ = the K + 1 shard boundaries, own_shard_ = the shard
  // this process serves, shard_of_[m] = the shard owning machine m.
  std::vector<std::uint64_t> shard_bounds_;
  std::uint32_t own_shard_ = 0;
  std::vector<std::uint32_t> shard_of_;
  std::uint64_t local_end_ = 0;
  // Coordinator: stream_[b] = worker shard b's records for this round,
  // next_stream_[b] = those being collected for the next one. Records
  // only append, so after a SpaceLimitExceeded the pending generation
  // is delivered ahead of the next one, as next_frames_ is in-process.
  std::vector<Stream> stream_;
  std::vector<Stream> next_stream_;
  // Coordinator: deliveries_ counts routed deliveries; installed_[b] is
  // its value when worker shard b last received an input, so a round
  // that follows no delivery tells the worker to keep its inbox.
  std::uint64_t deliveries_ = 0;
  std::vector<std::uint64_t> installed_;
  // Coordinator: message counts of worker machines, whose inbox index
  // lives in the worker (inbox_words_ covers every machine).
  std::vector<std::uint64_t> inbox_count_;
  std::vector<std::uint64_t> next_inbox_count_;
  // Marks taken before each dispatch, for discard_round: the staged
  // words per machine (words of a round whose audit threw stay there,
  // pending) and, on a routed coordinator, the worker streams and the
  // worker machines' pending totals.
  std::vector<std::uint64_t> staged_mark_;
  std::vector<Stream::Mark> stream_mark_;
  std::vector<std::uint64_t> count_mark_;
  std::vector<std::uint64_t> words_mark_;
  // Per-destination frame and word totals: built by serialize_machines,
  // read and checked by apply_machines and apply_round_input.
  std::vector<std::uint64_t> route_frames_;
  std::vector<std::uint64_t> route_words_;
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

inline void MachineContext::send_coalesced(MachineId to,
                                           std::span<const Word> words) {
  MRLR_REQUIRE(to < engine_.num_machines(), "send to nonexistent machine");
  MRLR_REQUIRE(!engine_.writer_open_[id_],
               "send while this machine's MessageWriter is open");
  MRLR_REQUIRE(words.size() <= UINT32_MAX,
               "send_coalesced: one append exceeds 2^32 - 1 words");
  if (words.empty()) return;
  Engine::Runs& r = engine_.runs_[id_];
  r.words.insert(r.words.end(), words.begin(), words.end());
  const auto len = static_cast<std::uint32_t>(words.size());
  if (!r.pieces.empty() && r.pieces.back().to == to &&
      r.pieces.back().len <= UINT32_MAX - len) {
    r.pieces.back().len += len;
  } else {
    r.pieces.push_back({to, len});
  }
}

inline void MachineContext::send_coalesced(MachineId to,
                                           std::initializer_list<Word> words) {
  send_coalesced(to, std::span<const Word>(words.begin(), words.size()));
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
