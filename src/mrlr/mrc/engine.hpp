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
// A round that throws ends the job. Whatever threw — the space audit, a
// machine's callback, the job start, a worker or the transport — the
// engine delivers nothing more and refuses every later invoke_round and
// run_central_round with a std::logic_error naming the round that
// failed first; the destructor still ends the job and reaps every
// worker. The paper's algorithms run a fixed schedule of rounds under a
// hard space bound, so a run past a failed round models nothing.
// Since the quantities the paper bounds are rounds and words (not
// wall-clock), the backend is irrelevant to the measured results;
// determinism makes every experiment replayable from its seed.
//
// Message storage (the flat-buffer shuffle): each machine's staging slot
// is one contiguous Word buffer for its plain sends, one run buffer per
// destination of its coalesced sends, and a small (to, buffer, offset,
// len) frame index — no per-message heap allocation. The post-barrier
// merge builds per-destination frame indexes in sender-id order and then
// moves the slots wholesale into the delivered position; payload words
// are written exactly once, at send time, coalesced ones included.
// Callbacks read their inbox as MessageView spans into the senders' slabs
// via messages().
//
// Per-machine algorithm state is owned by the algorithms themselves
// (typically a std::vector sized by num_machines); the engine owns only
// the mailboxes and the cost accounting. Under a threaded backend, round
// callbacks must write only machine-disjoint algorithm state (per-machine
// slots or id-strided vector elements); shared reductions belong in
// messages to the central machine. A callback that builds a message word
// by word does so in a buffer of its own and hands it to send, which
// copies it into the machine's arena.
//
// Coalesced sends (MachineContext::send_coalesced) append words to the
// sending machine's run buffer for a destination instead of framing a
// message per call. When the callback returns, the engine frames each run
// in place as one message, after that callback's plain sends and in
// ascending destination order. A receiver therefore sees one message per
// (sender, destination) holding the appended words in append order,
// which is only the same traffic to a receiver that parses its inbox as
// a flat run of fixed-width records. Words, rounds and space accounting
// are those of the equivalent plain sends; only the message count falls.
// A machine opens one run per destination it appends to, so its runs
// never outnumber its frames.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <optional>
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
  /// towards receivers that parse a flat run of fixed-width records.
  void send_coalesced(MachineId to, std::span<const Word> words);
  void send_coalesced(MachineId to, std::initializer_list<Word> words);

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
  /// machine's callback. Throws std::logic_error, running nothing, once
  /// an earlier round call on this engine threw.
  void invoke_round(RoundId round, std::span<const Word> params = {});
  void invoke_round(RoundId round, std::initializer_list<Word> params);

  /// Run a round in which only the central machine does work (the
  /// paper's blue lines). The central machine always lives in the
  /// coordinator, so `fn` may read and write any host state. Every other
  /// machine's inbox is consumed without running code. Refuses to run
  /// after a failed round, as invoke_round does.
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
  friend class InboxView;

  /// ShardJobPlane (see exec/executor.hpp for the round protocol). One
  /// record encoding (from, to, len as u32 lanes, then the payload
  /// words) carries messages in every direction:
  ///   * kRoundControl for worker shard B: the generation whose peer
  ///     buckets follow the coordinator's records in B's inbox (0 for
  ///     none: the last round was a central round, or the first), per
  ///     machine of B its inbox frame count and word total, and the
  ///     coordinator's records;
  ///   * kShardData from worker shard A: per machine of A, its outbox
  ///     words and resident words; per destination machine of the job,
  ///     the frame count and word total A sent it; the bucket count K
  ///     and K bucket byte lengths; then the bucket of records bound for
  ///     shard 0, in sender-id then send order;
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
  std::uint64_t peer_generation(
      std::span<const std::byte> bytes) const override;
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

  /// Runs `round` (a whole round call, job start included) unless an
  /// earlier round call threw; if `round` throws, records it as the
  /// failed round and lets the exception propagate.
  template <class Round>
  void run_guarded(std::string_view label, Round&& round);

  /// The round skeleton shared by invoke_round and run_central_round:
  /// resets per-round scratch, runs `dispatch` (the callbacks), then
  /// merges staged frames, records metrics, audits space, and delivers.
  void round_body(std::string_view label, bool central_only,
                  const std::function<void()>& dispatch);

  /// One message in a sender's outbox: destination plus the
  /// [offset, offset+len) extent of buffer `buf` (see Outbox::data).
  struct Frame {
    MachineId to;
    std::uint32_t buf;
    std::uint64_t offset;
    std::uint64_t len;
  };

  /// Per-sender round outbox: the plain-send arena, the coalesced runs
  /// (runs[i] holds the words appended for run_to[i]; buffers past
  /// run_to.size() are empty spares) and the frame index. Buffers keep
  /// their capacity across rounds, so steady-state rounds allocate
  /// nothing.
  struct Outbox {
    std::vector<Word> words;
    std::vector<std::vector<Word>> runs;
    std::vector<MachineId> run_to;
    std::vector<Frame> frames;

    /// Where a message starts: buffer 0 is the arena, buffer i + 1 run i.
    const Word* data(std::uint32_t buf, std::uint64_t offset) const {
      return (buf == 0 ? words.data() : runs[buf - 1].data()) + offset;
    }
    /// This round's run for `to`, opened on its first append.
    std::vector<Word>& run(MachineId to);
    /// Empties the arena, the runs and the index, keeping capacity.
    void clear();
  };

  /// Frames machine m's runs in place, one message per destination in
  /// ascending destination order, after its plain sends.
  void frame_runs(MachineId m);

  /// Inbox index entry: the message occupies
  /// slabs_[from].data(buf, offset)[0, len).
  struct InboxFrame {
    MachineId from;
    std::uint32_t buf;
    std::uint64_t offset;
    std::uint64_t len;
  };

  /// Zero-copy view of delivered message i of machine m.
  MessageView view_message(MachineId m, std::size_t i) const {
    const InboxFrame& f = inbox_frames_[m][i];
    return {f.from, {slabs_[f.from].data(f.buf, f.offset),
                     static_cast<std::size_t>(f.len)}};
  }

  /// True on a coordinator whose job is split across worker shards:
  /// destinations at or above local_end_ live in workers.
  bool routed() const { return local_end_ < topology_.num_machines; }

  /// A worker shard's round input on the coordinator: the records
  /// encoded here (shard 0's sends, or inboxes adopted at set_shards),
  /// then the peer buckets every worker sent it in generation
  /// `generation` (0: none), in shard order. That order is sender-id
  /// order, as every round routes shard 0's sends before it applies
  /// any worker's data.
  struct Stream {
    std::vector<std::byte> records;
    std::uint64_t generation = 0;
  };

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
  // Empty until a round call throws; then it names that round, and
  // every later round call throws std::logic_error carrying it.
  std::string failed_round_;
  // Registered rounds run so far in the job. The process backend names
  // a round's peer buckets by it (their generation): a worker counts
  // the round controls it serves, and sees no central round.
  std::uint64_t job_rounds_ = 0;
  // Telemetry only: this process's minor-fault count when the engine
  // was built or its last round ended, so each round's delta also
  // covers the host code before it.
  std::optional<std::uint64_t> fault_mark_;
  // staging_[m] = machine m's outbox for the current round; only
  // machine m's sends touch it, so sends never contend. After the
  // barrier the outboxes are merged by frame index and then moved
  // wholesale into slabs_.
  std::vector<Outbox> staging_;
  // slabs_[s] = sender s's outbox from the previous round, backing this
  // round's inboxes. Spent slabs are recycled as staging buffers.
  std::vector<Outbox> slabs_;
  // inbox_frames_[m] = this round's messages for machine m, in
  // (sender id, send order) order; words live in slabs_.
  std::vector<std::vector<InboxFrame>> inbox_frames_;
  std::vector<std::uint64_t> inbox_words_;  // per-destination totals
  // Merge scratch for the next round's inbox index.
  std::vector<std::vector<InboxFrame>> next_frames_;
  std::vector<std::uint64_t> next_inbox_words_;
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
  // Coordinator: stream_[b] = worker shard b's input for this round,
  // next_stream_[b] = the one being collected for the next.
  std::vector<Stream> stream_;
  std::vector<Stream> next_stream_;
  // Coordinator: message counts of worker machines, whose inbox index
  // lives in the worker (inbox_words_ covers every machine).
  std::vector<std::uint64_t> inbox_count_;
  std::vector<std::uint64_t> next_inbox_count_;
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

inline std::uint64_t MachineContext::inbox_words() const {
  return engine_.inbox_words_[id_];
}

namespace detail {
/// Per-thread hint for Outbox::run: at[to] is the run a machine last
/// opened for `to` on this thread. A callback runs start to finish on
/// one thread, so within it the hint is exact; across callbacks (or
/// engines) it may be stale, so the outbox's own run_to decides.
struct RunHints {
  std::uint32_t* at = nullptr;
  std::size_t size = 0;
};
constinit inline thread_local RunHints run_hints;
/// Grows this thread's hints to cover destinations below `machines`.
void grow_run_hints(std::size_t machines);
}  // namespace detail

inline std::vector<Word>& Engine::Outbox::run(MachineId to) {
  detail::RunHints& hints = detail::run_hints;
  if (to >= hints.size) detail::grow_run_hints(std::size_t{to} + 1);
  std::uint32_t& i = hints.at[to];
  if (i >= run_to.size() || run_to[i] != to) {
    i = static_cast<std::uint32_t>(run_to.size());
    run_to.push_back(to);
    if (runs.size() == i) runs.emplace_back();
  }
  return runs[i];
}

inline void MachineContext::send_coalesced(MachineId to,
                                           std::span<const Word> words) {
  MRLR_REQUIRE(to < engine_.num_machines(), "send to nonexistent machine");
  if (words.empty()) return;
  std::vector<Word>& run = engine_.staging_[id_].run(to);
  run.insert(run.end(), words.begin(), words.end());
}

inline void MachineContext::send_coalesced(MachineId to,
                                           std::initializer_list<Word> words) {
  send_coalesced(to, std::span<const Word>(words.begin(), words.size()));
}

}  // namespace mrlr::mrc
