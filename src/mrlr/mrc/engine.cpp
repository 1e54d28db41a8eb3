#include "mrlr/mrc/engine.hpp"

#include <algorithm>
#include <cstring>

#include "mrlr/exec/shard_transport.hpp"
#include "mrlr/obs/telemetry.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::mrc {

SpaceLimitExceeded::SpaceLimitExceeded(std::string what, std::uint64_t words_,
                                       std::uint64_t cap_)
    : std::runtime_error(std::move(what)), words(words_), cap(cap_) {}

std::uint64_t MachineContext::num_machines() const {
  return engine_.num_machines();
}

const std::vector<Message>& MachineContext::inbox() const {
  return engine_.materialized_inbox(id_);
}

void MachineContext::send(MachineId to, const std::vector<Word>& payload) {
  send_batch(to, payload);
}

void MachineContext::send(MachineId to, std::initializer_list<Word> payload) {
  send_batch(to, std::span<const Word>(payload.begin(), payload.size()));
}

void MachineContext::send_batch(MachineId to, std::span<const Word> payload) {
  MRLR_REQUIRE(to < engine_.num_machines(), "send to nonexistent machine");
  MRLR_REQUIRE(!engine_.writer_open_[id_],
               "send while this machine's MessageWriter is open");
  Engine::Outbox& out = engine_.staging_[id_];
  const std::uint64_t offset = out.words.size();
  out.words.insert(out.words.end(), payload.begin(), payload.end());
  out.frames.push_back({to, offset, payload.size()});
  engine_.outbox_words_[id_] += payload.size();
}

MessageWriter MachineContext::begin_message(MachineId to) {
  MRLR_REQUIRE(to < engine_.num_machines(), "send to nonexistent machine");
  MRLR_REQUIRE(!engine_.writer_open_[id_],
               "at most one MessageWriter per machine may be open");
  return MessageWriter(engine_, id_, to);
}

void MachineContext::charge_resident(std::uint64_t words) {
  engine_.resident_words_[id_] =
      std::max(engine_.resident_words_[id_], words);
}

Engine::Engine(Topology topology)
    : Engine(topology, exec::make_executor(topology.num_threads,
                                           topology.num_shards)) {}

Engine::Engine(Topology topology, std::shared_ptr<exec::Executor> executor)
    : topology_(topology), executor_(std::move(executor)) {
  MRLR_REQUIRE(topology_.num_machines >= 1, "need at least one machine");
  MRLR_REQUIRE(topology_.fanout >= 2, "broadcast fanout must be >= 2");
  MRLR_REQUIRE(executor_ != nullptr, "engine needs an executor");
  const std::uint64_t machines = topology_.num_machines;
  staging_.resize(machines);
  slabs_.resize(machines);
  inbox_frames_.resize(machines);
  inbox_words_.assign(machines, 0);
  next_frames_.resize(machines);
  next_inbox_words_.assign(machines, 0);
  writer_open_.assign(machines, 0);
  outbox_words_.assign(machines, 0);
  resident_words_.assign(machines, 0);
  inbox_cache_.resize(machines);
  inbox_cache_valid_.assign(machines, 0);
  pending_cache_.resize(machines);
}

Engine::~Engine() {
  if (job_started_) {
    // end_job must not throw (Executor contract); belt and braces for a
    // destructor anyway.
    try {
      executor_->end_job();
    } catch (...) {
    }
  }
}

RoundId Engine::define_round(std::string label, RoundFn fn) {
  MRLR_REQUIRE(!job_started_,
               "define_round after the job started: worker processes "
               "snapshot the round registry at spawn");
  MRLR_REQUIRE(fn != nullptr, "define_round needs a callback");
  rounds_.push_back(Registered{std::move(label), std::move(fn)});
  return static_cast<RoundId>(rounds_.size() - 1);
}

void Engine::invoke_round(RoundId round, std::span<const Word> params) {
  MRLR_REQUIRE(round < rounds_.size(), "invoke_round: undefined round id");
  if (!job_started_) {
    job_started_ = true;
    executor_->start_job(topology_.num_machines, this);
  }
  round_body(rounds_[round].label, /*central_only=*/false, [&] {
    executor_->run_job_round(
        round, params, topology_.num_machines,
        [&](std::uint64_t m) { run_registered(round, m, params); }, this);
  });
}

void Engine::invoke_round(RoundId round, std::initializer_list<Word> params) {
  invoke_round(round, std::span<const Word>(params.begin(), params.size()));
}

void Engine::run_round(std::string_view label,
                       const std::function<void(MachineContext&)>& fn) {
  run_round_impl(label, fn, /*central_only=*/false);
}

void Engine::run_round_impl(std::string_view label,
                            const std::function<void(MachineContext&)>& fn,
                            bool central_only) {
  round_body(label, central_only, [&] {
    // The sharded entry point: in-process backends fall through to
    // plain run_machines; the process backend rejects ad-hoc sharded
    // rounds (persistent workers only run registered rounds).
    // Central-only rounds pass no data plane — the central machine
    // always lives in the coordinator process and every other callback
    // is a no-op, so there is nothing to ship.
    executor_->run_machines_sharded(
        0, topology_.num_machines,
        [&](std::uint64_t m) {
          MachineContext ctx(*this, static_cast<MachineId>(m));
          fn(ctx);
        },
        central_only ? nullptr : this);
  });
}

void Engine::round_body(std::string_view label, bool central_only,
                        const std::function<void()>& dispatch) {
  std::fill(outbox_words_.begin(), outbox_words_.end(), 0);
  std::fill(resident_words_.begin(), resident_words_.end(), 0);

  // Telemetry never touches the data plane: when disabled the only cost
  // is one relaxed load, and when enabled it only samples clocks, so
  // traces, metrics, and hashes stay byte-identical either way.
  obs::Telemetry& tel = obs::Telemetry::instance();
  const bool telemetry = tel.enabled();
  const std::uint64_t round_ix = metrics_.rounds();
  const std::uint64_t round_start = telemetry ? tel.now_ns() : 0;
  std::uint64_t t0 = round_start;

  const auto machines = static_cast<MachineId>(topology_.num_machines);
  dispatch();
  if (telemetry) {
    tel.record_span(
        central_only ? obs::Phase::kCentral : obs::Phase::kCallback, t0,
        tel.now_ns(), round_ix, std::string(label));
    t0 = tel.now_ns();
  }

  // Merge staged frames in sender-id order: delivery order — and with
  // it every downstream inbox scan — matches the sequential simulation
  // regardless of which threads ran which machines. Only the frame
  // indexes move here; payload words stay where the senders wrote them.
  for (MachineId s = 0; s < machines; ++s) {
    MRLR_REQUIRE(!writer_open_[s],
                 "MessageWriter left open across the round barrier");
    for (const Frame& f : staging_[s].frames) {
      next_frames_[f.to].push_back({s, f.offset, f.len});
      next_inbox_words_[f.to] += f.len;
    }
    // Consumed before the audit can throw: if this round violates the
    // cap, a subsequent round must not re-merge (and double-deliver)
    // these frames. The payload words stay put — next_frames_ points
    // into them (pending_inbox reads them, and delivery will move the
    // slab wholesale next round).
    staging_[s].frames.clear();
  }
  if (telemetry) {
    tel.record_span(obs::Phase::kArenaMerge, t0, tel.now_ns(), round_ix);
  }

  RoundMetrics rm;
  rm.label = std::string(label);
  bool violated = false;
  std::uint64_t offender_words = 0;
  MachineId offender = 0;
  for (MachineId m = 0; m < machines; ++m) {
    const std::uint64_t in = inbox_words_[m];
    rm.max_inbox = std::max(rm.max_inbox, in);
    rm.max_outbox = std::max(rm.max_outbox, outbox_words_[m]);
    rm.max_resident = std::max(rm.max_resident, resident_words_[m]);
    rm.total_sent += outbox_words_[m];
    if (m == kCentral) rm.central_inbox = in;
    const std::uint64_t peak = std::max({in, outbox_words_[m],
                                         resident_words_[m]});
    if (peak > topology_.words_per_machine && !violated) {
      violated = true;
      offender = m;
      offender_words = peak;
    }
  }
  rm.space_violation = violated;
  metrics_.record(rm);
  if (violated && topology_.enforce) {
    // Delivery is skipped: the staged arenas stay pending, observable
    // through pending_inbox for post-mortem inspection.
    throw SpaceLimitExceeded(
        "machine " + std::to_string(offender) + " used " +
            std::to_string(offender_words) + " words in round '" +
            std::string(label) + "' (cap " +
            std::to_string(topology_.words_per_machine) + ")",
        offender_words, topology_.words_per_machine);
  }

  // Deliver: the staging arenas move wholesale into the slab role (no
  // payload copy), and the spent slabs — whose views died with this
  // round — are recycled as next round's staging buffers, keeping their
  // capacity so steady-state rounds never touch the allocator.
  staging_.swap(slabs_);
  if (telemetry) {
    // Recycled slabs that kept their capacity are the allocations
    // steady-state rounds avoid.
    std::uint64_t reused = 0;
    for (const Outbox& out : staging_) {
      if (out.words.capacity() > 0) ++reused;
    }
    tel.add_counter("engine.slab_reuses", reused);
    tel.add_counter("engine.rounds", 1);
  }
  for (Outbox& out : staging_) {
    out.words.clear();
    out.frames.clear();
  }
  inbox_frames_.swap(next_frames_);
  inbox_words_.swap(next_inbox_words_);
  for (MachineId m = 0; m < machines; ++m) {
    next_frames_[m].clear();
    next_inbox_words_[m] = 0;
  }
  std::fill(inbox_cache_valid_.begin(), inbox_cache_valid_.end(), 0);
  if (telemetry) {
    tel.record_span(obs::Phase::kRound, round_start, tel.now_ns(), round_ix,
                    std::string(label));
  }
}

void Engine::run_central_round(
    std::string_view label, const std::function<void(MachineContext&)>& fn) {
  run_round_impl(
      label,
      [&](MachineContext& ctx) {
        if (ctx.is_central()) fn(ctx);
      },
      /*central_only=*/true);
}

void Engine::materialize(const std::vector<InboxFrame>& frames,
                         const std::vector<Outbox>& arenas,
                         std::vector<Message>& out) {
  out.clear();
  out.reserve(frames.size());
  for (const InboxFrame& f : frames) {
    const Word* base = arenas[f.from].words.data() + f.offset;
    out.push_back(Message{f.from, std::vector<Word>(base, base + f.len)});
  }
}

const std::vector<Message>& Engine::materialized_inbox(MachineId m) const {
  if (!inbox_cache_valid_[m]) {
    materialize(inbox_frames_[m], slabs_, inbox_cache_[m]);
    inbox_cache_valid_[m] = 1;
  }
  return inbox_cache_[m];
}

void Engine::check_machine_id(MachineId m, const char* what) const {
  if (m >= num_machines()) {
    throw std::out_of_range(
        std::string("Engine::") + what + ": machine id " +
        std::to_string(m) + " out of range [0, " +
        std::to_string(num_machines()) + ")");
  }
}

const std::vector<Message>& Engine::pending_inbox(MachineId m) const {
  check_machine_id(m, "pending_inbox");
  materialize(next_frames_[m], staging_, pending_cache_[m]);
  return pending_cache_[m];
}

std::uint64_t Engine::inbox_words(MachineId m) const {
  check_machine_id(m, "inbox_words");
  return inbox_words_[m];
}

std::uint64_t Engine::inbox_size(MachineId m) const {
  check_machine_id(m, "inbox_size");
  return inbox_frames_[m].size();
}

// ----------------------------------------------- shard data plane --

namespace {

using exec::store_u64;

/// Grows `out` by `lanes` u64 lanes in one step and returns where they
/// start: the encoders size their output exactly, then store through a
/// moving pointer instead of growing the buffer field by field.
std::byte* grow(std::vector<std::byte>& out, std::uint64_t lanes) {
  const std::size_t start = out.size();
  out.resize(start + lanes * 8);
  return out.data() + start;
}

std::byte* store_words(std::byte* at, const Word* words,
                       std::uint64_t count) {
  if (count == 0) return at;
  std::memcpy(at, words, count * sizeof(Word));
  return at + count * sizeof(Word);
}

[[noreturn]] void bad_payload(const std::string& what) {
  throw exec::TransportError(exec::TransportError::Kind::kBadPayload,
                             "engine shard payload: " + what);
}

/// Cursor over the apply-side byte span; every read is bounds-checked
/// so truncated or adversarial payloads fail typed, never read OOB.
struct Cursor {
  std::span<const std::byte> in;

  std::uint64_t u64(const char* what) {
    if (in.size() < 8) bad_payload(std::string("truncated reading ") + what);
    const std::uint64_t v = exec::read_u64(in, 0);
    in = in.subspan(8);
    return v;
  }

  void words(std::vector<Word>& out, std::uint64_t count) {
    if (in.size() < count * sizeof(Word)) {
      bad_payload("truncated reading arena words");
    }
    out.resize(count);
    if (count > 0) {
      std::memcpy(out.data(), in.data(), count * sizeof(Word));
      in = in.subspan(count * sizeof(Word));
    }
  }
};

}  // namespace

void Engine::serialize_machines(std::uint64_t first, std::uint64_t last,
                                std::vector<std::byte>& out) const {
  // Per machine: 4 accounting/count lanes, 3 lanes per frame, the arena
  // word count, then the arena words verbatim.
  std::uint64_t lanes = 0;
  for (std::uint64_t m = first; m < last; ++m) {
    lanes += 5 + 3 * staging_[m].frames.size() + staging_[m].words.size();
  }
  std::byte* p = grow(out, lanes);
  for (std::uint64_t m = first; m < last; ++m) {
    const Outbox& o = staging_[m];
    p = store_u64(p, outbox_words_[m]);
    p = store_u64(p, resident_words_[m]);
    p = store_u64(p, writer_open_[m]);
    p = store_u64(p, o.frames.size());
    for (const Frame& f : o.frames) {
      p = store_u64(p, f.to);
      p = store_u64(p, f.offset);
      p = store_u64(p, f.len);
    }
    p = store_u64(p, o.words.size());
    p = store_words(p, o.words.data(), o.words.size());
  }
  MRLR_DEBUG_REQUIRE(p == out.data() + out.size(),
                     "serialize_machines wrote a different size than it "
                     "computed");
}

void Engine::apply_machines(std::uint64_t first, std::uint64_t last,
                            std::span<const std::byte> bytes) {
  Cursor cur{bytes};
  for (std::uint64_t m = first; m < last; ++m) {
    outbox_words_[m] = cur.u64("outbox words");
    resident_words_[m] = cur.u64("resident words");
    const std::uint64_t writer_open = cur.u64("writer-open flag");
    if (writer_open > 1) bad_payload("invalid writer-open flag");
    writer_open_[m] = static_cast<char>(writer_open);

    const std::uint64_t frame_count = cur.u64("frame count");
    // An adversarial count cannot out-allocate the payload that must
    // back it: each frame costs 24 bytes on the wire.
    if (frame_count > cur.in.size() / 24) {
      bad_payload("frame count exceeds remaining payload");
    }
    // The arena word count follows the frame index; reading it first
    // lets one pass over the index check every frame completely.
    const std::span<const std::byte> index = cur.in.first(frame_count * 24);
    cur.in = cur.in.subspan(index.size());
    const std::uint64_t word_count = cur.u64("arena word count");
    if (word_count > cur.in.size() / sizeof(Word)) {
      bad_payload("arena word count exceeds remaining payload");
    }
    Outbox& o = staging_[m];
    o.frames.resize(frame_count);
    for (std::uint64_t i = 0; i < frame_count; ++i) {
      const std::uint64_t to = exec::read_u64(index, i * 24);
      const std::uint64_t offset = exec::read_u64(index, i * 24 + 8);
      const std::uint64_t len = exec::read_u64(index, i * 24 + 16);
      if (to >= num_machines()) {
        bad_payload("frame destination " + std::to_string(to) +
                    " out of range");
      }
      if (len > word_count || offset > word_count - len) {
        bad_payload("frame extent [" + std::to_string(offset) + ", +" +
                    std::to_string(len) + ") outside the arena");
      }
      o.frames[i] = {static_cast<MachineId>(to), offset, len};
    }
    cur.words(o.words, word_count);
  }
  if (!cur.in.empty()) bad_payload("trailing bytes after the last machine");
}

// ------------------------------------------------ shard job plane --

void Engine::serialize_round_input(std::uint64_t first, std::uint64_t last,
                                   std::vector<std::byte>& out) const {
  // Per machine: the inbox word total and frame count, then 2 lanes per
  // message plus its words (which sum to the inbox word total).
  std::uint64_t lanes = 0;
  for (std::uint64_t m = first; m < last; ++m) {
    lanes += 2 + 2 * inbox_frames_[m].size() + inbox_words_[m];
  }
  std::byte* p = grow(out, lanes);
  for (std::uint64_t m = first; m < last; ++m) {
    p = store_u64(p, inbox_words_[m]);
    p = store_u64(p, inbox_frames_[m].size());
    for (const InboxFrame& f : inbox_frames_[m]) {
      p = store_u64(p, f.from);
      p = store_u64(p, f.len);
      p = store_words(p, slabs_[f.from].words.data() + f.offset, f.len);
    }
  }
  MRLR_DEBUG_REQUIRE(p == out.data() + out.size(),
                     "serialize_round_input wrote a different size than it "
                     "computed");
}

void Engine::apply_round_input(std::uint64_t first, std::uint64_t last,
                               std::span<const std::byte> bytes) {
  // Worker side: only machines [first, last) run here and their inboxes
  // are rebuilt from the wire below, so every slab and inbox index from
  // the previous round is stale — clear them all (capacity is kept, so
  // steady-state rounds still avoid the allocator).
  for (Outbox& o : slabs_) {
    o.words.clear();
    o.frames.clear();
  }
  for (std::vector<InboxFrame>& f : inbox_frames_) f.clear();
  std::fill(inbox_words_.begin(), inbox_words_.end(), 0);
  std::fill(inbox_cache_valid_.begin(), inbox_cache_valid_.end(), 0);
  for (std::uint64_t m = first; m < last; ++m) {
    staging_[m].words.clear();
    staging_[m].frames.clear();
    outbox_words_[m] = 0;
    resident_words_[m] = 0;
    writer_open_[m] = 0;
  }

  Cursor cur{bytes};
  for (std::uint64_t m = first; m < last; ++m) {
    const std::uint64_t in_words = cur.u64("inbox word total");
    const std::uint64_t frame_count = cur.u64("inbox frame count");
    // Each frame costs at least 16 bytes on the wire, so a hostile
    // count cannot out-allocate the payload backing it.
    if (frame_count > cur.in.size() / 16) {
      bad_payload("inbox frame count exceeds remaining payload");
    }
    std::uint64_t total = 0;
    inbox_frames_[m].reserve(frame_count);
    for (std::uint64_t i = 0; i < frame_count; ++i) {
      const std::uint64_t from = cur.u64("message sender");
      const std::uint64_t len = cur.u64("message length");
      if (from >= num_machines()) {
        bad_payload("message sender " + std::to_string(from) +
                    " out of range");
      }
      if (len > cur.in.size() / sizeof(Word)) {
        bad_payload("message length exceeds remaining payload");
      }
      std::vector<Word>& slab = slabs_[from].words;
      const std::uint64_t offset = slab.size();
      slab.resize(offset + len);
      if (len > 0) {
        std::memcpy(slab.data() + offset, cur.in.data(),
                    len * sizeof(Word));
        cur.in = cur.in.subspan(len * sizeof(Word));
      }
      inbox_frames_[m].push_back(
          {static_cast<MachineId>(from), offset, len});
      total += len;
    }
    if (total != in_words) {
      bad_payload("inbox word total does not match its messages");
    }
    inbox_words_[m] = in_words;
  }
  if (!cur.in.empty()) bad_payload("trailing bytes after the last machine");
}

void Engine::run_registered(std::uint64_t round_id, std::uint64_t machine,
                            std::span<const std::uint64_t> params) {
  MRLR_REQUIRE(round_id < rounds_.size(),
               "run_registered: undefined round id");
  MachineContext ctx(*this, static_cast<MachineId>(machine));
  rounds_[round_id].fn(ctx, params);
}

}  // namespace mrlr::mrc
