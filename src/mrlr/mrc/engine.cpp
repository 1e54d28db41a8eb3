#include "mrlr/mrc/engine.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

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

void MachineContext::send(MachineId to, std::initializer_list<Word> payload) {
  send(to, std::span<const Word>(payload.begin(), payload.size()));
}

void MachineContext::send(MachineId to, std::span<const Word> payload) {
  MRLR_REQUIRE(to < engine_.num_machines(), "send to nonexistent machine");
  Engine::Outbox& out = engine_.staging_[id_];
  const std::uint64_t offset = out.words.size();
  out.words.insert(out.words.end(), payload.begin(), payload.end());
  out.frames.push_back({to, offset, payload.size()});
  engine_.outbox_words_[id_] += payload.size();
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
  runs_.resize(machines);
  inbox_frames_.resize(machines);
  inbox_words_.assign(machines, 0);
  next_frames_.resize(machines);
  next_inbox_words_.assign(machines, 0);
  outbox_words_.assign(machines, 0);
  resident_words_.assign(machines, 0);
  local_end_ = machines;
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

void Engine::frame_runs(MachineId m) {
  Runs& r = runs_[m];
  if (r.pieces.empty()) return;
  // A counting sort of the pieces by destination. `at` is a cursor per
  // machine, all zero between calls; it is per thread, not per machine,
  // so the engine keeps no per-(sender, destination) table (a callback
  // runs start to finish on one thread). No inbox shows the order of
  // one sender's runs; sorting the destinations makes the staged frame
  // order, and with it the wire encoding, independent of which
  // destination the callback appended to first.
  thread_local std::vector<std::uint64_t> at;
  thread_local std::vector<MachineId> dests;
  if (at.size() < num_machines()) at.resize(num_machines(), 0);
  dests.clear();
  for (const Piece& p : r.pieces) {
    if (at[p.to] == 0) dests.push_back(p.to);
    at[p.to] += p.len;
  }
  std::sort(dests.begin(), dests.end());
  Outbox& out = staging_[m];
  std::uint64_t next = out.words.size();
  for (const MachineId d : dests) {
    out.frames.push_back({d, next, at[d]});
    const std::uint64_t len = at[d];
    at[d] = next;
    next += len;
  }
  out.words.resize(next);
  const Word* src = r.words.data();
  for (const Piece& p : r.pieces) {
    std::memcpy(out.words.data() + at[p.to], src, p.len * sizeof(Word));
    at[p.to] += p.len;
    src += p.len;
  }
  for (const MachineId d : dests) at[d] = 0;
  outbox_words_[m] += r.words.size();
  r.words.clear();
  r.pieces.clear();
}

template <class Round>
void Engine::run_guarded(std::string_view label, Round&& round) {
  if (!failed_round_.empty()) {
    throw std::logic_error("Engine: refusing round '" + std::string(label) +
                           "': " + failed_round_ +
                           " threw, which ended the job");
  }
  const std::uint64_t index = metrics_.rounds();
  try {
    round();
  } catch (...) {
    // Numbered from 1, as the process backend's errors number rounds.
    failed_round_ = "round " + std::to_string(index + 1) + " ('" +
                    std::string(label) + "')";
    throw;
  }
}

void Engine::invoke_round(RoundId round, std::span<const Word> params) {
  MRLR_REQUIRE(round < rounds_.size(), "invoke_round: undefined round id");
  const std::string& label = rounds_[round].label;
  run_guarded(label, [&] {
    if (!job_started_) {
      job_started_ = true;
      executor_->start_job(topology_.num_machines, this);
    }
    round_body(label, /*central_only=*/false, [&] {
      ++job_rounds_;
      executor_->run_job_round(
          metrics_.rounds(), round, params, topology_.num_machines,
          [&](std::uint64_t m) { run_registered(round, m, params); }, this);
    });
  });
}

void Engine::invoke_round(RoundId round, std::initializer_list<Word> params) {
  invoke_round(round, std::span<const Word>(params.begin(), params.size()));
}

void Engine::run_central_round(
    std::string_view label, const std::function<void(MachineContext&)>& fn) {
  // The central machine always lives in the coordinator and every other
  // machine would run a no-op, so there is nothing to dispatch or ship.
  run_guarded(label, [&] {
    round_body(label, /*central_only=*/true, [&] {
      MachineContext ctx(*this, kCentral);
      fn(ctx);
      frame_runs(kCentral);
    });
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

  // Shard 0's sends to worker machines join their shards' streams (the
  // process executor already did this before applying worker data;
  // central rounds never reach it). What remains to merge is bound for
  // machines of this process.
  if (routed()) route_local_sends();
  // Merge staged frames in sender-id order: delivery order — and with
  // it every downstream inbox scan — matches the sequential simulation
  // regardless of which threads ran which machines. Only the frame
  // indexes move here; payload words stay where the senders wrote them.
  // Each message is counted once, by the process that staged it: frames
  // of worker senders decoded here were counted by their worker.
  std::uint64_t messages = 0;
  for (MachineId s = 0; s < machines; ++s) {
    if (s < local_end_) messages += staging_[s].frames.size();
    for (const Frame& f : staging_[s].frames) {
      next_frames_[f.to].push_back({s, f.offset, f.len});
      next_inbox_words_[f.to] += f.len;
    }
  }
  if (telemetry) {
    tel.record_span(obs::Phase::kArenaMerge, t0, tel.now_ns(), round_ix);
    tel.add_counter("engine.messages", messages);
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
    // Nothing is delivered: the throw ends the job.
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
  if (routed()) {
    stream_.swap(next_stream_);
    for (Stream& st : next_stream_) {
      st.records.clear();
      st.generation = 0;
    }
    inbox_count_.swap(next_inbox_count_);
    std::fill(next_inbox_count_.begin(), next_inbox_count_.end(), 0);
  }
  if (telemetry) {
    tel.record_span(obs::Phase::kRound, round_start, tel.now_ns(), round_ix,
                    std::string(label));
  }
}

void Engine::check_machine_id(MachineId m, const char* what) const {
  if (m >= num_machines()) {
    throw std::out_of_range(
        std::string("Engine::") + what + ": machine id " +
        std::to_string(m) + " out of range [0, " +
        std::to_string(num_machines()) + ")");
  }
}

std::uint64_t Engine::inbox_words(MachineId m) const {
  check_machine_id(m, "inbox_words");
  return inbox_words_[m];
}

std::uint64_t Engine::inbox_size(MachineId m) const {
  check_machine_id(m, "inbox_size");
  return m < local_end_ ? inbox_frames_[m].size() : inbox_count_[m];
}

// ------------------------------------------------ shard job plane --

namespace {

using exec::wire::load;
using exec::wire::store;

/// Grows `out` by `bytes` in one step and returns where they start: the
/// encoders size their output exactly, then store through a moving
/// pointer instead of growing the buffer field by field.
std::byte* grow(std::vector<std::byte>& out, std::uint64_t bytes) {
  const std::size_t start = out.size();
  out.resize(start + bytes);
  return out.data() + start;
}

std::byte* store_words(std::byte* at, const Word* words,
                       std::uint64_t count) {
  if (count == 0) return at;
  std::memcpy(at, words, count * sizeof(Word));
  return at + count * sizeof(Word);
}

constexpr std::string_view kPayloadContext = "engine shard payload";

[[noreturn]] void bad_payload(const std::string& what) {
  throw exec::TransportError(exec::TransportError::Kind::kBadPayload,
                             std::string(kPayloadContext) + ": " + what);
}

/// A record is one message on the wire: sender, destination and
/// payload length in words as little-endian u32 lanes, then the payload
/// words, unpadded.
constexpr std::uint64_t kRecordHeader = 12;

/// Wire size of a record carrying `len` words. The u32 length lane caps
/// one message at 2^32 - 1 words (32 GiB) under the process backend.
std::uint64_t record_bytes(std::uint64_t len) {
  if (len > std::numeric_limits<std::uint32_t>::max()) {
    throw exec::ExecError("engine shard payload: a " + std::to_string(len) +
                          "-word message exceeds the record length lane");
  }
  return kRecordHeader + len * sizeof(Word);
}

/// The one record encoder. The caller sized the buffer with
/// record_bytes, which also range-checked `len`.
std::byte* store_record(std::byte* at, std::uint64_t from, std::uint64_t to,
                        const Word* words, std::uint64_t len) {
  at = store<std::uint32_t>(at, static_cast<std::uint32_t>(from));
  at = store<std::uint32_t>(at, static_cast<std::uint32_t>(to));
  at = store<std::uint32_t>(at, static_cast<std::uint32_t>(len));
  return store_words(at, words, len);
}

/// The one record decoder: walks `in` record by record, checks the
/// sender against [from_lo, from_hi), the destination against
/// [to_lo, to_hi) and the length against the bytes left, and hands each
/// record to sink(from, to, payload, len). `payload` points at `len`
/// unaligned little-endian words.
template <class Sink>
void decode_records(std::span<const std::byte> in, std::uint64_t from_lo,
                    std::uint64_t from_hi, std::uint64_t to_lo,
                    std::uint64_t to_hi, Sink&& sink) {
  const std::byte* p = in.data();
  std::size_t left = in.size();
  const auto range = [](std::uint64_t lo, std::uint64_t hi) {
    return " outside [" + std::to_string(lo) + ", " + std::to_string(hi) +
           ")";
  };
  while (left > 0) {
    if (left < kRecordHeader) bad_payload("truncated record header");
    const std::uint64_t from = load<std::uint32_t>(p);
    const std::uint64_t to = load<std::uint32_t>(p + 4);
    const std::uint64_t len = load<std::uint32_t>(p + 8);
    p += kRecordHeader;
    left -= kRecordHeader;
    if (from < from_lo || from >= from_hi) {
      bad_payload("record sender " + std::to_string(from) +
                  range(from_lo, from_hi));
    }
    if (to < to_lo || to >= to_hi) {
      bad_payload("record destination " + std::to_string(to) +
                  range(to_lo, to_hi));
    }
    if (len > left / sizeof(Word)) {
      bad_payload("record length " + std::to_string(len) +
                  " runs past the payload");
    }
    sink(static_cast<MachineId>(from), static_cast<MachineId>(to), p, len);
    p += len * sizeof(Word);
    left -= len * sizeof(Word);
  }
}

/// Appends `len` unaligned payload words to `words` and returns the
/// offset they start at.
std::uint64_t append_words(std::vector<Word>& words, const std::byte* payload,
                           std::uint64_t len) {
  const std::uint64_t offset = words.size();
  words.resize(offset + len);
  if (len > 0) std::memcpy(words.data() + offset, payload, len * sizeof(Word));
  return offset;
}

}  // namespace

void Engine::set_shards(std::span<const std::uint64_t> bounds,
                        std::uint32_t own) {
  const std::uint64_t machines = num_machines();
  MRLR_REQUIRE(bounds.size() >= 2 && own + 1 < bounds.size(),
               "set_shards: need K + 1 boundaries and an own shard below K");
  MRLR_REQUIRE(bounds.front() == 0 && bounds.back() == machines,
               "set_shards: the shard ranges must cover every machine");
  const std::size_t shards = bounds.size() - 1;
  shard_bounds_.assign(bounds.begin(), bounds.end());
  own_shard_ = own;
  shard_of_.assign(machines, 0);
  for (std::size_t b = 0; b < shards; ++b) {
    MRLR_REQUIRE(bounds[b] < bounds[b + 1],
                 "set_shards: empty or unordered shard range");
    std::fill(shard_of_.begin() + static_cast<std::ptrdiff_t>(bounds[b]),
              shard_of_.begin() + static_cast<std::ptrdiff_t>(bounds[b + 1]),
              static_cast<std::uint32_t>(b));
  }
  route_frames_.assign(machines, 0);
  route_words_.assign(machines, 0);
  if (own != 0) return;  // a worker's inputs arrive with every round

  local_end_ = bounds[1];
  stream_.assign(shards, {});
  next_stream_.assign(shards, {});
  inbox_count_.assign(machines, 0);
  next_inbox_count_.assign(machines, 0);
  // Traffic that central rounds delivered to worker machines before the
  // job started moves onto their shards' first inputs.
  for (std::uint64_t m = local_end_; m < machines; ++m) {
    for (const InboxFrame& f : inbox_frames_[m]) {
      store_record(grow(stream_[shard_of_[m]].records, record_bytes(f.len)),
                   f.from, m, slabs_[f.from].words.data() + f.offset, f.len);
    }
    inbox_count_[m] = inbox_frames_[m].size();
    inbox_frames_[m].clear();
  }
}

void Engine::serialize_round_input(
    std::uint32_t shard, std::vector<std::byte>& out,
    std::vector<std::span<const std::byte>>& stream) {
  // The peer generation, per machine of the shard its inbox frame count
  // and word total, then the coordinator's records.
  const std::uint64_t first = shard_bounds_[shard];
  const std::uint64_t last = shard_bounds_[shard + 1];
  const Stream& st = stream_[shard];
  std::byte* p = grow(out, 8 + 16 * (last - first));
  p = store<std::uint64_t>(p, st.generation);
  for (std::uint64_t m = first; m < last; ++m) {
    p = store<std::uint64_t>(p, inbox_count_[m]);
    p = store<std::uint64_t>(p, inbox_words_[m]);
  }
  if (!st.records.empty()) stream.emplace_back(st.records);
}

std::uint64_t Engine::peer_generation(std::span<const std::byte> bytes) const {
  return exec::wire::Reader(bytes, kPayloadContext).u64("peer generation");
}

void Engine::apply_round_input(std::span<const std::byte> bytes,
                               const exec::PeerBucketFn& buckets) {
  const std::uint64_t first = shard_bounds_[own_shard_];
  const std::uint64_t last = shard_bounds_[own_shard_ + 1];
  for (std::uint64_t m = first; m < last; ++m) {
    staging_[m].words.clear();
    staging_[m].frames.clear();
    outbox_words_[m] = 0;
    resident_words_[m] = 0;
  }
  // Only machines [first, last) run here and their inboxes are rebuilt
  // below, so every slab and inbox index from the previous input is
  // stale — clear them all (capacity is kept, so steady-state rounds
  // still avoid the allocator).
  for (Outbox& o : slabs_) {
    o.words.clear();
    o.frames.clear();
  }
  for (std::vector<InboxFrame>& f : inbox_frames_) f.clear();
  std::fill(inbox_words_.begin(), inbox_words_.end(), 0);

  exec::wire::Reader r(bytes, kPayloadContext);
  const std::uint64_t generation = r.u64("peer generation");
  for (std::uint64_t m = first; m < last; ++m) {
    route_frames_[m] = r.u64("inbox frame count");
    route_words_[m] = r.u64("inbox word total");
  }
  const auto install = [&](MachineId from, MachineId to,
                           const std::byte* payload, std::uint64_t len) {
    const std::uint64_t offset = append_words(slabs_[from].words, payload, len);
    inbox_frames_[to].push_back({from, offset, len});
    inbox_words_[to] += len;
  };
  // Sender-id order: the coordinator's records (all from shard 0),
  // then every worker shard's bucket in shard order.
  decode_records(r.rest(), 0, shard_bounds_[1], first, last, install);
  const std::size_t shards = shard_bounds_.size() - 1;
  for (std::size_t b = 1; generation != 0 && b < shards; ++b) {
    decode_records(buckets(static_cast<std::uint32_t>(b), generation),
                   shard_bounds_[b], shard_bounds_[b + 1], first, last,
                   install);
  }
  for (std::uint64_t m = first; m < last; ++m) {
    if (inbox_frames_[m].size() != route_frames_[m] ||
        inbox_words_[m] != route_words_[m]) {
      bad_payload("machine " + std::to_string(m) + " received " +
                  std::to_string(inbox_frames_[m].size()) + " records of " +
                  std::to_string(inbox_words_[m]) +
                  " words, its totals say " +
                  std::to_string(route_frames_[m]) + " of " +
                  std::to_string(route_words_[m]));
    }
  }
}

void Engine::serialize_machines(std::vector<std::vector<std::byte>>& parts) {
  const std::uint64_t machines = num_machines();
  const std::uint64_t first = shard_bounds_[own_shard_];
  const std::uint64_t last = shard_bounds_[own_shard_ + 1];
  const std::size_t shards = shard_bounds_.size() - 1;
  // Per-destination totals and per-shard bucket sizes first, so every
  // part is sized once and each record is written straight into it.
  std::fill(route_frames_.begin(), route_frames_.end(), 0);
  std::fill(route_words_.begin(), route_words_.end(), 0);
  std::vector<std::uint64_t> bucket(shards, 0);
  std::uint64_t messages = 0;
  for (std::uint64_t m = first; m < last; ++m) {
    messages += staging_[m].frames.size();
    for (const Frame& f : staging_[m].frames) {
      ++route_frames_[f.to];
      route_words_[f.to] += f.len;
      bucket[shard_of_[f.to]] += record_bytes(f.len);
    }
  }
  obs::count("engine.messages", messages);
  parts.resize(shards);
  for (std::vector<std::byte>& part : parts) part.clear();
  std::byte* p = grow(parts[0], 8 * (2 * (last - first) + 2 * machines + 1 +
                                     shards) +
                                    bucket[0]);
  for (std::uint64_t m = first; m < last; ++m) {
    p = store<std::uint64_t>(p, outbox_words_[m]);
    p = store<std::uint64_t>(p, resident_words_[m]);
  }
  for (std::uint64_t d = 0; d < machines; ++d) {
    p = store<std::uint64_t>(p, route_frames_[d]);
    p = store<std::uint64_t>(p, route_words_[d]);
  }
  p = store<std::uint64_t>(p, shards);
  for (const std::uint64_t b : bucket) p = store<std::uint64_t>(p, b);
  std::vector<std::byte*> at(shards);
  at[0] = p;
  for (std::size_t b = 1; b < shards; ++b) at[b] = grow(parts[b], bucket[b]);
  for (std::uint64_t m = first; m < last; ++m) {
    const Outbox& o = staging_[m];
    for (const Frame& f : o.frames) {
      std::byte*& q = at[shard_of_[f.to]];
      q = store_record(q, m, f.to, o.words.data() + f.offset, f.len);
    }
  }
  MRLR_DEBUG_REQUIRE(at[0] == parts[0].data() + parts[0].size(),
                     "serialize_machines wrote a different size than it "
                     "computed");
}

void Engine::route_local_sends() {
  if (!routed()) return;
  const std::size_t shards = shard_bounds_.size() - 1;
  std::vector<std::uint64_t> bytes(shards, 0);
  std::uint64_t routed_frames = 0;
  for (std::uint64_t s = 0; s < local_end_; ++s) {
    for (const Frame& f : staging_[s].frames) {
      if (f.to < local_end_) continue;
      bytes[shard_of_[f.to]] += record_bytes(f.len);
      ++routed_frames;
    }
  }
  if (routed_frames == 0) return;
  // These frames leave before the merge loop, which counts the rest.
  obs::count("engine.messages", routed_frames);
  std::vector<std::byte*> at(shards);
  for (std::size_t b = 1; b < shards; ++b) {
    MRLR_DEBUG_REQUIRE(next_stream_[b].generation == 0,
                       "route_local_sends after a worker's data was applied");
    if (bytes[b] > 0) at[b] = grow(next_stream_[b].records, bytes[b]);
  }
  // Routed frames leave the staging index, so the merge sees only
  // shard 0's destinations and a second call routes nothing twice.
  for (std::uint64_t s = 0; s < local_end_; ++s) {
    Outbox& o = staging_[s];
    std::size_t kept = 0;
    for (std::size_t i = 0; i < o.frames.size(); ++i) {
      const Frame f = o.frames[i];
      if (f.to < local_end_) {
        o.frames[kept++] = f;
        continue;
      }
      std::byte*& q = at[shard_of_[f.to]];
      q = store_record(q, s, f.to, o.words.data() + f.offset, f.len);
      ++next_inbox_count_[f.to];
      next_inbox_words_[f.to] += f.len;
    }
    o.frames.resize(kept);
  }
}

void Engine::apply_machines(std::uint32_t shard,
                            std::span<const std::byte> bytes) {
  MRLR_DEBUG_REQUIRE(routed(), "apply_machines on an unrouted engine");
  const std::uint64_t machines = num_machines();
  const std::uint64_t first = shard_bounds_[shard];
  const std::uint64_t last = shard_bounds_[shard + 1];
  const std::size_t shards = shard_bounds_.size() - 1;
  exec::wire::Reader r(bytes, kPayloadContext);
  // Every word count is bounded by the bucket lengths declared here,
  // each capped like a frame payload, so the sums below cannot wrap.
  for (std::uint64_t m = first; m < last; ++m) {
    outbox_words_[m] = r.u64("outbox words");
    resident_words_[m] = r.u64("resident words");
  }
  for (std::uint64_t d = 0; d < machines; ++d) {
    route_frames_[d] = r.u64("destination frame count");
    route_words_[d] = r.u64("destination word total");
  }
  const std::uint64_t bucket_count = r.u64("bucket count");
  if (bucket_count != shards) {
    bad_payload(std::to_string(bucket_count) + " buckets for a " +
                std::to_string(shards) + "-shard job");
  }
  std::vector<std::uint64_t> length(shards);
  std::uint64_t body = 0;
  for (std::uint64_t& len : length) {
    len = r.u64("bucket length");
    if (len > exec::kMaxFramePayload) {
      bad_payload("bucket length " + std::to_string(len) +
                  " exceeds the frame payload cap");
    }
    body += len;
  }
  std::uint64_t sent = 0;
  for (std::uint64_t m = first; m < last; ++m) {
    if (outbox_words_[m] > body / sizeof(Word) - sent) {
      bad_payload("outbox words exceed the buckets");
    }
    sent += outbox_words_[m];
  }
  const std::span<const std::byte> bucket0 = r.rest();
  if (length[0] != bucket0.size()) {
    bad_payload("shard 0's bucket length is " + std::to_string(length[0]) +
                " bytes, the frame carries " +
                std::to_string(bucket0.size()));
  }

  // The totals must encode to exactly each bucket's length and add up
  // to the senders' outbox words.
  std::vector<std::uint64_t> encoded(shards, 0);
  std::uint64_t total_words = 0;
  for (std::uint64_t d = 0; d < machines; ++d) {
    const std::uint32_t b = shard_of_[d];
    if (route_frames_[d] > length[b] / kRecordHeader ||
        route_words_[d] > length[b] / sizeof(Word)) {
      bad_payload("totals of machine " + std::to_string(d) +
                  " exceed its bucket");
    }
    encoded[b] += route_frames_[d] * kRecordHeader +
                  route_words_[d] * sizeof(Word);
    total_words += route_words_[d];
    if (encoded[b] > length[b]) {
      bad_payload("totals of shard " + std::to_string(b) +
                  "'s machines exceed its bucket");
    }
  }
  for (std::size_t b = 0; b < shards; ++b) {
    if (encoded[b] != length[b]) {
      bad_payload("totals of shard " + std::to_string(b) +
                  "'s machines encode to " + std::to_string(encoded[b]) +
                  " bytes, its bucket holds " + std::to_string(length[b]));
    }
  }
  if (total_words != sent) {
    bad_payload("destination totals carry " + std::to_string(total_words) +
                " words, the senders' outbox words say " +
                std::to_string(sent));
  }

  // Shard 0's bucket: decoded into the senders' staging arenas.
  decode_records(bucket0, first, last, 0, local_end_,
                 [&](MachineId from, MachineId to, const std::byte* payload,
                     std::uint64_t len) {
                   if (route_frames_[to] == 0 || route_words_[to] < len) {
                     bad_payload("shard 0's bucket carries more than the "
                                 "totals of machine " +
                                 std::to_string(to));
                   }
                   --route_frames_[to];
                   route_words_[to] -= len;
                   Outbox& o = staging_[from];
                   const std::uint64_t offset =
                       append_words(o.words, payload, len);
                   o.frames.push_back({to, offset, len});
                 });
  for (std::uint64_t d = 0; d < local_end_; ++d) {
    if (route_frames_[d] != 0 || route_words_[d] != 0) {
      bad_payload("shard 0's bucket carries less than the totals of "
                  "machine " + std::to_string(d));
    }
  }

  // Every other bucket went straight to its destination worker, which
  // checks the records against the totals accumulated here. This
  // round's buckets follow shard 0's records in each worker's input.
  for (std::uint64_t d = local_end_; d < machines; ++d) {
    next_inbox_count_[d] += route_frames_[d];
    next_inbox_words_[d] += route_words_[d];
  }
  for (std::size_t b = 1; b < shards; ++b) {
    next_stream_[b].generation = job_rounds_;
  }
}

void Engine::run_registered(std::uint64_t round_id, std::uint64_t machine,
                            std::span<const std::uint64_t> params) {
  MRLR_REQUIRE(round_id < rounds_.size(),
               "run_registered: undefined round id");
  MachineContext ctx(*this, static_cast<MachineId>(machine));
  rounds_[round_id].fn(ctx, params);
  frame_runs(ctx.id());
}

}  // namespace mrlr::mrc
