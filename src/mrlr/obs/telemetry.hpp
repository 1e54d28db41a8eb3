#pragma once
// Runtime telemetry: where wall-clock time goes *inside* a round.
//
// The engine's Metrics record the paper's cost model (rounds, words per
// machine, communication); this recorder captures the systems cost
// model — callback compute vs. arena merge vs. fork/serialize/transport
// vs. central scan — as steady-clock spans over a static phase
// taxonomy, plus monotonically-named counters (slab reuses, frames on
// the wire). Telemetry is always compiled in and OFF by default; when
// disabled, the only cost at every instrumentation site is one relaxed
// atomic load. It never touches the data plane, so enabling it must not
// change any determinism hash (tests pin this).
//
// Process model: the recorder is a process-wide singleton. The
// process-sharded backend forks its workers once per job; each worker
// inherits the recorder state (including the enabled flag and the clock
// epoch — steady_clock is CLOCK_MONOTONIC, shared by all processes on a
// host), records spans attributed to its shard, and after every round
// ships the events since a per-round Mark back to the coordinator as a
// kShardTelemetry frame. merge_remote() validates the payload
// (exec::TransportError(kBadPayload) on anything malformed) and appends
// the spans with their original shard/round attribution, so a K=4 run
// yields one coherent profile. Counter deltas recorded after the Mark
// merge additively. A worker starts each round's window where the
// previous snapshot ended, so the telemetry and status frames it writes
// after a snapshot ship with the next round; only the last round's
// trailing frames never reach the coordinator's send-side counters.
//
// Threading: record_span/add_counter take a mutex (contention is
// negligible — a handful of events per round); enable/disable/clear are
// control-plane calls and must not race a running round.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mrlr::obs {

/// Static phase taxonomy. Every span names one of these; free-form
/// detail goes in the span label.
enum class Phase : std::uint8_t {
  kRound = 0,        ///< one whole engine round (callback + merge + audit)
  kCallback,         ///< per-machine user callbacks (executor dispatch)
  kArenaMerge,       ///< sender-id-ordered frame merge after the barrier
  kCentral,          ///< a central-only round's callback phase
  kShardSerialize,   ///< worker: ShardJobPlane::serialize_machines;
                     ///< coordinator: encoding one worker's round control
  kShardTransport,   ///< worker: shipping the data frame over the channel;
                     ///< coordinator: shipping one worker's round control
  kWorkerWait,       ///< coordinator: waiting on one shard's frames
  kIoLoad,           ///< graph file ingestion (.mgb or text)
  kQueueWait,        ///< serve: admitted job waiting for an executor slot
  kJobRun,           ///< serve: one job's execution (fork to result)
  kShardApply,       ///< coordinator: apply_machines of one shard's data;
                     ///< worker: apply_round_input of its round control
                     ///< (appended last so earlier wire ids keep their
                     ///< values)
};
inline constexpr std::size_t kNumPhases = 11;

/// Spans outside any engine round (e.g. io_load) carry this round id.
inline constexpr std::uint64_t kNoRound = ~std::uint64_t{0};

/// Stable lowercase name used on the wire, in exports, and in
/// BenchResult.extra keys ("round", "callback", "arena_merge", ...).
std::string_view phase_name(Phase p);
std::optional<Phase> phase_from_name(std::string_view name);

struct SpanRecord {
  Phase phase = Phase::kRound;
  std::uint32_t shard = 0;     ///< recording process's shard (0 = coordinator)
  std::uint64_t round = kNoRound;  ///< engine round index, or kNoRound
  std::uint64_t start_ns = 0;  ///< steady-clock ns since the enable() epoch
  std::uint64_t dur_ns = 0;
  std::string label;           ///< free-form detail (round label, file kind)
};

/// Point-in-time copy of the recorder, the unit exports and reports
/// consume.
struct TelemetrySnapshot {
  std::vector<SpanRecord> spans;
  std::map<std::string, std::uint64_t> counters;
};

class Telemetry {
 public:
  static Telemetry& instance();

  /// Clears all recorded data, resets the clock epoch, and starts
  /// recording. Not to be called while rounds are in flight.
  void enable();
  /// Stops recording; already-recorded data stays readable.
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Steady-clock ns since the enable() epoch (0 before first enable).
  std::uint64_t now_ns() const;

  /// Records one completed span attributed to this process's shard.
  /// No-op when disabled.
  void record_span(Phase phase, std::uint64_t start_ns,
                   std::uint64_t end_ns, std::uint64_t round = kNoRound,
                   std::string label = {});

  /// Adds to a named monotonic counter. No-op when disabled.
  void add_counter(std::string_view name, std::uint64_t delta);

  /// Shard attribution for subsequently recorded spans. Forked workers
  /// call this once at shard start; the coordinator stays at 0.
  void set_shard(std::uint32_t shard);
  std::uint32_t shard() const;

  // ---------------------------------------- cross-process shipping --

  /// Recorder position; a forked worker takes one at shard start so it
  /// ships only events recorded after the fork (the COW-inherited
  /// coordinator history must not be duplicated).
  struct Mark {
    std::size_t span_count = 0;
    std::map<std::string, std::uint64_t> counters;
  };
  Mark mark() const;

  /// Wire-encodes spans recorded after `mark` plus counter deltas since
  /// `mark` (little-endian u64 lanes, same discipline as the shard data
  /// plane).
  std::vector<std::byte> serialize_since(const Mark& mark) const;

  /// Decodes and appends a worker's shipped buffer. Every field is
  /// validated; throws exec::TransportError(kBadPayload) on a malformed
  /// payload or when a span's shard does not match `expected_shard`.
  void merge_remote(std::span<const std::byte> bytes,
                    std::uint32_t expected_shard);

  // ------------------------------------------------------ inspection --

  TelemetrySnapshot snapshot() const;
  std::size_t span_count() const;
  /// Copies spans [from, end) — the per-scenario window the bench
  /// runner folds into BenchResult.extra.
  std::vector<SpanRecord> spans_since(std::size_t from) const;
  /// Drops all recorded data (keeps the enabled flag and epoch).
  void clear();

 private:
  Telemetry() = default;

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::uint32_t shard_ = 0;
  std::chrono::steady_clock::time_point epoch_{};
  std::vector<SpanRecord> spans_;
  std::map<std::string, std::uint64_t> counters_;
};

/// RAII span: samples the clock on construction and records on
/// destruction. Arms only if telemetry is enabled at construction, so
/// the disabled cost is one relaxed load.
class ScopedSpan {
 public:
  explicit ScopedSpan(Phase phase, std::uint64_t round = kNoRound,
                      std::string label = {});
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Phase phase_;
  std::uint64_t round_;
  std::uint64_t start_ = 0;
  std::string label_;
  bool armed_ = false;
};

/// Counter shorthand for instrumentation sites: one relaxed load when
/// telemetry is off.
inline void count(std::string_view name, std::uint64_t delta = 1) {
  Telemetry& t = Telemetry::instance();
  if (t.enabled()) t.add_counter(name, delta);
}

}  // namespace mrlr::obs
