#include "mrlr/obs/telemetry.hpp"

#include <sys/resource.h>

#include "mrlr/exec/shard_transport.hpp"

namespace mrlr::obs {

namespace {

// Index-aligned with the Phase enum.
constexpr std::string_view kPhaseNames[kNumPhases] = {
    "round",           "callback",        "arena_merge", "central",
    "shard_serialize", "shard_transport", "worker_wait", "io_load",
    "queue_wait",      "job_run",         "shard_apply",
};

// Wire format version for serialize_since/merge_remote payloads —
// independent of the frame protocol version so the telemetry encoding
// can evolve without a transport version bump.
constexpr std::uint64_t kWireVersion = 1;

// Sanity caps: labels and counter names are short identifiers, never
// bulk data. An adversarial length fails the cap before any allocation.
constexpr std::uint64_t kMaxStringBytes = 1 << 12;

using exec::wire::append_string;
using exec::wire::append_u64;

}  // namespace

std::string_view phase_name(Phase p) {
  return kPhaseNames[static_cast<std::size_t>(p)];
}

std::optional<Phase> phase_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    if (kPhaseNames[i] == name) return static_cast<Phase>(i);
  }
  return std::nullopt;
}

Telemetry& Telemetry::instance() {
  static Telemetry t;
  return t;
}

void Telemetry::enable() {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.clear();
  counters_.clear();
  shard_ = 0;
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void Telemetry::disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

std::uint64_t Telemetry::now_ns() const {
  if (epoch_.time_since_epoch().count() == 0) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Telemetry::record_span(Phase phase, std::uint64_t start_ns,
                            std::uint64_t end_ns, std::uint64_t round,
                            std::string label) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(SpanRecord{phase, shard_, round, start_ns,
                              end_ns >= start_ns ? end_ns - start_ns : 0,
                              std::move(label)});
}

void Telemetry::add_counter(std::string_view name, std::uint64_t delta) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(mu_);
  counters_[std::string(name)] += delta;
}

void Telemetry::set_shard(std::uint32_t shard) {
  std::lock_guard<std::mutex> lk(mu_);
  shard_ = shard;
}

std::uint32_t Telemetry::shard() const {
  std::lock_guard<std::mutex> lk(mu_);
  return shard_;
}

Telemetry::Mark Telemetry::mark() const {
  std::lock_guard<std::mutex> lk(mu_);
  return Mark{spans_.size(), counters_};
}

std::vector<std::byte> Telemetry::serialize_since(const Mark& mark) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::byte> out;
  append_u64(out, kWireVersion);

  const std::size_t from =
      mark.span_count <= spans_.size() ? mark.span_count : spans_.size();
  append_u64(out, spans_.size() - from);
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    append_u64(out, static_cast<std::uint64_t>(s.phase));
    append_u64(out, s.shard);
    append_u64(out, s.round);
    append_u64(out, s.start_ns);
    append_u64(out, s.dur_ns);
    append_string(out, s.label);
  }

  // Counter deltas since the mark (new counters count from zero).
  std::vector<std::pair<std::string_view, std::uint64_t>> deltas;
  for (const auto& [name, value] : counters_) {
    const auto it = mark.counters.find(name);
    const std::uint64_t base = it == mark.counters.end() ? 0 : it->second;
    if (value > base) deltas.emplace_back(name, value - base);
  }
  append_u64(out, deltas.size());
  for (const auto& [name, delta] : deltas) {
    append_string(out, name);
    append_u64(out, delta);
  }
  return out;
}

void Telemetry::merge_remote(std::span<const std::byte> bytes,
                             std::uint32_t expected_shard) {
  exec::wire::Reader r(bytes, "telemetry payload");
  const std::uint64_t version = r.u64("wire version");
  if (version != kWireVersion) {
    r.fail("unsupported wire version " + std::to_string(version));
  }

  // Each span costs at least 6 u64 lanes on the wire.
  const std::uint64_t span_count = r.count("span count", 48);
  std::vector<SpanRecord> incoming;
  incoming.reserve(span_count);
  for (std::uint64_t i = 0; i < span_count; ++i) {
    const std::uint64_t phase = r.u64("span phase");
    if (phase >= kNumPhases) {
      r.fail("unknown phase " + std::to_string(phase));
    }
    const std::uint64_t shard = r.u64("span shard");
    if (shard != expected_shard) {
      r.fail("span attributed to shard " + std::to_string(shard) +
             " arrived from shard " + std::to_string(expected_shard));
    }
    SpanRecord s;
    s.phase = static_cast<Phase>(phase);
    s.shard = static_cast<std::uint32_t>(shard);
    s.round = r.u64("span round");
    s.start_ns = r.u64("span start");
    s.dur_ns = r.u64("span duration");
    s.label = r.string("span label", kMaxStringBytes);
    incoming.push_back(std::move(s));
  }

  const std::uint64_t counter_count = r.count("counter count", 16);
  std::vector<std::pair<std::string, std::uint64_t>> counter_deltas;
  counter_deltas.reserve(counter_count);
  for (std::uint64_t i = 0; i < counter_count; ++i) {
    std::string name = r.string("counter name", kMaxStringBytes);
    if (name.empty()) r.fail("empty counter name");
    counter_deltas.emplace_back(std::move(name), r.u64("counter value"));
  }
  r.done("the last counter");

  std::lock_guard<std::mutex> lk(mu_);
  for (SpanRecord& s : incoming) spans_.push_back(std::move(s));
  for (const auto& [name, delta] : counter_deltas) {
    counters_[name] += delta;
  }
}

TelemetrySnapshot Telemetry::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return TelemetrySnapshot{spans_, counters_};
}

std::size_t Telemetry::span_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

std::vector<SpanRecord> Telemetry::spans_since(std::size_t from) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (from >= spans_.size()) return {};
  return {spans_.begin() + static_cast<std::ptrdiff_t>(from), spans_.end()};
}

void Telemetry::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.clear();
  counters_.clear();
}

ScopedSpan::ScopedSpan(Phase phase, std::uint64_t round, std::string label)
    : phase_(phase), round_(round), label_(std::move(label)) {
  Telemetry& t = Telemetry::instance();
  if (t.enabled()) {
    armed_ = true;
    start_ = t.now_ns();
  }
}

ScopedSpan::~ScopedSpan() {
  if (!armed_) return;
  Telemetry& t = Telemetry::instance();
  t.record_span(phase_, start_, t.now_ns(), round_, std::move(label_));
}

std::uint64_t minor_faults() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

void count_minor_faults(std::optional<std::uint64_t>& mark,
                        std::optional<std::string_view> round) {
  Telemetry& t = Telemetry::instance();
  if (!t.enabled()) return;
  const std::uint64_t now = minor_faults();
  if (mark) {
    const std::uint64_t delta = now - *mark;
    t.add_counter("proc.minor_faults", delta);
    t.add_counter("proc.minor_faults.shard" + std::to_string(t.shard()),
                  delta);
    if (round) {
      t.add_counter("proc.minor_faults.round." + std::string(*round), delta);
    }
  }
  mark = now;
}

}  // namespace mrlr::obs
