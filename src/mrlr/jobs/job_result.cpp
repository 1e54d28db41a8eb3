#include "mrlr/jobs/job_result.hpp"

#include <cstdio>
#include <sstream>

#include "mrlr/exec/shard_transport.hpp"
#include "mrlr/util/mix64.hpp"

namespace mrlr::jobs {

namespace {

using exec::wire::append_string;
using exec::wire::append_u64;

constexpr std::uint64_t kResultVersion = 1;

/// Stat names are short identifiers ("weight", "stack"); an adversarial
/// length fails the cap before any allocation.
constexpr std::uint64_t kMaxStatNameBytes = 1 << 10;

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

const JobStat* JobResult::stat(std::string_view name) const {
  for (const JobStat& s : stats) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

double JobResult::stat_double(std::string_view name, double fallback) const {
  const JobStat* s = stat(name);
  if (s == nullptr || s->kind != JobStat::Kind::kPackedDouble) {
    return fallback;
  }
  return core::unpack_double(s->value);
}

std::uint64_t JobResult::stat_count(std::string_view name,
                                    std::uint64_t fallback) const {
  const JobStat* s = stat(name);
  if (s == nullptr || s->kind != JobStat::Kind::kCount) return fallback;
  return s->value;
}

std::string fingerprint(const JobResult& r) {
  std::ostringstream os;
  os << r.algorithm << " sol=" << hex64(r.solution_hash);
  for (const JobStat& s : r.stats) {
    os << " " << s.name << "=";
    if (s.kind == JobStat::Kind::kPackedDouble) {
      os << hex64(s.value);
    } else {
      os << s.value;
    }
  }
  const core::MrOutcome& o = r.outcome;
  os << " failed=" << o.failed << " iters=" << o.iterations
     << " rounds=" << o.rounds << " words=" << o.max_machine_words
     << " central=" << o.max_central_inbox
     << " comm=" << o.total_communication
     << " violations=" << o.space_violations;
  return os.str();
}

std::uint64_t determinism_hash(const JobResult& r) {
  std::uint64_t h = mix64(0x6A6F622E72736C74ull ^ r.algorithm.size());
  for (const char c : r.algorithm) {
    h = mix64(h ^ static_cast<std::uint64_t>(
                      static_cast<unsigned char>(c)));
  }
  h = mix64(h ^ r.solution_hash);
  h = mix64(h ^ r.solution_size);
  h = mix64(h ^ (r.valid ? 1u : 0u));
  const core::MrOutcome& o = r.outcome;
  h = mix64(h ^ (o.failed ? 1u : 0u));
  h = mix64(h ^ o.iterations);
  h = mix64(h ^ o.rounds);
  h = mix64(h ^ o.max_machine_words);
  h = mix64(h ^ o.max_central_inbox);
  h = mix64(h ^ o.total_communication);
  h = mix64(h ^ o.space_violations);
  h = mix64(h ^ r.stats.size());
  for (const JobStat& s : r.stats) {
    h = mix64(h ^ s.name.size());
    for (const char c : s.name) {
      h = mix64(h ^ static_cast<std::uint64_t>(
                        static_cast<unsigned char>(c)));
    }
    h = mix64(h ^ static_cast<std::uint64_t>(s.kind));
    h = mix64(h ^ s.value);
  }
  return h;
}

std::vector<std::byte> encode_job_result(const JobResult& r) {
  std::vector<std::byte> out;
  append_u64(out, kResultVersion);
  append_string(out, r.algorithm);
  append_u64(out, r.solution_hash);
  append_u64(out, r.solution_size);
  append_u64(out, r.valid ? 1 : 0);
  const core::MrOutcome& o = r.outcome;
  append_u64(out, o.failed ? 1 : 0);
  append_u64(out, o.iterations);
  append_u64(out, o.rounds);
  append_u64(out, o.max_machine_words);
  append_u64(out, o.max_central_inbox);
  append_u64(out, o.total_communication);
  append_u64(out, o.space_violations);
  append_u64(out, r.stats.size());
  for (const JobStat& s : r.stats) {
    append_string(out, s.name);
    append_u64(out, static_cast<std::uint64_t>(s.kind));
    append_u64(out, s.value);
  }
  return out;
}

JobResult decode_job_result(std::span<const std::byte> bytes) {
  exec::wire::Reader r(bytes, "job result");
  const std::uint64_t version = r.u64("version");
  if (version != kResultVersion) {
    r.fail("unsupported result version " + std::to_string(version) +
           " (this build speaks version " + std::to_string(kResultVersion) +
           ")");
  }
  JobResult res;
  res.algorithm = r.string("algorithm name");
  if (res.algorithm.empty()) r.fail("empty algorithm name");
  res.solution_hash = r.u64("solution hash");
  res.solution_size = r.u64("solution size");
  res.valid = r.flag("valid");
  res.outcome.failed = r.flag("failed");
  res.outcome.iterations = r.u64("outcome");
  res.outcome.rounds = r.u64("outcome");
  res.outcome.max_machine_words = r.u64("outcome");
  res.outcome.max_central_inbox = r.u64("outcome");
  res.outcome.total_communication = r.u64("outcome");
  res.outcome.space_violations = r.u64("outcome");

  // Each stat costs at least its name length, kind, and value fields.
  const std::uint64_t nstats = r.count("stat count", 24);
  res.stats.reserve(nstats);
  for (std::uint64_t i = 0; i < nstats; ++i) {
    JobStat s;
    s.name = r.string("stat name", kMaxStatNameBytes);
    if (s.name.empty()) r.fail("empty stat name");
    const std::uint64_t kind = r.u64("stat kind");
    if (kind != static_cast<std::uint64_t>(JobStat::Kind::kCount) &&
        kind != static_cast<std::uint64_t>(JobStat::Kind::kPackedDouble)) {
      r.fail("unknown stat kind " + std::to_string(kind));
    }
    s.kind = static_cast<JobStat::Kind>(kind);
    s.value = r.u64("stat value");
    res.stats.push_back(std::move(s));
  }
  r.done("the stats");
  return res;
}

}  // namespace mrlr::jobs
