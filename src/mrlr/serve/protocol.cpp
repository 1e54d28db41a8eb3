#include "mrlr/serve/protocol.hpp"

#include "mrlr/exec/shard_transport.hpp"

namespace mrlr::serve {

namespace {

using exec::wire::append_bytes;
using exec::wire::append_string;
using exec::wire::append_u64;

constexpr std::uint64_t kProtoVersion = 1;

/// Messages are one-line diagnostics, never bulk data; an adversarial
/// length fails the cap before any allocation.
constexpr std::uint64_t kMaxMessageBytes = 1 << 16;

/// A reader over one reply that has checked its version lane.
exec::wire::Reader open_reply(std::span<const std::byte> bytes,
                              const char* what) {
  exec::wire::Reader r(bytes, "serve payload");
  const std::uint64_t v = r.u64("version");
  if (v != kProtoVersion) {
    r.fail(std::string(what) + " version " + std::to_string(v) +
           " (this build speaks version " + std::to_string(kProtoVersion) +
           ")");
  }
  return r;
}

}  // namespace

std::string_view reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kMalformedSpec: return "malformed-spec";
    case RejectReason::kUnknownAlgorithm: return "unknown-algorithm";
    case RejectReason::kNeverFits: return "never-fits";
    case RejectReason::kOverBudget: return "over-budget";
    case RejectReason::kShuttingDown: return "shutting-down";
  }
  return "unknown";
}

std::vector<std::byte> encode_admission_reply(const AdmissionReply& r) {
  std::vector<std::byte> out;
  append_u64(out, kProtoVersion);
  append_u64(out, r.accepted ? 1 : 0);
  append_u64(out, r.job_id);
  append_u64(out, static_cast<std::uint64_t>(r.reason));
  append_string(out, r.message);
  append_u64(out, r.projected_words);
  append_u64(out, r.budget_words);
  append_u64(out, r.words_in_use);
  return out;
}

AdmissionReply decode_admission_reply(std::span<const std::byte> bytes) {
  exec::wire::Reader rd = open_reply(bytes, "admission reply");
  AdmissionReply r;
  r.accepted = rd.flag("accepted");
  r.job_id = rd.u64("job id");
  const std::uint64_t reason = rd.u64("reject reason");
  if (reason > static_cast<std::uint64_t>(RejectReason::kShuttingDown)) {
    rd.fail("unknown reject reason " + std::to_string(reason));
  }
  r.reason = static_cast<RejectReason>(reason);
  if (r.accepted && r.reason != RejectReason::kNone) {
    rd.fail("accepted reply carries reject reason " +
                std::string(reject_reason_name(r.reason)));
  }
  if (!r.accepted && r.reason == RejectReason::kNone) {
    rd.fail("rejected reply carries no reason");
  }
  r.message = rd.string("message", kMaxMessageBytes);
  r.projected_words = rd.u64("projected words");
  r.budget_words = rd.u64("budget words");
  r.words_in_use = rd.u64("words in use");
  rd.done("the admission reply");
  return r;
}

std::vector<std::byte> encode_result_reply(const ResultReply& r) {
  std::vector<std::byte> out;
  append_u64(out, kProtoVersion);
  append_u64(out, r.job_id);
  append_u64(out, r.ok ? 1 : 0);
  append_string(out, r.error);
  append_u64(out, r.queue_wait_ns);
  append_u64(out, r.run_ns);
  append_u64(out, r.result.size());
  append_bytes(out, r.result.data(), r.result.size());
  return out;
}

ResultReply decode_result_reply(std::span<const std::byte> bytes) {
  exec::wire::Reader rd = open_reply(bytes, "result reply");
  ResultReply r;
  r.job_id = rd.u64("job id");
  r.ok = rd.flag("ok");
  r.error = rd.string("error", kMaxMessageBytes);
  r.queue_wait_ns = rd.u64("queue wait");
  r.run_ns = rd.u64("run time");
  const std::uint64_t len = rd.u64("result bytes");
  const std::span<const std::byte> result = rd.bytes(len, "result bytes");
  r.result.assign(result.begin(), result.end());
  if (r.ok && r.result.empty()) {
    rd.fail("ok result reply carries no result bytes");
  }
  if (!r.ok && r.error.empty()) {
    rd.fail("failed result reply carries no error text");
  }
  rd.done("the result reply");
  return r;
}

std::vector<std::byte> encode_stats_reply(const StatsReply& r) {
  std::vector<std::byte> out;
  append_u64(out, kProtoVersion);
  append_u64(out, r.jobs_submitted);
  append_u64(out, r.jobs_accepted);
  append_u64(out, r.jobs_rejected);
  append_u64(out, r.jobs_completed);
  append_u64(out, r.jobs_failed);
  append_u64(out, r.jobs_cancelled);
  append_u64(out, r.jobs_running);
  append_u64(out, r.jobs_queued);
  append_u64(out, r.words_budget);
  append_u64(out, r.words_in_use);
  append_u64(out, r.uptime_ms);
  return out;
}

StatsReply decode_stats_reply(std::span<const std::byte> bytes) {
  exec::wire::Reader rd = open_reply(bytes, "stats reply");
  StatsReply r;
  r.jobs_submitted = rd.u64("stats");
  r.jobs_accepted = rd.u64("stats");
  r.jobs_rejected = rd.u64("stats");
  r.jobs_completed = rd.u64("stats");
  r.jobs_failed = rd.u64("stats");
  r.jobs_cancelled = rd.u64("stats");
  r.jobs_running = rd.u64("stats");
  r.jobs_queued = rd.u64("stats");
  r.words_budget = rd.u64("stats");
  r.words_in_use = rd.u64("stats");
  r.uptime_ms = rd.u64("stats");
  rd.done("the stats reply");
  return r;
}

std::vector<std::byte> encode_health_reply(const HealthReply& r) {
  std::vector<std::byte> out;
  append_u64(out, kProtoVersion);
  append_u64(out, r.shutting_down ? 1 : 0);
  append_u64(out, r.jobs_running);
  append_u64(out, r.uptime_ms);
  return out;
}

HealthReply decode_health_reply(std::span<const std::byte> bytes) {
  exec::wire::Reader rd = open_reply(bytes, "health reply");
  HealthReply r;
  r.shutting_down = rd.flag("shutting down");
  r.jobs_running = rd.u64("jobs running");
  r.uptime_ms = rd.u64("uptime");
  rd.done("the health reply");
  return r;
}

}  // namespace mrlr::serve
