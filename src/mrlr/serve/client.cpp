#include "mrlr/serve/client.hpp"

#include <unistd.h>

#include <atomic>

#include "mrlr/exec/shard_transport.hpp"

namespace mrlr::serve {

namespace {

/// Connection nonce: pid + a process-wide counter, so two clients in
/// one process (or two processes on one host) never collide in the
/// daemon's handshake ledger.
std::uint64_t next_nonce() {
  static std::atomic<std::uint64_t> counter{0};
  return (static_cast<std::uint64_t>(::getpid()) << 32) |
         (counter.fetch_add(1, std::memory_order_relaxed) & 0xFFFFFFFFu);
}

}  // namespace

ServeClient::ServeClient(const exec::Endpoint& ep,
                         std::chrono::milliseconds connect_timeout)
    : ch_(exec::tcp_connect(ep, connect_timeout)) {
  ch_.set_read_timeout(std::chrono::seconds(10));
  exec::handshake_connect(ch_, /*shard=*/0, next_nonce());
  ch_.set_read_timeout(std::chrono::milliseconds(0));
}

AdmissionReply ServeClient::submit(const jobs::JobSpec& spec) {
  const std::uint64_t seq = next_sequence_++;
  exec::write_frame(ch_, exec::FrameKind::kJobSubmit, 0, seq,
                    jobs::encode_job_spec(spec));
  const exec::Frame reply =
      exec::expect_frame(ch_, exec::FrameKind::kJobAdmission, 0, seq);
  const AdmissionReply admission = decode_admission_reply(reply.payload);
  if (admission.accepted) last_submit_sequence_ = seq;
  return admission;
}

ResultReply ServeClient::wait_result() {
  const exec::Frame frame = exec::expect_frame(
      ch_, exec::FrameKind::kJobResult, 0, last_submit_sequence_);
  return decode_result_reply(frame.payload);
}

jobs::JobResult ServeClient::decode_result(const ResultReply& reply) {
  return jobs::decode_job_result(reply.result);
}

exec::Frame ServeClient::request(exec::FrameKind kind) {
  const std::uint64_t seq = next_sequence_++;
  exec::write_frame(ch_, kind, 0, seq, {});
  return exec::expect_frame(ch_, kind, 0, seq);
}

StatsReply ServeClient::stats() {
  return decode_stats_reply(request(exec::FrameKind::kServeStats).payload);
}

HealthReply ServeClient::health() {
  return decode_health_reply(request(exec::FrameKind::kServeHealth).payload);
}

void ServeClient::shutdown() { (void)request(exec::FrameKind::kServeShutdown); }

void ServeClient::abandon() { ch_.close_now(); }

}  // namespace mrlr::serve
