#pragma once
// Client side of the serve protocol: one connection to an mrlr_serve
// daemon, speaking submit / stats / health / shutdown requests. Used by
// `mrlr_cli submit`, the serve bench scenarios, and the protocol tests.
//
// The client owns a per-connection monotonically increasing sequence
// counter; every reply is validated (expect_frame + payload decoding)
// against the request it answers, so a reordered or corrupt reply is a
// typed TransportError, never a silently wrong result.

#include <chrono>
#include <cstdint>

#include "mrlr/exec/shard_channel.hpp"
#include "mrlr/jobs/job_result.hpp"
#include "mrlr/jobs/job_spec.hpp"
#include "mrlr/serve/protocol.hpp"

namespace mrlr::serve {

class ServeClient {
 public:
  /// Connects and performs the hello/ack handshake. Throws the
  /// TransportError taxonomy on refusal or timeout.
  explicit ServeClient(const exec::Endpoint& ep,
                       std::chrono::milliseconds connect_timeout =
                           std::chrono::seconds(10));

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Sends one kJobSubmit and returns the daemon's admission decision.
  /// On acceptance the job is running (or queued) daemon-side; call
  /// wait_result() next. Does not throw on rejection — a typed reject
  /// is a protocol answer, not a transport failure.
  AdmissionReply submit(const jobs::JobSpec& spec);

  /// Blocks until the kJobResult frame for the last accepted submit
  /// arrives and returns it decoded. `decode_result` unpacks the
  /// embedded JobResult of an ok reply.
  ResultReply wait_result();
  static jobs::JobResult decode_result(const ResultReply& reply);

  StatsReply stats();
  HealthReply health();

  /// Asks the daemon to drain and stop; returns once it acknowledges.
  void shutdown();

  /// Drops the connection without protocol goodbye — how the
  /// disconnect-mid-job tests model a vanished client.
  void abandon();

 private:
  /// One payload-less request and its reply of the same kind.
  exec::Frame request(exec::FrameKind kind);

  exec::TcpChannel ch_;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t last_submit_sequence_ = 0;
};

}  // namespace mrlr::serve
