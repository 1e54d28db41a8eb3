#pragma once
// The mrlr_serve daemon: a long-running process that accepts job
// submissions over the serve protocol (serve/protocol.hpp), admits
// them against a per-machine space budget (serve/admission.hpp), runs
// each admitted job in its own forked process group, and relays the
// JobResult back to the submitting client.
//
// Job lifecycle: submit --> admission (typed reject, or a job id with
// its projected words reserved) --> queued --> running --> completed /
// failed / cancelled (its client disconnected: the job leaves the queue
// or its process group is killed and reaped; its words are released).
//
// Concurrency model: none. run() is one poll(2) loop over the listener,
// every client connection, and every running job's result socketpair,
// so every job fork() comes from a single-threaded process. Requests
// are read whole when their socket turns readable, each read bounded
// by a 5 s timeout. docs/ARCHITECTURE.md §6 has the details.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace mrlr::serve {

struct ServeOptions {
  /// Total projected machine-words budget across admitted-and-
  /// unfinished jobs. 0 = unlimited (no admission rejections on space).
  std::uint64_t words_budget = 0;

  /// Executor slots: admitted jobs beyond this wait in the queue.
  std::uint64_t max_running = 2;

  /// Accept at most this many connections, serve them, and return from
  /// run() once the last one closes (0 = serve until shutdown).
  std::uint64_t max_connections = 0;

  /// Optional line logger (stderr in the CLI, captured in tests).
  std::function<void(const std::string&)> log;
};

class ServeDaemon {
 public:
  /// Binds the listener (port 0 = kernel-assigned, see port()).
  /// Throws exec::TransportError(kIo) if the OS refuses.
  ServeDaemon(const std::string& host, std::uint16_t port,
              ServeOptions options);
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  std::uint16_t port() const;

  /// The event loop. After a kServeShutdown request it closes the
  /// listener, rejects new submissions, and returns once every queued
  /// and running job has finished; with max_connections it returns once
  /// the last connection closes. No job process outlives it.
  void run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mrlr::serve
