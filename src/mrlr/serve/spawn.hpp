#pragma once
// A ServeDaemon in its own forked process, for programs that also run
// clients (tests, bench scenarios). The fork happens in the constructor,
// before the caller starts any client thread, so the daemon and every
// job it forks start from a single-threaded process.

#include <sys/types.h>

#include <string>

#include "mrlr/exec/shard_channel.hpp"
#include "mrlr/serve/server.hpp"

namespace mrlr::serve {

class SpawnedDaemon {
 public:
  /// Binds a daemon to an ephemeral port of `host` and forks it; it
  /// accepts connections from the return on. The caller must be
  /// single-threaded. Throws exec::TransportError if the bind fails and
  /// std::runtime_error if the fork does.
  explicit SpawnedDaemon(ServeOptions options,
                         const std::string& host = "127.0.0.1");
  ~SpawnedDaemon() { (void)shutdown(); }

  SpawnedDaemon(const SpawnedDaemon&) = delete;
  SpawnedDaemon& operator=(const SpawnedDaemon&) = delete;

  const exec::Endpoint& endpoint() const { return endpoint_; }

  /// Drains the daemon (ServeClient::shutdown) and reaps it; true iff it
  /// exited 0.
  bool shutdown();

  /// Reaps a daemon that stops by itself (max_connections, or a client's
  /// shutdown request); true iff it exited 0.
  bool wait();

 private:
  ::pid_t pid_ = -1;
  bool exited_ok_ = false;
  exec::Endpoint endpoint_;
};

}  // namespace mrlr::serve
