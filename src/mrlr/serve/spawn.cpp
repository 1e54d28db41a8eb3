#include "mrlr/serve/spawn.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "mrlr/serve/client.hpp"
#include "mrlr/util/require.hpp"
#include "mrlr/util/threads.hpp"

namespace mrlr::serve {

SpawnedDaemon::SpawnedDaemon(ServeOptions options, const std::string& host) {
  // Bound before the fork, so the port is known here and connections
  // queue on the listener until the daemon reaches run().
  auto daemon = std::make_unique<ServeDaemon>(host, 0, std::move(options));
  endpoint_ = {host, daemon->port()};
  std::fflush(nullptr);  // no buffered stdio duplicated into the daemon
  MRLR_DEBUG_REQUIRE(single_threaded(),
                     "serve: daemon fork from a multithreaded process");
  pid_ = ::fork();
  if (pid_ == 0) {
    int code = 0;
    try {
      daemon->run();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve: daemon failed: %s\n", e.what());
      code = 1;
    }
    ::_exit(code);
  }
  if (pid_ < 0) throw std::runtime_error("serve: fork failed");
  // Leaving scope closes this process's copy of the listener, so once
  // the daemon closes its own, connecting is refused.
}

bool SpawnedDaemon::shutdown() {
  if (pid_ > 0) {
    try {
      ServeClient(endpoint_, std::chrono::seconds(1)).shutdown();
    } catch (const std::exception&) {
      ::kill(pid_, SIGKILL);  // wait() then reports the kill
    }
  }
  return wait();
}

bool SpawnedDaemon::wait() {
  if (pid_ > 0) {
    int status = -1;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    exited_ok_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    pid_ = -1;
  }
  return exited_ok_;
}

}  // namespace mrlr::serve
