#include "mrlr/exec/worker_launcher.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include <unistd.h>

#include "mrlr/exec/shard_worker.hpp"
#include "mrlr/util/require.hpp"
#include "mrlr/util/threads.hpp"

namespace mrlr::exec {

ForkLauncher::ForkLauncher(ShardJobPlane* plane, std::uint64_t num_machines,
                           std::chrono::milliseconds timeout)
    : plane_(plane), num_machines_(num_machines), timeout_(timeout) {}

LaunchedWorker ForkLauncher::launch(std::uint32_t shard,
                                    std::uint64_t nonce) {
  auto [parent_end, child_end] = make_socketpair_channel();
  std::fflush(nullptr);  // no buffered stdio duplicated into workers
  // Shard-local pools start only after every worker has forked.
  MRLR_DEBUG_REQUIRE(single_threaded(),
                     "fork launcher: fork from a multithreaded process");
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    throw TransportError(TransportError::Kind::kIo,
                         "fork launcher: fork failed for shard " +
                             std::to_string(shard) + ": " +
                             std::strerror(err));
  }
  if (pid == 0) {
    // Worker: drop the coordinator ends we inherited — ours and every
    // earlier worker's — so a dead peer means EOF, not a silent
    // half-open channel held alive by an unrelated child.
    parent_end.close_now();
    for (const int fd : coordinator_fds_) ::close(fd);
    forked_worker_main(child_end, shard, nonce, plane_, num_machines_);
    // never returns
  }
  // Coordinator: child_end closes when it goes out of scope, which is
  // what turns a dead worker into EOF instead of a hang.
  coordinator_fds_.push_back(parent_end.fd());
  LaunchedWorker w;
  w.pid = pid;
  w.channel = std::make_unique<FdChannel>(std::move(parent_end));
  return w;
}

TcpLauncher::TcpLauncher(std::vector<Endpoint> endpoints,
                         std::chrono::milliseconds connect_timeout)
    : endpoints_(std::move(endpoints)), connect_timeout_(connect_timeout) {}

LaunchedWorker TcpLauncher::launch(std::uint32_t shard,
                                   std::uint64_t /*nonce*/) {
  // shard 0 is the coordinator; worker shards map to endpoints in order.
  const Endpoint& ep = endpoints_.at(shard - 1);
  LaunchedWorker w;
  w.pid = -1;
  w.channel =
      std::make_unique<TcpChannel>(tcp_connect(ep, connect_timeout_));
  return w;
}

namespace {
const ProcessBackendConfig* g_backend_config = nullptr;
}  // namespace

const ProcessBackendConfig* process_backend_config() {
  return g_backend_config;
}

ScopedProcessBackendConfig::ScopedProcessBackendConfig(
    ProcessBackendConfig config)
    : config_(std::move(config)), prev_(g_backend_config) {
  g_backend_config = &config_;
}

ScopedProcessBackendConfig::~ScopedProcessBackendConfig() {
  g_backend_config = prev_;
}

std::unique_ptr<WorkerLauncher> make_worker_launcher(
    ShardJobPlane* plane, std::uint64_t num_machines, unsigned shards) {
  const ProcessBackendConfig* cfg = process_backend_config();
  if (cfg != nullptr && !cfg->workers.empty()) {
    if (cfg->workers.size() + 1 < shards) {
      throw ExecError(
          "process-shard: the job needs " + std::to_string(shards - 1) +
          " workers but --workers lists only " +
          std::to_string(cfg->workers.size()) +
          " endpoints (shard 0 runs in the coordinator)");
    }
    return std::make_unique<TcpLauncher>(cfg->workers,
                                         cfg->connect_timeout);
  }
  return std::make_unique<ForkLauncher>(
      plane, num_machines,
      cfg != nullptr ? cfg->connect_timeout : kDefaultWorkerTimeout);
}

}  // namespace mrlr::exec
