#include "mrlr/exec/executor.hpp"

#include <algorithm>
#include <thread>

#include "mrlr/exec/process_shard_executor.hpp"
#include "mrlr/exec/serial_executor.hpp"
#include "mrlr/exec/shard_worker.hpp"
#include "mrlr/exec/thread_pool_executor.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::exec {

std::unique_ptr<Executor> make_executor(std::uint64_t num_threads) {
  return make_executor(num_threads, 1);
}

std::uint64_t resolve_num_threads(std::uint64_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  return std::min<std::uint64_t>(num_threads, 1024);
}

std::unique_ptr<Executor> make_executor(std::uint64_t num_threads,
                                        std::uint64_t num_shards) {
  if (WorkerSession* session = active_worker_session()) {
    // This process is a TCP worker replaying a shipped job spec: the
    // driver re-runs with the coordinator's exact parameters (including
    // num_shards > 1), but its engine must serve this worker's shard
    // over the session channel instead of launching workers of its own.
    return std::make_unique<WorkerShardExecutor>(session);
  }
  const std::uint64_t n = resolve_num_threads(num_threads);
  if (num_shards > 1) {
    // The two knobs compose: K process shards, each running its machine
    // range on a shard-local pool of n threads. Pools are created after
    // the workers fork (ProcessShardExecutor / serve_job_rounds), so
    // the old fork-with-live-threads hazard never arises.
    return std::make_unique<ProcessShardExecutor>(
        static_cast<unsigned>(std::min<std::uint64_t>(num_shards, 256)),
        static_cast<unsigned>(n));
  }
  if (n == 1) return std::make_unique<SerialExecutor>();
  return std::make_unique<ThreadPoolExecutor>(static_cast<unsigned>(n));
}

}  // namespace mrlr::exec
