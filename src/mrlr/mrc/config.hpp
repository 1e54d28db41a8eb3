#pragma once
// Cluster topology for the simulated MapReduce (MRC / MPC) model of
// Karloff, Suri and Vassilvitskii, as used by the paper.
//
// The paper's conventions (Section 1.3): a graph with n vertices and
// m = n^{1+c} edges is processed by M = n^{c-mu} machines, each with
// O(n^{1+mu}) words of memory, c > mu > 0. The simulator makes the
// constants explicit: `words_per_machine` is the hard cap the engine
// audits every round.

#include <cstdint>

namespace mrlr::mrc {

using MachineId = std::uint32_t;
using Word = std::uint64_t;

/// Identity of the central machine (the paper's "blue lines" run here).
inline constexpr MachineId kCentral = 0;

struct Topology {
  /// Number of machines, M >= 1.
  std::uint64_t num_machines = 1;

  /// Per-machine memory cap in words. Audited each round against the
  /// maximum of (inbox words, declared resident words, outbox words).
  std::uint64_t words_per_machine = 1ull << 20;

  /// Fanout of broadcast / converge-cast trees (the paper's n^mu-ary
  /// trees in Theorem 2.4 and Section 4.1). Must be >= 2.
  std::uint64_t fanout = 2;

  /// When true the engine throws SpaceLimitExceeded on a violation;
  /// when false it records the violation in the metrics and continues
  /// (useful for benches that chart how close algorithms run to the cap).
  bool enforce = true;

  /// Execution backend for simulating the machines of one round:
  /// 1 = serial (the historical sequential simulation), N > 1 = a
  /// persistent pool of N threads, 0 = a pool sized to the hardware.
  /// Never affects results: rounds, words, traces, and algorithm
  /// outputs are byte-identical at any setting.
  std::uint64_t num_threads = 1;

  /// Process-sharded backend: K > 1 partitions the machines into K
  /// contiguous shards, shard 0 in the coordinator process and each
  /// other shard in a persistent worker process that ships its staged
  /// arenas back over the shard transport. Composes with num_threads:
  /// every shard runs its machine range on a shard-local pool of that
  /// many threads (K x T concurrent callbacks job-wide). Requires a
  /// process-clean round callback (see exec/process_shard_executor.hpp).
  /// 0 or 1 = no sharding. Results stay byte-identical to the serial
  /// backend at any (K, T).
  std::uint64_t num_shards = 1;
};

}  // namespace mrlr::mrc
