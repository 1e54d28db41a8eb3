#pragma once
// Shared parameters, outcome fields and small encoding helpers for the
// paper's MapReduce algorithms.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "mrlr/mrc/engine.hpp"
#include "mrlr/util/math.hpp"
#include "mrlr/util/rng.hpp"

namespace mrlr::core {

/// Knobs common to all algorithms. The paper's conventions:
///   * mu — space exponent: machines have ~n^{1+mu} words;
///   * c  — density exponent: the input has ~n^{1+c} items. When
///     negative, it is derived from the instance (m = n^{1+c});
///   * slack — constant factor absorbed by the O(n^{1+mu}) space bound
///     (Algorithm 1 needs 6*eta for its sample, Algorithm 4 needs 8*eta).
struct MrParams {
  double mu = 0.2;
  double c = -1.0;
  std::uint64_t seed = 1;
  double slack = 16.0;
  /// Safety valve for tests: abort the algorithm (failed=true) if it has
  /// not converged after this many outer iterations.
  std::uint64_t max_iterations = 10000;
  /// When false, the engine records space violations instead of throwing.
  bool enforce_space = true;
  /// Execution backend, forwarded to Topology::num_threads: 1 = serial,
  /// N > 1 = persistent N-thread pool, 0 = pool sized to the hardware.
  /// Results are byte-identical at any setting; only wall-clock changes.
  std::uint64_t num_threads = 1;
  /// Process-sharded backend, forwarded to Topology::num_shards by
  /// engine_topology (every driver is process-clean; see the contract
  /// on the peek accessors in mrc/engine.hpp). K > 1 = K persistent
  /// worker shard processes spawned once per job, 0/1 = in-process.
  /// Composes with num_threads: each shard runs its machine range on a
  /// shard-local pool of num_threads threads (K x T concurrent
  /// callbacks). Results stay byte-identical at any (K, T) setting.
  std::uint64_t num_shards = 1;
  /// Sample-size multiplier ablation (swept by the compare/boost/*
  /// bench scenarios): scales the paper's sampling probability
  /// (2*eta/|U_r| for Alg. 1, eta/|E_i| for Alg. 4).
  double sample_boost = 1.0;
};

/// The engine topology of one driver run: `machines` machines capped at
/// `words_per_machine` words each (both come from the driver's theorem),
/// broadcast trees of fanout max(2, fanout_base^mu) (the paper's n^mu-ary
/// trees, with the driver's n or m as the base), and the space audit and
/// backend knobs of `params`.
inline mrc::Topology engine_topology(const MrParams& params,
                                     std::uint64_t machines,
                                     std::uint64_t words_per_machine,
                                     std::uint64_t fanout_base) {
  return mrc::Topology{
      .num_machines = machines,
      .words_per_machine = words_per_machine,
      .fanout =
          std::max<std::uint64_t>(2, ipow_real(fanout_base, params.mu, 2)),
      .enforce = params.enforce_space,
      .num_threads = params.num_threads,
      .num_shards = std::max<std::uint64_t>(1, params.num_shards)};
}

/// Round-robin ownership of `count` items over `machines` machines.
/// Deterministic and balanced; items are placed "arbitrarily" in the
/// paper, and round-robin gives per-machine load count/M exactly.
inline mrc::MachineId owner_of(std::uint64_t item, std::uint64_t machines) {
  return static_cast<mrc::MachineId>(item % machines);
}

/// Bit-exact packing of weights into message words.
inline mrc::Word pack_double(double x) {
  return std::bit_cast<std::uint64_t>(x);
}
inline double unpack_double(mrc::Word w) { return std::bit_cast<double>(w); }

/// Outcome fields shared by all the paper's algorithms.
struct MrOutcome {
  bool failed = false;           ///< a paper "fail" line fired
  std::uint64_t iterations = 0;  ///< outer-loop iterations
  std::uint64_t rounds = 0;      ///< engine rounds consumed
  std::uint64_t max_machine_words = 0;
  std::uint64_t max_central_inbox = 0;
  std::uint64_t total_communication = 0;
  std::uint64_t space_violations = 0;

  void fill_from(const mrc::Metrics& m) {
    rounds = m.rounds();
    max_machine_words = m.max_machine_words();
    max_central_inbox = m.max_central_inbox();
    total_communication = m.total_communication();
    space_violations = m.violations();
  }

  friend bool operator==(const MrOutcome&, const MrOutcome&) = default;
};

}  // namespace mrlr::core
