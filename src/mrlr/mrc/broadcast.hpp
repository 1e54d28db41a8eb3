#pragma once
// Broadcast trees (Theorem 2.4 and Section 4.1 of the paper). Sending a
// payload of B words from the central machine directly to all M machines
// would cost B*M outbox words on the central machine, which can exceed
// its O(n^{1+mu}) cap; instead machines are arranged in a fanout-F tree
// (F = topology().fanout, the paper's n^mu), and the payload is
// forwarded level by level in ceil(log_F M) genuine engine rounds.
//
// JobBroadcast runs *real* rounds on the engine: the traffic is audited
// against the space cap like any algorithm traffic, so the space-safety
// claim of Theorem 2.4 is checked rather than assumed.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "mrlr/mrc/engine.hpp"

namespace mrlr::mrc {

/// Position of machine m in the fanout-F heap-ordered tree rooted at the
/// central machine: children of m are m*F+1 ... m*F+F.
MachineId tree_parent(MachineId m, std::uint64_t fanout);

/// Depth of machine m in that tree (root has depth 0).
unsigned tree_depth(MachineId m, std::uint64_t fanout);

/// Rounds a fanout-`fanout` broadcast needs to reach `machines` machines.
std::uint64_t broadcast_rounds(std::uint64_t machines, std::uint64_t fanout);

/// Tree broadcast from the central machine: one registered round,
/// re-invoked depth+1 times per run(). Construct before the job starts
/// (the constructor registers the round). In each of the depth
/// forwarding rounds every machine holding the current generation's
/// payload charges it as resident and sends it to its children, so the
/// largest outbox is fanout x |payload|. Each machine stores the first
/// copy it receives; the final (drain) round consumes the leaf
/// deliveries and runs `apply` on every machine with the payload — the
/// hook is where a driver updates its per-machine worker-resident state
/// from the broadcast. All holder state is per-machine slots mutated
/// only by that machine's own callback, so persistent workers carry it
/// across rounds. On a single-machine topology depth is 0, and the
/// drain round still runs so `apply` fires.
class JobBroadcast {
 public:
  using ApplyFn = std::function<void(MachineContext&, std::span<const Word>)>;

  JobBroadcast(Engine& engine, std::string label, ApplyFn apply = nullptr);

  /// Broadcasts `payload` from the central machine; returns rounds
  /// consumed. Host-side (the central machine is coordinator-resident).
  std::uint64_t run(std::vector<Word> payload);

 private:
  Engine* engine_;
  ApplyFn apply_;
  RoundId round_;
  std::uint64_t generation_ = 0;
  // Per-machine slots: only machine m's callback touches index m.
  std::vector<std::vector<Word>> held_;
  std::vector<std::uint64_t> gen_;
};

}  // namespace mrlr::mrc
