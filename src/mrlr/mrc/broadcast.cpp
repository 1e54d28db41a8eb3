#include "mrlr/mrc/broadcast.hpp"

#include <utility>

#include "mrlr/util/require.hpp"

namespace mrlr::mrc {

MachineId tree_parent(MachineId m, std::uint64_t fanout) {
  MRLR_REQUIRE(m != kCentral, "root has no parent");
  return static_cast<MachineId>((static_cast<std::uint64_t>(m) - 1) / fanout);
}

unsigned tree_depth(MachineId m, std::uint64_t fanout) {
  unsigned d = 0;
  std::uint64_t x = m;
  while (x != 0) {
    x = (x - 1) / fanout;
    ++d;
  }
  return d;
}

std::uint64_t broadcast_rounds(std::uint64_t machines, std::uint64_t fanout) {
  if (machines <= 1) return 0;
  // Depth of the deepest machine in the heap-ordered fanout tree.
  unsigned depth = 0;
  std::uint64_t filled = 1;     // machines within current depth
  std::uint64_t level = 1;      // size of next level
  while (filled < machines) {
    level *= fanout;
    filled += level;
    ++depth;
  }
  return depth;
}

JobBroadcast::JobBroadcast(Engine& engine, std::string label, ApplyFn apply)
    : engine_(&engine),
      apply_(std::move(apply)),
      held_(engine.num_machines()),
      gen_(engine.num_machines(), 0) {
  const std::uint64_t machines = engine.num_machines();
  const std::uint64_t fanout = engine.topology().fanout;
  round_ = engine.define_round(
      std::move(label),
      [this, machines, fanout](MachineContext& ctx,
                               std::span<const Word> ps) {
        const MachineId m = ctx.id();
        const std::uint64_t gen = ps[0];
        const bool drain = ps[2] != 0;
        if (gen_[m] != gen && !ctx.messages().empty()) {
          const MessageView msg = ctx.messages()[0];
          held_[m].assign(msg.payload.begin(), msg.payload.end());
          gen_[m] = gen;
        }
        if (gen_[m] != gen) return;  // payload has not reached m yet
        if (drain) {
          if (apply_) apply_(ctx, held_[m]);
          return;
        }
        ctx.charge_resident(held_[m].size());
        for (std::uint64_t k = 1; k <= fanout; ++k) {
          const std::uint64_t child =
              static_cast<std::uint64_t>(m) * fanout + k;
          if (child >= machines) break;
          ctx.send(static_cast<MachineId>(child), held_[m]);
        }
      });
}

std::uint64_t JobBroadcast::run(std::vector<Word> payload) {
  // The central machine is coordinator-resident, so seeding its slot
  // host-side is process-clean.
  ++generation_;
  held_[kCentral] = std::move(payload);
  gen_[kCentral] = generation_;
  const std::uint64_t depth =
      broadcast_rounds(engine_->num_machines(), engine_->topology().fanout);
  for (std::uint64_t r = 1; r <= depth; ++r) {
    engine_->invoke_round(round_, {generation_, r, 0});
  }
  engine_->invoke_round(round_, {generation_, depth + 1, 1});
  return depth + 1;
}

}  // namespace mrlr::mrc
