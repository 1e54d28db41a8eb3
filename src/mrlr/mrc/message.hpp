#pragma once
// Inter-machine messages. The cost model is word-based: one Word per
// vertex id, edge endpoint, weight, or counter. Message framing is free
// (as in the standard MRC accounting, which counts words communicated).
//
// The engine stores payloads in per-machine flat arenas (one contiguous
// Word buffer per sender, plus a small frame index), so a delivered
// message is read as a MessageView — a non-owning span into the
// sender's slab. There is no owning message type: a callback that needs
// a payload beyond its round copies the words into its own state.

#include <cstdint>
#include <span>

#include "mrlr/mrc/config.hpp"

namespace mrlr::mrc {

/// Zero-copy view of one delivered message: `payload` points into the
/// sending machine's arena slab, which the engine keeps alive for
/// exactly the round in which the message is readable. Views must not
/// be retained across rounds.
struct MessageView {
  MachineId from = 0;
  std::span<const Word> payload;

  std::uint64_t words() const { return payload.size(); }
};

}  // namespace mrlr::mrc
