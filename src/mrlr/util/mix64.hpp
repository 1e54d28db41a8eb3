#pragma once
// The splitmix64 finalizer, shared by every on-disk / on-wire checksum
// in the library. The formats share only this mix, not the
// construction around it: the .mgb container trailer is one rolling
// chain (h = mix64(h ^ x)), while the shard-transport frame checksum
// runs four interleaved chains and folds them (exec::frame_checksum).
// Centralized so a change to the mix cannot silently fork the formats.

#include <cstdint>

namespace mrlr {

constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

}  // namespace mrlr
