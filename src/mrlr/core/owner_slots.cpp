#include "mrlr/core/owner_slots.hpp"

#include <sys/mman.h>

#include <new>

#include "mrlr/util/math.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::core {

OwnerLayout::OwnerLayout(std::uint64_t items, std::uint64_t machines)
    : items_(items), machines_(machines), per_(0) {
  MRLR_REQUIRE(machines >= 1, "OwnerLayout needs at least one machine");
  per_ = ceil_div(items, machines);
}

std::uint64_t OwnerLayout::end(mrc::MachineId o) const {
  // Machine o owns the items o, o + M, ... below items_.
  return begin(o) + (o < items_ ? (items_ - o - 1) / machines_ + 1 : 0);
}

namespace detail {

void* map_untouched(std::size_t bytes) {
  void* at = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (at == MAP_FAILED) throw std::bad_alloc();
  return at;
}

void unmap(void* at, std::size_t bytes) noexcept { ::munmap(at, bytes); }

}  // namespace detail

}  // namespace mrlr::core
