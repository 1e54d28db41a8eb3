#pragma once
// Machine-major storage for the per-item state a driver's machines keep
// across rounds (their worker-resident state under the process
// backend).
//
// Items are owned round-robin (owner_of), so an array indexed by global
// id holds slots of every machine on every page. Once the process
// backend forks its workers, each process writes, and so copy-on-write
// faults, every page of such an array, though it owns only its shard's
// slots. Two rules keep each process on its own pages:
//   * layout: machine o's slots are contiguous, its items o, o + M,
//     o + 2M, ... back to back (OwnerLayout for one slot per item,
//     OwnerRuns for a run of slots per item);
//   * owner fill: the host maps the storage without writing it
//     (OwnerArray), and each machine writes its own slots in a round
//     callback before any round reads them. A value-initialized
//     std::vector writes every page before the fork, so it cannot hold
//     such state.

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "mrlr/mrc/engine.hpp"

namespace mrlr::core {

/// One slot per item: item i (owner i % M) sits at slot
/// (i % M) * per + i / M, with per = ceil(items / M) slots per machine.
class OwnerLayout {
 public:
  OwnerLayout(std::uint64_t items, std::uint64_t machines);

  std::uint64_t slot(std::uint64_t item) const {
    return (item % machines_) * per_ + item / machines_;
  }
  /// Machine o's slots are [begin(o), end(o)).
  std::uint64_t begin(mrc::MachineId o) const { return o * per_; }
  std::uint64_t end(mrc::MachineId o) const;
  /// Slots to allocate: M * per, the last machines' tails unused.
  std::uint64_t size() const { return machines_ * per_; }

 private:
  std::uint64_t items_;
  std::uint64_t machines_;
  std::uint64_t per_;
};

/// A run of size(i) slots per item: item i's run starts at base(i), and
/// machine o's runs lie back to back, in item order, after those of
/// machines 0 to o - 1. The bases are a host-built, read-only table.
class OwnerRuns {
 public:
  template <class SizeFn>
  OwnerRuns(std::uint64_t items, std::uint64_t machines, SizeFn&& size)
      : base_(items) {
    for (std::uint64_t o = 0; o < machines; ++o) {
      for (std::uint64_t i = o; i < items; i += machines) {
        base_[i] = size_;
        size_ += size(i);
      }
    }
  }

  std::uint64_t base(std::uint64_t item) const { return base_[item]; }
  std::uint64_t size() const { return size_; }

 private:
  std::vector<std::uint64_t> base_;
  std::uint64_t size_ = 0;
};

namespace detail {
/// Maps `bytes` of fresh anonymous memory, or throws std::bad_alloc.
void* map_untouched(std::size_t bytes);
void unmap(void* at, std::size_t bytes) noexcept;
}  // namespace detail

/// `size` slots of T, mapped but never written here: each page is
/// faulted in by the process that first writes it, and reads zero
/// until then. The owner of a slot fills it.
template <class T>
class OwnerArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "owner-filled slots hold plain data");

 public:
  explicit OwnerArray(std::uint64_t size)
      : size_(size),
        data_(size == 0 ? nullptr
                        : static_cast<T*>(
                              detail::map_untouched(size * sizeof(T)))) {}
  ~OwnerArray() {
    if (data_ != nullptr) detail::unmap(data_, size_ * sizeof(T));
  }
  OwnerArray(const OwnerArray&) = delete;
  OwnerArray& operator=(const OwnerArray&) = delete;

  T& operator[](std::uint64_t slot) { return data_[slot]; }
  const T& operator[](std::uint64_t slot) const { return data_[slot]; }
  /// Null when size() is 0 (a run of no slots still has a start).
  T* data() { return data_; }
  const T* data() const { return data_; }
  std::uint64_t size() const { return size_; }

 private:
  std::uint64_t size_;
  T* data_;
};

}  // namespace mrlr::core
