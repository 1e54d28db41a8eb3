#pragma once
// The one little-endian codec behind every binary wire format: the
// frame header and handshake, the job bootstrap, round control and
// status frames, the engine's shard data plane, job specs and results,
// serve replies and telemetry windows.
//
// Rules every format follows:
//   * integers are u64 lanes; only fixed-layout headers (frame header,
//     handshake, message records) pack u16/u32 fields via store/load;
//   * strings and byte blobs carry a u64 length prefix;
//   * a count is checked against the bytes left before anything is
//     allocated for it (Reader::count);
//   * a payload is consumed exactly: trailing bytes are refused
//     (Reader::done).
//
// Decoders read a payload only through a Reader, whose every method
// checks the bytes left first and throws TransportError(kBadPayload),
// prefixed with the reader's context ("job spec: ..."), instead of
// running off the end.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mrlr::exec::wire {

static_assert(std::endian::native == std::endian::little,
              "the wire formats store integers in host byte order");

/// Writes `v` at `at` (no alignment needed) and returns the position
/// after it, for encoders that size their buffer once.
template <class T>
std::byte* store(std::byte* at, T v) {
  std::memcpy(at, &v, sizeof(T));
  return at + sizeof(T);
}

/// Reads a T from `at`, which the caller has bounds-checked.
template <class T>
T load(const std::byte* at) {
  T v{};
  std::memcpy(&v, at, sizeof(T));
  return v;
}

inline void append_bytes(std::vector<std::byte>& out, const void* data,
                         std::size_t n) {
  if (n == 0) return;
  const std::size_t at = out.size();
  out.resize(at + n);
  std::memcpy(out.data() + at, data, n);
}

inline void append_u64(std::vector<std::byte>& out, std::uint64_t v) {
  append_bytes(out, &v, sizeof(v));
}

/// u64 length, then the bytes.
inline void append_string(std::vector<std::byte>& out, std::string_view s) {
  append_u64(out, s.size());
  append_bytes(out, s.data(), s.size());
}

/// Bounds-checked sequential reader over one payload. `what` names the
/// field being read in the error text.
class Reader {
 public:
  /// `context` must outlive the reader; it prefixes every error.
  Reader(std::span<const std::byte> bytes, std::string_view context)
      : bytes_(bytes), context_(context) {}

  std::uint64_t u64(const char* what) {
    if (left() < 8) truncated(what);
    const std::uint64_t v = load<std::uint64_t>(bytes_.data() + at_);
    at_ += 8;
    return v;
  }

  /// A u64 lane that must be 0 or 1.
  bool flag(const char* what);

  /// The next `n` bytes.
  std::span<const std::byte> bytes(std::uint64_t n, const char* what);

  /// A length-prefixed string of at most `max_len` bytes; a longer
  /// length fails the cap before any allocation.
  std::string string(
      const char* what,
      std::uint64_t max_len = std::numeric_limits<std::uint64_t>::max());

  /// An item count, each item taking at least `min_item_bytes` bytes of
  /// what is left, so a forged count cannot drive an allocation the
  /// payload does not back.
  std::uint64_t count(const char* what, std::uint64_t min_item_bytes);

  /// Everything not read yet.
  std::span<const std::byte> rest();

  /// Refuses bytes left over after the last field, `after` naming it.
  void done(const char* after) const;

  /// Throws TransportError(kBadPayload): "<context>: <what>".
  [[noreturn]] void fail(const std::string& what) const;

 private:
  std::size_t left() const { return bytes_.size() - at_; }
  [[noreturn]] void truncated(const char* what) const;

  std::span<const std::byte> bytes_;
  std::size_t at_ = 0;
  std::string_view context_;
};

}  // namespace mrlr::exec::wire
