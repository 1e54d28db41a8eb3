#include "mrlr/exec/wire.hpp"

#include "mrlr/exec/shard_transport.hpp"

namespace mrlr::exec::wire {

bool Reader::flag(const char* what) {
  const std::uint64_t v = u64(what);
  if (v > 1) fail(std::string(what) + " flag must be 0 or 1");
  return v == 1;
}

std::span<const std::byte> Reader::bytes(std::uint64_t n, const char* what) {
  if (left() < n) truncated(what);
  const std::span<const std::byte> out = bytes_.subspan(at_, n);
  at_ += n;
  return out;
}

std::string Reader::string(const char* what, std::uint64_t max_len) {
  const std::uint64_t len = u64(what);
  if (len > max_len) {
    fail(std::string(what) + " length " + std::to_string(len) +
         " exceeds the cap");
  }
  const std::span<const std::byte> s = bytes(len, what);
  return {reinterpret_cast<const char*>(s.data()), s.size()};
}

std::uint64_t Reader::count(const char* what, std::uint64_t min_item_bytes) {
  const std::uint64_t n = u64(what);
  if (n > left() / min_item_bytes) {
    fail(std::string(what) + " " + std::to_string(n) +
         " exceeds the remaining payload");
  }
  return n;
}

std::span<const std::byte> Reader::rest() {
  const std::span<const std::byte> out = bytes_.subspan(at_);
  at_ = bytes_.size();
  return out;
}

void Reader::done(const char* after) const {
  if (left() != 0) {
    fail(std::to_string(left()) + " trailing bytes after " + after);
  }
}

void Reader::fail(const std::string& what) const {
  throw TransportError(TransportError::Kind::kBadPayload,
                       std::string(context_) + ": " + what);
}

void Reader::truncated(const char* what) const {
  fail(std::string("truncated inside ") + what);
}

}  // namespace mrlr::exec::wire
