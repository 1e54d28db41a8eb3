#pragma once
// The one text codec behind both plain-text instance formats (edge
// lists, graph/io.hpp; set systems, setcover/io.hpp) and the numeric
// flags of the command line. Its grammar:
//   * input is read line by line; blank lines and lines whose first
//     non-blank is '#' are comments, allowed anywhere;
//   * blanks are ' ', '\t', '\v', '\f' and '\r' (so CRLF reads as LF);
//   * a number is a whole blank-delimited token: an optional '+', then
//     std::from_chars syntax. Integers are unsigned decimal and must fit
//     their type; reals parse as operator>> would and must be finite;
//   * a file opens with the header "COUNT COUNT [weighted]", then holds
//     exactly the rows the header declares, and no content after them.
// LineReader failures throw ParseError("<format>: line N: <what>").
// Writer formats with std::to_chars, reals in their shortest round-trip
// form, so a text round trip is bit-exact.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace mrlr::text {

/// Thrown by every instance reader (text, .mgb, job-spec instance) on
/// malformed input, naming the format and the line or byte offset.
class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r';
}

/// Parses the number at `p`, returning its end, or nullptr when there is
/// none, it does not fit T, or it is not finite.
template <class T>
const char* scan_number(const char* p, const char* end, T& v) {
  if (p != end && *p == '+') {
    // std::from_chars takes a '-' for reals: after '+' it is a 2nd sign.
    if (++p != end && *p == '-') return nullptr;
  }
  const auto [next, ec] = std::from_chars(p, end, v);
  if (ec != std::errc{}) return nullptr;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return nullptr;
  }
  return next;
}

/// `token` as a T when the whole of it is one number; nullopt otherwise.
template <class T>
std::optional<T> parse_number(std::string_view token) {
  T v{};
  const char* end = token.data() + token.size();
  if (token.empty() || scan_number(token.data(), end, v) != end) {
    return std::nullopt;
  }
  return v;
}

/// Strict line-by-line reader of one text file. `what` names the field
/// being read in the error text ("expected <what>").
class LineReader {
 public:
  struct Header {
    std::uint64_t first = 0;
    std::uint64_t second = 0;
    bool weighted = false;
  };

  /// `format` ("edge list", "set system") must outlive the reader.
  LineReader(std::istream& is, std::string_view format)
      : is_(is), format_(format) {}

  /// Moves to the next content line; false at the end of the input.
  bool next_line();
  /// The first content line, "FIRST SECOND [weighted]".
  Header header(const char* first, const char* second);
  std::uint64_t u64(const char* what) { return number<std::uint64_t>(what); }
  double f64(const char* what) { return number<double>(what); }
  /// Refuses a token left on the line, `after` naming what it follows.
  void done(const char* after);
  /// After a loop that read `read` of the header's `count` rows, one per
  /// content line: refuses a short file and content after the last row.
  void finish(std::uint64_t read, std::uint64_t count, const char* noun);

  std::uint64_t line_no() const { return line_no_; }
  /// Throws ParseError for line `line` (0: the current line).
  [[noreturn]] void fail(const std::string& what,
                         std::uint64_t line = 0) const;

 private:
  template <class T>
  T number(const char* what) {
    skip_blanks();
    T v{};
    const char* next = scan_number(at_, end_, v);
    if (next == nullptr || (next != end_ && !is_blank(*next))) {
      fail(std::string("expected ") + what);
    }
    at_ = next;
    return v;
  }
  void skip_blanks() {
    while (at_ != end_ && is_blank(*at_)) ++at_;
  }

  std::istream& is_;
  std::string_view format_;
  std::string line_;
  const char* at_ = nullptr;
  const char* end_ = nullptr;
  std::uint64_t line_no_ = 0;
};

/// Batched writer of what LineReader reads: a line's fields are
/// separated by one space, and text reaches the stream in ~64 KiB
/// chunks. Call flush() after the last end_line().
class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {}

  void header(std::uint64_t first, std::uint64_t second, bool weighted);
  Writer& u64(std::uint64_t v) { return number(v); }
  Writer& f64(double v) { return number(v); }
  void end_line();
  void flush();

 private:
  template <class T>
  Writer& number(T v) {
    if (!buf_.empty() && buf_.back() != '\n') buf_ += ' ';
    char tmp[32];
    buf_.append(tmp, std::to_chars(tmp, tmp + sizeof(tmp), v).ptr);
    return *this;
  }

  std::ostream& os_;
  std::string buf_;
};

}  // namespace mrlr::text
