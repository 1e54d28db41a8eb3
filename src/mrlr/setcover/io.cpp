#include "mrlr/setcover/io.hpp"

#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace mrlr::setcover {

namespace {

[[noreturn]] void fail(std::uint64_t line_no, const std::string& what) {
  throw ParseError("set system: line " + std::to_string(line_no) + ": " +
                   what);
}

/// Reads numbers off one line the way operator>> would: leading blanks
/// and a '+' are skipped, and a number ends at the first character that
/// cannot continue it.
class Scanner {
 public:
  explicit Scanner(std::string_view line)
      : at_(line.data()), end_(line.data() + line.size()) {}

  template <class T>
  bool number(T& v) {
    skip_blanks();
    if (at_ != end_ && *at_ == '+') ++at_;
    const auto [next, ec] = std::from_chars(at_, end_, v);
    if (ec != std::errc{}) return false;
    at_ = next;
    return true;
  }

  /// The next blank-delimited word, empty at the end of the line.
  std::string_view token() {
    skip_blanks();
    const char* const start = at_;
    while (at_ != end_ && !is_blank(*at_)) ++at_;
    return {start, static_cast<std::size_t>(at_ - start)};
  }

  bool at_end() {
    skip_blanks();
    return at_ == end_;
  }

 private:
  static bool is_blank(char c) {
    return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r';
  }
  void skip_blanks() {
    while (at_ != end_ && is_blank(*at_)) ++at_;
  }

  const char* at_;
  const char* end_;
};

}  // namespace

void write_set_system(const SetSystem& sys, std::ostream& os) {
  os << sys.num_sets() << ' ' << sys.universe_size() << " weighted\n";
  for (SetId i = 0; i < sys.num_sets(); ++i) {
    os << sys.weight(i) << ' ' << sys.set(i).size();
    for (const ElementId j : sys.set(i)) os << ' ' << j;
    os << '\n';
  }
}

SetSystem read_set_system(std::istream& is) {
  std::string line;
  std::uint64_t line_no = 0;
  auto next_content_line = [&]() -> bool {
    while (std::getline(is, line)) {
      ++line_no;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      const std::size_t i = line.find_first_not_of(" \t");
      if (i == std::string::npos || line[i] == '#') continue;
      return true;
    }
    return false;
  };

  if (!next_content_line()) throw ParseError("set system: missing header");
  const std::uint64_t header_line = line_no;
  Scanner header(line);
  std::uint64_t n = 0, m = 0;
  if (!header.number(n) || !header.number(m)) {
    fail(line_no, "malformed header counts");
  }
  const std::string_view flag = header.token();
  const bool weighted = !flag.empty();
  if (weighted && flag != "weighted") {
    fail(line_no, "unrecognized header flag '" + std::string(flag) + "'");
  }
  if (!header.at_end()) fail(line_no, "trailing characters after header");
  // Element ids are 32-bit: a larger universe would truncate ids that
  // pass the j < m check.
  if (m > std::uint64_t{1} << 32) {
    fail(line_no, "universe exceeds the 32-bit element-id limit");
  }

  // The CSR arrays grow geometrically: no header or row count sizes an
  // allocation, so a forged count fails as ParseError (truncated file,
  // short row) after allocating no more than the rows that back it.
  std::vector<std::uint64_t> offsets{0};
  std::vector<ElementId> elements;
  std::vector<double> weights;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!next_content_line()) {
      throw ParseError("set system: truncated file: " + std::to_string(i) +
                       " of " + std::to_string(n) + " sets read");
    }
    Scanner row(line);
    double w = 1.0;
    if (weighted) {
      if (!row.number(w)) fail(line_no, "missing set weight");
      if (!std::isfinite(w) || w <= 0.0) {
        fail(line_no, "set weight must be finite and positive");
      }
    }
    std::uint64_t k = 0;
    if (!row.number(k)) fail(line_no, "missing set size");
    for (std::uint64_t t = 0; t < k; ++t) {
      std::uint64_t j = 0;
      if (!row.number(j)) {
        fail(line_no, "set row shorter than its declared size");
      }
      if (j >= m) fail(line_no, "element outside universe");
      elements.push_back(static_cast<ElementId>(j));
    }
    if (!row.at_end()) fail(line_no, "trailing characters after set row");
    offsets.push_back(elements.size());
    weights.push_back(w);
  }
  if (next_content_line()) {
    fail(line_no, "content after the header's " + std::to_string(n) +
                      " sets");
  }
  // Like the binary spec decoder: a universe larger than the element
  // ids the rows carry cannot be covered, and must not size the element
  // index the build allocates.
  if (m > elements.size()) {
    fail(header_line, "universe " + std::to_string(m) + " exceeds the " +
                          std::to_string(elements.size()) +
                          " element ids the set rows carry");
  }
  return SetSystem(m, std::move(offsets), std::move(elements),
                   std::move(weights));
}

}  // namespace mrlr::setcover
