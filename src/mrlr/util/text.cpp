#include "mrlr/util/text.hpp"

#include <istream>
#include <ostream>

namespace mrlr::text {

bool LineReader::next_line() {
  while (std::getline(is_, line_)) {
    ++line_no_;
    at_ = line_.data();
    end_ = at_ + line_.size();
    skip_blanks();
    if (at_ != end_ && *at_ != '#') return true;
  }
  return false;
}

LineReader::Header LineReader::header(const char* first,
                                      const char* second) {
  if (!next_line()) throw ParseError(std::string(format_) + ": missing header");
  Header h;
  h.first = u64(first);
  h.second = u64(second);
  skip_blanks();
  const char* const flag = at_;
  while (at_ != end_ && !is_blank(*at_)) ++at_;
  h.weighted = at_ != flag;
  if (h.weighted && std::string_view(flag, at_ - flag) != "weighted") {
    fail("unrecognized header flag '" + std::string(flag, at_) + "'");
  }
  done("header");
  return h;
}

void LineReader::done(const char* after) {
  skip_blanks();
  if (at_ != end_) fail(std::string("trailing characters after ") + after);
}

void LineReader::finish(std::uint64_t read, std::uint64_t count,
                        const char* noun) {
  if (read < count) {
    throw ParseError(std::string(format_) + ": truncated file: " +
                     std::to_string(read) + " of " + std::to_string(count) +
                     " " + noun + " read");
  }
  if (next_line()) {
    fail("content after the header's " + std::to_string(count) + " " + noun);
  }
}

void LineReader::fail(const std::string& what, std::uint64_t line) const {
  throw ParseError(std::string(format_) + ": line " +
                   std::to_string(line == 0 ? line_no_ : line) + ": " + what);
}

void Writer::header(std::uint64_t first, std::uint64_t second,
                    bool weighted) {
  u64(first).u64(second);
  if (weighted) buf_ += " weighted";
  end_line();
}

void Writer::end_line() {
  buf_ += '\n';
  if (buf_.size() >= std::size_t{1} << 16) flush();
}

void Writer::flush() {
  os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
}

}  // namespace mrlr::text
