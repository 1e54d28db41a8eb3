#include "mrlr/graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <string>
#include <vector>

#include "mrlr/graph/io_binary.hpp"
#include "mrlr/obs/telemetry.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::graph {

namespace {

[[noreturn]] void fail(std::uint64_t line_no, const std::string& what) {
  throw ParseError("edge list: line " + std::to_string(line_no) + ": " +
                   what);
}

/// Token walker over one line. std::from_chars does not skip leading
/// whitespace, so the cursor does; tokens are maximal runs of
/// non-blank characters.
struct Cursor {
  const char* p;
  const char* end;

  void skip_blanks() {
    while (p < end && (*p == ' ' || *p == '\t')) ++p;
  }
  bool at_end() {
    skip_blanks();
    return p == end;
  }
  std::string_view token() {
    skip_blanks();
    const char* start = p;
    while (p < end && *p != ' ' && *p != '\t') ++p;
    return {start, static_cast<std::size_t>(p - start)};
  }
};

std::uint64_t parse_u64(Cursor& c, std::uint64_t line_no, const char* what) {
  c.skip_blanks();
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(c.p, c.end, value);
  if (ec != std::errc{} || ptr == c.p) {
    fail(line_no, std::string("expected ") + what);
  }
  c.p = ptr;
  return value;
}

double parse_weight(Cursor& c, std::uint64_t line_no) {
  c.skip_blanks();
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(c.p, c.end, value);
  if (ec != std::errc{} || ptr == c.p) fail(line_no, "missing edge weight");
  if (!std::isfinite(value) || value <= 0.0) {
    fail(line_no, "edge weight must be finite and positive");
  }
  c.p = ptr;
  return value;
}

/// The whole file, read once at its exact size.
std::vector<std::byte> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw ParseError("cannot open " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) throw ParseError("cannot read " + path);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  if (!in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    throw ParseError("cannot read " + path);
  }
  return bytes;
}

}  // namespace

void check_vertex_count(std::uint64_t n, std::uint64_t m,
                        std::string_view where) {
  const std::string at(where);
  if (n > kMaxVertexCount) {
    throw ParseError(at + ": vertex count exceeds the 32-bit vertex-id limit");
  }
  const std::uint64_t limit =
      2 * std::min(m, kMaxVertexCount) + kMaxIsolatedVertices;
  if (n > limit) {
    throw ParseError(at + ": vertex count " + std::to_string(n) +
                     " exceeds 2m + " + std::to_string(kMaxIsolatedVertices) +
                     " = " + std::to_string(limit) + " for m = " +
                     std::to_string(m) + " edges");
  }
}

// Batched std::to_chars formatting: doubles use the shortest
// round-trip representation, so a text round trip preserves weights
// exactly.
void write_edge_list(const GraphData& d, std::ostream& os) {
  MRLR_REQUIRE(!d.weighted || d.weights.size() == d.edges.size(),
               "edge list: weighted graph data must carry one weight per "
               "edge");
  // Writers hold the readers' bound, so no file is written that no
  // reader accepts.
  check_vertex_count(d.n, d.edges.size(), "edge list");
  std::string buf;
  constexpr std::size_t kFlushAt = std::size_t{1} << 16;
  buf.reserve(kFlushAt + 128);
  char tmp[64];
  const auto append_u64 = [&](std::uint64_t v) {
    const auto [ptr, ec] = std::to_chars(tmp, tmp + sizeof(tmp), v);
    buf.append(tmp, ptr);
  };
  const auto append_double = [&](double v) {
    const auto [ptr, ec] = std::to_chars(tmp, tmp + sizeof(tmp), v);
    buf.append(tmp, ptr);
  };

  append_u64(d.n);
  buf += ' ';
  append_u64(d.edges.size());
  if (d.weighted) buf += " weighted";
  buf += '\n';
  for (std::size_t e = 0; e < d.edges.size(); ++e) {
    append_u64(d.edges[e].u);
    buf += ' ';
    append_u64(d.edges[e].v);
    if (d.weighted) {
      buf += ' ';
      append_double(d.weights[e]);
    }
    buf += '\n';
    if (buf.size() >= kFlushAt) {
      os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

GraphData read_edge_list_data(std::istream& is) {
  std::string line;
  std::uint64_t line_no = 0;
  const auto next_content_line = [&]() -> bool {
    while (std::getline(is, line)) {
      ++line_no;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      const std::size_t i = line.find_first_not_of(" \t");
      if (i == std::string::npos || line[i] == '#') continue;
      return true;
    }
    return false;
  };
  const auto cursor = [&]() {
    return Cursor{line.data(), line.data() + line.size()};
  };

  if (!next_content_line()) throw ParseError("edge list: missing header");
  Cursor h = cursor();
  const std::uint64_t n = parse_u64(h, line_no, "vertex count in header");
  const std::uint64_t m = parse_u64(h, line_no, "edge count in header");
  bool weighted = false;
  if (!h.at_end()) {
    const std::string_view flag = h.token();
    if (flag != "weighted") {
      fail(line_no, "unrecognized header flag '" + std::string(flag) + "'");
    }
    weighted = true;
  }
  if (!h.at_end()) fail(line_no, "trailing characters after header");
  check_vertex_count(n, m, "edge list: line " + std::to_string(line_no));

  // The edge vectors grow geometrically: the header's m sizes no
  // allocation, so a forged count fails at the truncation check after
  // allocating no more than the edge lines that back it.
  GraphData d;
  d.n = n;
  d.weighted = weighted;
  for (std::uint64_t i = 0; i < m; ++i) {
    if (!next_content_line()) {
      throw ParseError("edge list: truncated file: " + std::to_string(i) +
                       " of " + std::to_string(m) + " edges read");
    }
    Cursor c = cursor();
    const std::uint64_t u = parse_u64(c, line_no, "source endpoint");
    const std::uint64_t v = parse_u64(c, line_no, "target endpoint");
    if (u >= n || v >= n) fail(line_no, "endpoint out of range");
    if (u == v) fail(line_no, "self-loop");
    d.edges.push_back({static_cast<VertexId>(u), static_cast<VertexId>(v)});
    if (weighted) d.weights.push_back(parse_weight(c, line_no));
    if (!c.at_end()) fail(line_no, "trailing characters after edge");
  }
  if (next_content_line()) {
    fail(line_no, "content after the header's " + std::to_string(m) +
                      " edges");
  }
  return d;
}

Graph read_edge_list(std::istream& is) {
  return read_edge_list_data(is).build();
}

bool is_mgb_path(std::string_view path) {
  if (path.size() < 4) return false;
  const std::string_view ext = path.substr(path.size() - 4);
  return ext[0] == '.' && (ext[1] == 'm' || ext[1] == 'M') &&
         (ext[2] == 'g' || ext[2] == 'G') && (ext[3] == 'b' || ext[3] == 'B');
}

GraphData read_graph_file_data(const std::string& path) {
  // One io_load span per file read, labelled with the container kind —
  // ingestion shows up in profiles next to the rounds it feeds.
  const bool mgb = is_mgb_path(path);
  obs::ScopedSpan span(obs::Phase::kIoLoad, obs::kNoRound,
                       mgb ? "mgb" : "text");
  obs::count("io.graphs_loaded");
  if (mgb) return decode_mgb(read_file_bytes(path));
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open " + path);
  return read_edge_list_data(in);
}

Graph read_graph_file(const std::string& path) {
  return read_graph_file_data(path).build();
}

void write_graph_file(const GraphData& d, const std::string& path) {
  const bool mgb = is_mgb_path(path);
  // Both writers refuse a vertex count no reader accepts; refusing it
  // before the file is opened leaves no empty file behind.
  const std::vector<std::byte> bytes = mgb ? encode_mgb(d)
                                           : std::vector<std::byte>{};
  if (!mgb) check_vertex_count(d.n, d.edges.size(), "edge list");
  std::ofstream out(path, mgb ? std::ios::out | std::ios::binary
                              : std::ios::out);
  if (!out) throw ParseError("cannot open " + path + " for writing");
  if (mgb) {
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  } else {
    write_edge_list(d, out);
  }
  out.flush();
  if (!out) throw ParseError("write failed: " + path);
}

}  // namespace mrlr::graph
