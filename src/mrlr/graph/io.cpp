#include "mrlr/graph/io.hpp"

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <string>
#include <vector>

#include "mrlr/graph/io_binary.hpp"
#include "mrlr/obs/telemetry.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::graph {

namespace {

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

void write_edge_list(const GraphData& d, std::ostream& os) {
  MRLR_REQUIRE(!d.weighted || d.weights.size() == d.edges.size(),
               "edge list: weighted graph data must carry one weight per "
               "edge");
  // Writers hold the readers' bound, so no file is written that no
  // reader accepts.
  check_vertex_count(d.n, d.edges.size(), "edge list");
  text::Writer w(os);
  w.header(d.n, d.edges.size(), d.weighted);
  for (std::size_t e = 0; e < d.edges.size(); ++e) {
    w.u64(d.edges[e].u).u64(d.edges[e].v);
    if (d.weighted) w.f64(d.weights[e]);
    w.end_line();
  }
  w.flush();
}

GraphData read_edge_list_data(std::istream& is) {
  text::LineReader r(is, "edge list");
  const auto [n, m, weighted] =
      r.header("vertex count in header", "edge count in header");
  check_vertex_count(n, m, "edge list: line " + std::to_string(r.line_no()));

  // The edge vectors grow geometrically: the header's m sizes no
  // allocation, so a forged count fails at the truncation check after
  // allocating no more than the edge lines that back it.
  GraphData d;
  d.n = n;
  d.weighted = weighted;
  std::uint64_t i = 0;
  for (; i < m && r.next_line(); ++i) {
    const std::uint64_t u = r.u64("source endpoint");
    const std::uint64_t v = r.u64("target endpoint");
    if (u >= n || v >= n) r.fail("endpoint out of range");
    if (u == v) r.fail("self-loop");
    d.edges.push_back({static_cast<VertexId>(u), static_cast<VertexId>(v)});
    if (weighted) {
      d.weights.push_back(r.f64("edge weight"));
      if (d.weights.back() <= 0.0) r.fail("edge weight must be positive");
    }
    r.done("edge");
  }
  r.finish(i, m, "edges");
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
