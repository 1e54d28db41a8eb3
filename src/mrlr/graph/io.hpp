#pragma once
// Graph I/O: strict plain-text edge lists, and graph files that pick the
// text format or the binary `.mgb` container (io_binary.hpp) by
// extension. Every writer takes GraphData (a Graph converts to it).
//
// Text format (grammar in util/text.hpp, shared with set systems):
// header "n m [weighted]", then one "u v [w]" line per edge. Endpoints
// must be < n and distinct (no self-loops); weights, when the header
// declares them, must be present and positive. Anything else throws
// ParseError — never a silently empty or zero-weight graph.

#include <iosfwd>
#include <string>
#include <string_view>

#include "mrlr/graph/graph.hpp"
#include "mrlr/util/text.hpp"

namespace mrlr::graph {

/// Thrown by every graph reader (text and .mgb) on malformed input:
/// bad or garbage headers, truncated files, out-of-range or self-loop
/// endpoints, missing/non-finite/non-positive weights, bad magic or
/// checksum mismatch.
using text::ParseError;

/// Isolated vertices a graph file may declare beyond the 2m endpoints
/// its m edges can touch. Every reader (text, .mgb file, job-spec
/// instance) refuses n > 2m + kMaxIsolatedVertices, as it refuses
/// n > 2^32, so a header cannot make the CSR build size an index that
/// the file's edges do not back.
inline constexpr std::uint64_t kMaxIsolatedVertices = 4096;

/// Throws ParseError("<where>: ...") when a header's n breaks either
/// bound above.
void check_vertex_count(std::uint64_t n, std::uint64_t m,
                        std::string_view where);

void write_edge_list(const GraphData& d, std::ostream& os);

/// Parses the format written by write_edge_list. Throws ParseError on
/// malformed input (see the taxonomy above).
Graph read_edge_list(std::istream& is);

/// As read_edge_list, but stops at the data layer (no CSR index).
GraphData read_edge_list_data(std::istream& is);

/// True when `path` names the binary container (extension ".mgb",
/// case-insensitive).
bool is_mgb_path(std::string_view path);

/// Reads a graph from `path`, picking the `.mgb` decoder or the text
/// reader by extension. A `.mgb` file is read into memory whole and
/// decoded; its bytes are freed before the CSR build. Throws ParseError
/// when the file cannot be opened or fails validation.
Graph read_graph_file(const std::string& path);
GraphData read_graph_file_data(const std::string& path);

/// Writes a graph to `path` in the format selected by its extension.
/// Throws ParseError when the file cannot be opened or written.
void write_graph_file(const GraphData& d, const std::string& path);

}  // namespace mrlr::graph
