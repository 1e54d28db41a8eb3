// Tests for the hardened graph I/O subsystem: the strict text parser's
// ParseError taxonomy, the binary .mgb container (round trips and
// adversarial inputs), extension-dispatched file I/O, and the
// generator-limit regressions that ride along (edge-count overflow,
// chung-lu shortfall).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mrlr/graph/generators.hpp"
#include "mrlr/graph/graph.hpp"
#include "mrlr/graph/io.hpp"
#include "mrlr/graph/io_binary.hpp"

namespace mrlr::graph {
namespace {

void expect_graphs_equal(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.edges(), b.edges());
  ASSERT_EQ(a.weighted(), b.weighted());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_DOUBLE_EQ(a.weight(e), b.weight(e));
  }
}

Graph sample_weighted(std::uint64_t n, std::uint64_t m,
                      std::uint64_t seed = 7) {
  Rng rng(seed);
  Graph g = gnm(n, m, rng);
  return g.with_weights(
      random_edge_weights(g, WeightDist::kUniform, rng));
}

std::string to_mgb_bytes(const GraphData& d) {
  const std::vector<std::byte> bytes = encode_mgb(d);
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

GraphData mgb_data(const std::string& bytes) {
  return decode_mgb(std::as_bytes(std::span(bytes)));
}

Graph from_mgb_bytes(const std::string& bytes) {
  return mgb_data(bytes).build();
}

// ------------------------------------------------- strict text parser --

TEST(TextIo, RejectsGarbageHeader) {
  std::stringstream ss("nodes edges\n");
  EXPECT_THROW((void)read_edge_list(ss), ParseError);
}

TEST(TextIo, RejectsMissingEdgeCountInHeader) {
  std::stringstream ss("5\n");
  EXPECT_THROW((void)read_edge_list(ss), ParseError);
}

TEST(TextIo, RejectsUnknownHeaderFlag) {
  std::stringstream ss("3 1 directed\n0 1\n");
  EXPECT_THROW((void)read_edge_list(ss), ParseError);
}

TEST(TextIo, RejectsTruncatedFile) {
  std::stringstream ss("4 3\n0 1\n1 2\n");
  EXPECT_THROW((void)read_edge_list(ss), ParseError);
}

TEST(TextIo, RejectsEndpointOutOfRange) {
  std::stringstream ss("3 1\n0 3\n");
  EXPECT_THROW((void)read_edge_list(ss), ParseError);
}

TEST(TextIo, RejectsSelfLoop) {
  std::stringstream ss("3 1\n1 1\n");
  EXPECT_THROW((void)read_edge_list(ss), ParseError);
}

TEST(TextIo, RejectsMissingWeight) {
  std::stringstream ss("3 1 weighted\n0 1\n");
  EXPECT_THROW((void)read_edge_list(ss), ParseError);
}

TEST(TextIo, RejectsUnparsableWeight) {
  std::stringstream ss("3 1 weighted\n0 1 heavy\n");
  EXPECT_THROW((void)read_edge_list(ss), ParseError);
}

TEST(TextIo, RejectsZeroWeight) {
  std::stringstream ss("3 1 weighted\n0 1 0.0\n");
  EXPECT_THROW((void)read_edge_list(ss), ParseError);
}

TEST(TextIo, RejectsNegativeWeight) {
  std::stringstream ss("3 1 weighted\n0 1 -2.5\n");
  EXPECT_THROW((void)read_edge_list(ss), ParseError);
}

TEST(TextIo, RejectsNonFiniteWeight) {
  std::stringstream inf_ss("3 1 weighted\n0 1 inf\n");
  EXPECT_THROW((void)read_edge_list(inf_ss), ParseError);
  std::stringstream nan_ss("3 1 weighted\n0 1 nan\n");
  EXPECT_THROW((void)read_edge_list(nan_ss), ParseError);
}

TEST(TextIo, RejectsTrailingTokensOnEdgeRow) {
  std::stringstream ss("3 1\n0 1 extra\n");
  EXPECT_THROW((void)read_edge_list(ss), ParseError);
}

TEST(TextIo, AdversarialEdgeCountFailsAsParseError) {
  // A huge declared m must hit the truncation check (reserve is
  // capped), not std::length_error or a giant allocation.
  std::stringstream ss("5 1000000000000000000\n0 1\n");
  EXPECT_THROW((void)read_edge_list(ss), ParseError);
}

TEST(MgbIo, AdversarialEdgeCountFailsAsParseError) {
  std::string bytes = to_mgb_bytes(Graph(3, {{0, 1}}));
  // Header m lives at offset 16; inflate it to a huge value. The
  // decoder must refuse the byte count, not allocate m edges.
  bytes[16 + 6] = 0x7F;
  EXPECT_THROW((void)from_mgb_bytes(bytes), ParseError);
}

TEST(TextIo, VertexCountMustBeBackedByEdges) {
  // n may exceed the 2m endpoints by kMaxIsolatedVertices, no more.
  std::stringstream at_limit("4098 1\n0 1\n");
  EXPECT_EQ(read_edge_list(at_limit).num_vertices(), 4098u);
  std::stringstream over("4099 1\n0 1\n");
  EXPECT_THROW((void)read_edge_list(over), ParseError);
  std::stringstream empty("4097 0\n");
  EXPECT_THROW((void)read_edge_list(empty), ParseError);
}

TEST(MgbIo, VertexCountMustBeBackedByEdges) {
  EXPECT_EQ(from_mgb_bytes(to_mgb_bytes(Graph(4098, {{0, 1}}))).num_vertices(),
            4098u);
  // The encoder holds the decoder's bound, in the readers' words, so no
  // writer makes a file that no reader accepts.
  try {
    (void)to_mgb_bytes(GraphData{4099, false, {{0, 1}}, {}});
    FAIL() << "the encoder wrote n = 4099 for one edge";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(),
                 "mgb: vertex count 4099 exceeds 2m + 4096 = 4098 for m = 1 "
                 "edges");
  }
  std::stringstream text;
  EXPECT_THROW(write_edge_list(GraphData{4099, false, {{0, 1}}, {}}, text),
               ParseError);
  EXPECT_TRUE(text.str().empty());
}

TEST(TextIo, RejectsNegativeEndpoint) {
  std::stringstream ss("3 1\n-1 2\n");
  EXPECT_THROW((void)read_edge_list(ss), ParseError);
}

TEST(TextIo, AcceptsCommentsBlanksAndCrlf) {
  std::stringstream ss("# header comment\n\n  \t\n3 2\r\n0 1\r\n# mid\n1 2\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(TextIo, SharesTheSetSystemGrammar) {
  // One grammar for both text formats (util/text.hpp): a '+' sign and
  // '\v', '\f', '\r' blanks read as in set-system files; a number is a
  // whole token.
  std::stringstream ss("+3\v2 weighted\n0\f+1 +2.5\r\n\v\n1 2 1e1\n");
  const GraphData d = read_edge_list_data(ss);
  EXPECT_EQ(d.n, 3u);
  EXPECT_EQ(d.edges, (std::vector<Edge>{{0, 1}, {1, 2}}));
  EXPECT_EQ(d.weights, (std::vector<double>{2.5, 10.0}));
  for (const char* bad :
       {"3 1\n0 1x\n", "3 1\n0 +-1\n", "3 1 weighted\n0 1 2.5.\n",
        "3 1 weighted\n0 1 1e400\n", "3 1\n0 0x1\n"}) {
    std::stringstream in(bad);
    EXPECT_THROW((void)read_edge_list_data(in), ParseError) << bad;
  }
}

TEST(TextIo, WeightedRoundTripIsExact) {
  // to_chars shortest round-trip formatting: arbitrary doubles must
  // survive a text round trip bit-exactly.
  const Graph g = sample_weighted(50, 200);
  std::stringstream ss;
  write_edge_list(g, ss);
  expect_graphs_equal(g, read_edge_list(ss));
}

TEST(TextIo, EmptyGraphRoundTrip) {
  const Graph g(7, {});
  std::stringstream ss;
  write_edge_list(g, ss);
  const Graph h = read_edge_list(ss);
  EXPECT_EQ(h.num_vertices(), 7u);
  EXPECT_EQ(h.num_edges(), 0u);
}

// ------------------------------------------------------ .mgb container --

TEST(MgbIo, UnweightedRoundTrip) {
  Rng rng(3);
  const Graph g = gnm(100, 400, rng);
  expect_graphs_equal(g, from_mgb_bytes(to_mgb_bytes(g)));
}

TEST(MgbIo, WeightedRoundTrip) {
  const Graph g = sample_weighted(100, 400);
  expect_graphs_equal(g, from_mgb_bytes(to_mgb_bytes(g)));
}

TEST(MgbIo, EmptyGraphRoundTrip) {
  const Graph g(5, {});
  const Graph h = from_mgb_bytes(to_mgb_bytes(g));
  EXPECT_EQ(h.num_vertices(), 5u);
  EXPECT_EQ(h.num_edges(), 0u);
}

TEST(MgbIo, MaxIdVerticesRoundTrip) {
  // Endpoints at the top of the declared id range must survive both
  // formats. (n is bounded by what the CSR index can hold in a test,
  // not by the format's 2^32 ceiling.) A perfect matching backs the n
  // vertices, which the readers' isolated-vertex bound requires.
  const std::uint64_t n = 1ull << 20;
  const auto top = static_cast<VertexId>(n - 1);
  std::vector<Edge> edges{{0, top}};
  for (VertexId v = 0; v < n; v += 2) edges.push_back({v, v + 1});
  const Graph g(n, std::move(edges));
  expect_graphs_equal(g, from_mgb_bytes(to_mgb_bytes(g)));
  std::stringstream ss;
  write_edge_list(g, ss);
  expect_graphs_equal(g, read_edge_list(ss));
}

TEST(MgbIo, TextAndBinaryAgree) {
  const Graph g = sample_weighted(80, 300);
  std::stringstream ss;
  write_edge_list(g, ss);
  expect_graphs_equal(read_edge_list(ss), from_mgb_bytes(to_mgb_bytes(g)));
}

TEST(MgbIo, RejectsBadMagic) {
  std::string bytes = to_mgb_bytes(Graph(3, {{0, 1}}));
  bytes[0] = 'X';
  EXPECT_THROW((void)from_mgb_bytes(bytes), ParseError);
}

TEST(MgbIo, RejectsUnsupportedVersion) {
  std::string bytes = to_mgb_bytes(Graph(3, {{0, 1}}));
  bytes[4] = 99;
  EXPECT_THROW((void)from_mgb_bytes(bytes), ParseError);
}

TEST(MgbIo, RejectsUnknownFlagBits) {
  std::string bytes = to_mgb_bytes(Graph(3, {{0, 1}}));
  bytes[24] = static_cast<char>(bytes[24] | 0x40);
  EXPECT_THROW((void)from_mgb_bytes(bytes), ParseError);
}

TEST(MgbIo, RejectsTruncatedHeader) {
  const std::string bytes = to_mgb_bytes(Graph(3, {{0, 1}}));
  EXPECT_THROW((void)from_mgb_bytes(bytes.substr(0, 16)), ParseError);
}

TEST(MgbIo, RejectsTruncatedEdgeBlock) {
  Rng rng(4);
  const std::string bytes = to_mgb_bytes(gnm(50, 100, rng));
  // Cut inside the edge block: header is 32 bytes, edges 8 bytes each.
  EXPECT_THROW((void)from_mgb_bytes(bytes.substr(0, 32 + 55 * 8 + 3)),
               ParseError);
}

TEST(MgbIo, RejectsTruncatedWeightBlock) {
  const std::string bytes = to_mgb_bytes(sample_weighted(50, 100));
  EXPECT_THROW((void)from_mgb_bytes(bytes.substr(0, 32 + 100 * 8 + 17)),
               ParseError);
}

TEST(MgbIo, RejectsMissingChecksum) {
  const std::string bytes = to_mgb_bytes(Graph(3, {{0, 1}}));
  EXPECT_THROW((void)from_mgb_bytes(bytes.substr(0, bytes.size() - 8)),
               ParseError);
}

TEST(MgbIo, RejectsChecksumMismatch) {
  Rng rng(5);
  std::string bytes = to_mgb_bytes(gnm(50, 100, rng));
  // Swap two interior edge records wholesale: every field stays
  // individually valid (gnm edges are distinct simple edges), but the
  // order-dependent checksum must notice the reordering.
  for (int i = 0; i < 8; ++i) {
    std::swap(bytes[32 + 8 * 3 + i], bytes[32 + 8 * 4 + i]);
  }
  bool altered_parses = true;
  try {
    const Graph g = from_mgb_bytes(bytes);
    (void)g;
  } catch (const ParseError&) {
    altered_parses = false;
  }
  EXPECT_FALSE(altered_parses);
}

TEST(MgbIo, RejectsCorruptedChecksumTrailer) {
  std::string bytes = to_mgb_bytes(Graph(3, {{0, 1}}));
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x5A);
  EXPECT_THROW((void)from_mgb_bytes(bytes), ParseError);
}

TEST(MgbIo, RejectsTrailingBytes) {
  std::string bytes = to_mgb_bytes(Graph(3, {{0, 1}}));
  bytes += "junk";
  EXPECT_THROW((void)from_mgb_bytes(bytes), ParseError);
}

TEST(MgbIo, RejectsSelfLoopEdge) {
  // Hand-corrupt an edge into a self-loop; recompute nothing — the
  // endpoint check fires before the checksum comparison.
  std::string bytes = to_mgb_bytes(Graph(3, {{0, 1}}));
  bytes[32] = 1;  // u: 0 -> 1, matching v = 1
  EXPECT_THROW((void)from_mgb_bytes(bytes), ParseError);
}

TEST(MgbIo, RejectsEndpointOutOfRange) {
  std::string bytes = to_mgb_bytes(Graph(3, {{0, 1}}));
  bytes[32] = 9;  // u: 0 -> 9 on a 3-vertex graph
  EXPECT_THROW((void)from_mgb_bytes(bytes), ParseError);
}

TEST(MgbIo, EncoderRejectsInvalidData) {
  // Any caller can fill a GraphData; the encoder checks what it writes.
  EXPECT_DEATH((void)encode_mgb(GraphData{3, false, {{0, 3}}, {}}),
               "endpoints");
  EXPECT_DEATH((void)encode_mgb(GraphData{3, true, {{0, 1}}, {-1.0}}),
               "positive");
  EXPECT_DEATH((void)encode_mgb(GraphData{3, true, {{0, 1}}, {}}),
               "one weight per edge");
}

// ------------------------------------------------------ GraphData layer --

TEST(GraphDataIo, DataAndGraphPathsAgree) {
  const Graph g = sample_weighted(60, 240);
  std::stringstream ss;
  write_edge_list(g, ss);
  const GraphData d = read_edge_list_data(ss);
  EXPECT_EQ(d.n, g.num_vertices());
  EXPECT_EQ(d.edges, g.edges());
  EXPECT_EQ(d.weights, g.weights());
  EXPECT_TRUE(d.weighted);

  expect_graphs_equal(g, from_mgb_bytes(to_mgb_bytes(d)));
}

TEST(GraphDataIo, ConvertPreservesEmptyWeightedFlag) {
  // The data layer keeps the header's weighted flag even with zero
  // edges, so a convert round trip cannot drop it.
  std::stringstream ss("4 0 weighted\n");
  const GraphData d = read_edge_list_data(ss);
  EXPECT_TRUE(d.weighted);
  EXPECT_TRUE(d.edges.empty());

  EXPECT_EQ(mgb_data(to_mgb_bytes(d)), d);
}

// -------------------------------------------- extension-dispatch files --

TEST(GraphFileIo, DetectsMgbExtension) {
  EXPECT_TRUE(is_mgb_path("graph.mgb"));
  EXPECT_TRUE(is_mgb_path("dir.with.dots/G.MGB"));
  EXPECT_FALSE(is_mgb_path("graph.txt"));
  EXPECT_FALSE(is_mgb_path("graph.mgb.txt"));
  EXPECT_FALSE(is_mgb_path("mgb"));
}

/// Every graph generator family, unweighted and under each WeightDist:
/// the inputs of the round-trip property below.
std::vector<std::pair<std::string, Graph>> generated_graphs() {
  Rng rng(11);
  // A braced list runs its initializers in order, so each draws from
  // rng in a fixed sequence.
  const std::pair<std::string, Graph> families[] = {
      {"gnm", gnm(60, 200, rng)},
      {"gnm_density", gnm_density(80, 0.4, rng)},
      {"gnp", gnp(60, 0.1, rng)},
      {"chung_lu", chung_lu_power_law(100, 300, 2.5, rng)},
      {"bipartite", random_bipartite(30, 40, 150, rng)},
      {"circulant", circulant(40, 6)},
      {"complete", complete(12)},
      {"star", star(20)},
      {"path", path(25)},
      {"cycle", cycle(25)},
      {"planted_clique", planted_clique(80, 200, 10, rng)},
  };
  std::vector<std::pair<std::string, Graph>> out;
  for (const auto& [name, g] : families) {
    out.emplace_back(name, g);
    for (const auto& [dist, d] :
         {std::pair{WeightDist::kUniform, "uniform"},
          std::pair{WeightDist::kExponential, "exponential"},
          std::pair{WeightDist::kIntegral, "integral"},
          std::pair{WeightDist::kPolarized, "polarized"}}) {
      out.emplace_back(name + "/" + d,
                       g.with_weights(random_edge_weights(g, dist, rng)));
    }
  }
  return out;
}

TEST(GraphFileIo, RoundTripsThroughBothFormats) {
  // Text weights are written in their shortest round-trip form, so
  // every generated graph reads back bit-exactly from either format
  // (positive finite doubles compare equal only when their bits do).
  std::vector<std::pair<std::string, Graph>> cases = generated_graphs();
  cases.emplace_back("sample_weighted", sample_weighted(60, 200));
  const auto dir = std::filesystem::temp_directory_path();
  const std::string mgb = (dir / "mrlr_test_io.mgb").string();
  const std::string txt = (dir / "mrlr_test_io.txt").string();
  for (const auto& [name, g] : cases) {
    SCOPED_TRACE(name);
    const GraphData& d = g.data();
    for (const std::string& path : {mgb, txt}) {
      write_graph_file(g, path);
      const GraphData back = read_graph_file_data(path);
      EXPECT_EQ(back.n, d.n);
      EXPECT_EQ(back.weighted, d.weighted);
      EXPECT_EQ(back.edges, d.edges);
      EXPECT_EQ(back.weights, d.weights);
      expect_graphs_equal(g, read_graph_file(path));
    }
  }
  std::filesystem::remove(mgb);
  std::filesystem::remove(txt);
}

TEST(GraphFileIo, MissingFileThrows) {
  EXPECT_THROW((void)read_graph_file("/nonexistent/graph.mgb"), ParseError);
  EXPECT_THROW((void)read_graph_file("/nonexistent/graph.txt"), ParseError);
}

// ----------------------------------------------- generator regressions --

TEST(GeneratorLimits, MaxSimpleEdgesAvoidsOverflow) {
  EXPECT_EQ(max_simple_edges(0), 0u);
  EXPECT_EQ(max_simple_edges(1), 0u);
  EXPECT_EQ(max_simple_edges(5), 10u);
  EXPECT_EQ(max_simple_edges(6), 15u);
  // n = 2^32: the naive n*(n-1)/2 wraps to the wrong value; the real
  // answer 2^31 * (2^32 - 1) still fits in 64 bits.
  EXPECT_EQ(max_simple_edges(1ull << 32),
            (1ull << 31) * ((1ull << 32) - 1));
}

TEST(GeneratorLimits, RejectsVertexCountsBeyondEdgeKeyPacking) {
  EXPECT_DEATH((void)max_simple_edges((1ull << 32) + 1), "packing limit");
  Rng rng(1);
  EXPECT_DEATH((void)gnm((1ull << 32) + 1, 0, rng), "packing limit");
  EXPECT_DEATH((void)gnp((1ull << 32) + 1, 0.0, rng), "packing limit");
}

TEST(ChungLu, StrictThrowsOnShortfall) {
  Rng rng(2);
  ChungLuOptions opts;
  opts.strict = true;
  opts.max_attempts = 1;  // guarantees the budget runs out
  EXPECT_THROW((void)chung_lu_power_law(100, 50, 2.5, rng, opts),
               GeneratorError);
}

TEST(ChungLu, NonStrictReportsShortfall) {
  Rng rng(2);
  std::uint64_t shortfall = 0;
  ChungLuOptions opts;
  opts.max_attempts = 1;
  opts.shortfall = &shortfall;
  const Graph g = chung_lu_power_law(100, 50, 2.5, rng, opts);
  EXPECT_LE(g.num_edges(), 1u);
  EXPECT_EQ(shortfall, 50u - g.num_edges());
  EXPECT_GE(shortfall, 49u);
}

TEST(ChungLu, FullRunReportsZeroShortfall) {
  Rng rng(2);
  std::uint64_t shortfall = 99;
  ChungLuOptions opts;
  opts.strict = true;  // must not throw when the target is reached
  opts.shortfall = &shortfall;
  // beta = 10 keeps the weight sequence near-uniform, so the sampler
  // comfortably reaches the sparse target inside the default budget.
  const Graph g = chung_lu_power_law(1000, 500, 10.0, rng, opts);
  EXPECT_EQ(g.num_edges(), 500u);
  EXPECT_EQ(shortfall, 0u);
}

}  // namespace
}  // namespace mrlr::graph
