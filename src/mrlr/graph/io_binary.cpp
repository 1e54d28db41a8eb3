#include "mrlr/graph/io_binary.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "mrlr/obs/telemetry.hpp"
#include "mrlr/util/mix64.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::graph {

namespace {

static_assert(std::endian::native == std::endian::little,
              ".mgb I/O writes raw little-endian blocks; a big-endian "
              "port needs byte-swapping shims here");
static_assert(sizeof(Edge) == 8, "edge block layout assumes packed u32 pairs");

constexpr std::size_t kChunkElems = std::size_t{1} << 16;       // 512 KiB
constexpr std::uint64_t kChecksumSeed = 0x6D726C722E6D6762ull;  // "mrlr.mgb"

/// Order-dependent rolling checksum over the logical content (header
/// fields, edge words, weight bit patterns) rather than raw bytes, so
/// the definition is independent of block boundaries and chunk sizes.
struct Checksum {
  std::uint64_t h = kChecksumSeed;
  void absorb(std::uint64_t x) { h = mix64(h ^ x); }
};

std::uint64_t edge_word(const Edge& e) {
  return (static_cast<std::uint64_t>(e.u) << 32) | e.v;
}

[[noreturn]] void fail(const std::string& what) {
  throw ParseError("mgb: " + what);
}

struct Header {
  std::uint32_t magic = kMgbMagic;
  std::uint32_t version = kMgbVersion;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint32_t flags = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(Header) == 32, "header layout must be padding-free");

constexpr std::uint32_t kFlagWeighted = 1u;

void write_raw(std::ostream& os, const void* data, std::size_t bytes) {
  os.write(static_cast<const char*>(data),
           static_cast<std::streamsize>(bytes));
  if (!os) fail("write failed (disk full or closed stream?)");
}

/// Reads exactly `bytes` or throws ParseError naming `what`.
void read_raw(std::istream& is, void* data, std::size_t bytes,
              const char* what) {
  is.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (static_cast<std::size_t>(is.gcount()) != bytes) {
    fail(std::string("truncated ") + what);
  }
}

}  // namespace

MgbWriter::MgbWriter(std::ostream& os, std::uint64_t n, std::uint64_t m,
                     bool weighted)
    : os_(os), n_(n), m_(m), weighted_(weighted) {
  MRLR_REQUIRE(n <= kMaxVertexCount,
               "mgb: vertex count exceeds the 32-bit vertex-id limit");
  Header h;
  h.n = n;
  h.m = m;
  h.flags = weighted ? kFlagWeighted : 0;
  write_raw(os_, &h, sizeof(h));
  Checksum sum;
  sum.absorb(h.n);
  sum.absorb(h.m);
  sum.absorb(h.flags);
  checksum_ = sum.h;
}

MgbWriter::~MgbWriter() = default;

void MgbWriter::append_edges(std::span<const Edge> edges) {
  MRLR_REQUIRE(!finished_, "mgb: append after finish");
  MRLR_REQUIRE(edges.size() <= m_ - edges_written_,
               "mgb: more edges appended than declared");
  Checksum sum{checksum_};
  for (const Edge& e : edges) {
    MRLR_REQUIRE(e.u < n_ && e.v < n_ && e.u != e.v,
                 "mgb: edge endpoints must be distinct and < n");
    sum.absorb(edge_word(e));
  }
  checksum_ = sum.h;
  write_raw(os_, edges.data(), edges.size_bytes());
  edges_written_ += edges.size();
}

void MgbWriter::append_weights(std::span<const double> weights) {
  MRLR_REQUIRE(!finished_, "mgb: append after finish");
  MRLR_REQUIRE(weighted_, "mgb: weight block on an unweighted file");
  MRLR_REQUIRE(edges_written_ == m_,
               "mgb: weight block must follow the complete edge block");
  MRLR_REQUIRE(weights.size() <= m_ - weights_written_,
               "mgb: more weights appended than declared");
  Checksum sum{checksum_};
  for (const double w : weights) {
    MRLR_REQUIRE(std::isfinite(w) && w > 0.0,
                 "mgb: weights must be finite and positive");
    sum.absorb(std::bit_cast<std::uint64_t>(w));
  }
  checksum_ = sum.h;
  write_raw(os_, weights.data(), weights.size_bytes());
  weights_written_ += weights.size();
}

void MgbWriter::finish() {
  MRLR_REQUIRE(!finished_, "mgb: finish called twice");
  MRLR_REQUIRE(edges_written_ == m_, "mgb: finish before all edges written");
  MRLR_REQUIRE(!weighted_ || weights_written_ == m_,
               "mgb: finish before all weights written");
  write_raw(os_, &checksum_, sizeof(checksum_));
  os_.flush();
  if (!os_) fail("write failed (disk full or closed stream?)");
  finished_ = true;
}

void write_mgb(const Graph& g, std::ostream& os) {
  MgbWriter w(os, g.num_vertices(), g.num_edges(), g.weighted());
  w.append_edges(g.edges());
  if (g.weighted()) w.append_weights(g.weights());
  w.finish();
}

void write_mgb(const GraphData& d, std::ostream& os) {
  MgbWriter w(os, d.n, d.edges.size(), d.weighted);
  w.append_edges(d.edges);
  if (d.weighted) w.append_weights(d.weights);
  w.finish();
}

void write_mgb_subset(const Graph& g, std::span<const EdgeId> edge_ids,
                      std::ostream& os) {
  MgbWriter w(os, g.num_vertices(), edge_ids.size(), g.weighted());
  // Chunked gather so a large partition never needs a second in-memory
  // copy of its whole edge block.
  std::vector<Edge> edges;
  edges.reserve(std::min(edge_ids.size(), kChunkElems));
  for (std::size_t at = 0; at < edge_ids.size();) {
    const std::size_t take = std::min(edge_ids.size() - at, kChunkElems);
    edges.clear();
    for (std::size_t i = 0; i < take; ++i) {
      const EdgeId id = edge_ids[at + i];
      MRLR_REQUIRE(id < g.num_edges(), "mgb: subset edge id out of range");
      edges.push_back(g.edge(id));
    }
    w.append_edges(edges);
    at += take;
  }
  if (g.weighted()) {
    std::vector<double> weights;
    weights.reserve(std::min(edge_ids.size(), kChunkElems));
    for (std::size_t at = 0; at < edge_ids.size();) {
      const std::size_t take = std::min(edge_ids.size() - at, kChunkElems);
      weights.clear();
      for (std::size_t i = 0; i < take; ++i) {
        weights.push_back(g.weight(edge_ids[at + i]));
      }
      w.append_weights(weights);
      at += take;
    }
  }
  w.finish();
}

namespace {

/// Output stream buffer appending to a byte vector, so serialize_mgb
/// writes the stream once, straight into its exactly sized result.
class ByteSink : public std::streambuf {
 public:
  explicit ByteSink(std::vector<std::byte>& out) : out_(out) {}

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const auto* p = reinterpret_cast<const std::byte*>(s);
    out_.insert(out_.end(), p, p + n);
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      out_.push_back(static_cast<std::byte>(c));
    }
    return traits_type::not_eof(c);
  }

 private:
  std::vector<std::byte>& out_;
};

}  // namespace

std::vector<std::byte> serialize_mgb(const Graph& g) {
  // Header, edge block, optional weight block, checksum.
  const std::uint64_t blocks = g.weighted() ? 2 : 1;
  std::vector<std::byte> out;
  out.reserve(sizeof(Header) + blocks * 8 * g.num_edges() + 8);
  ByteSink sink(out);
  std::ostream os(&sink);
  write_mgb(g, os);
  return out;
}

Graph parse_mgb(std::span<const std::byte> bytes) {
  std::istringstream is(
      std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()),
      std::ios::binary);
  return read_mgb(is);
}

GraphData read_mgb_data(std::istream& is) {
  Header h;
  read_raw(is, &h, sizeof(h), "header");
  if (h.magic != kMgbMagic) fail("bad magic (not an .mgb file)");
  if (h.version != kMgbVersion) {
    fail("unsupported version " + std::to_string(h.version));
  }
  if ((h.flags & ~kFlagWeighted) != 0) fail("unknown flag bits set");
  if (h.reserved != 0) fail("nonzero reserved field");
  if (h.n > kMaxVertexCount) {
    fail("vertex count exceeds the 32-bit vertex-id limit");
  }
  GraphData d;
  d.n = h.n;
  d.weighted = (h.flags & kFlagWeighted) != 0;

  Checksum sum;
  sum.absorb(h.n);
  sum.absorb(h.m);
  sum.absorb(h.flags);

  // Stream the blocks in fixed-size chunks, reading straight into the
  // destination vector's tail (no bounce buffer): a truncated or
  // adversarial header fails at the first short read instead of forcing
  // an m-sized allocation up front.
  d.edges.reserve(static_cast<std::size_t>(std::min(h.m, kIoReserveCap)));
  for (std::uint64_t done = 0; done < h.m;) {
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(h.m - done, kChunkElems));
    d.edges.resize(static_cast<std::size_t>(done) + take);
    read_raw(is, d.edges.data() + done, take * sizeof(Edge), "edge block");
    for (std::size_t i = 0; i < take; ++i) {
      const Edge& e = d.edges[static_cast<std::size_t>(done) + i];
      if (e.u >= h.n || e.v >= h.n) {
        fail("edge " + std::to_string(done + i) + " endpoint out of range");
      }
      if (e.u == e.v) {
        fail("edge " + std::to_string(done + i) + " is a self-loop");
      }
      sum.absorb(edge_word(e));
    }
    done += take;
  }

  if (d.weighted) {
    d.weights.reserve(static_cast<std::size_t>(std::min(h.m, kIoReserveCap)));
    for (std::uint64_t done = 0; done < h.m;) {
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(h.m - done, kChunkElems));
      d.weights.resize(static_cast<std::size_t>(done) + take);
      read_raw(is, d.weights.data() + done, take * sizeof(double),
               "weight block");
      for (std::size_t i = 0; i < take; ++i) {
        const double w = d.weights[static_cast<std::size_t>(done) + i];
        if (!std::isfinite(w) || w <= 0.0) {
          fail("weight " + std::to_string(done + i) +
               " must be finite and positive");
        }
        sum.absorb(std::bit_cast<std::uint64_t>(w));
      }
      done += take;
    }
  }

  std::uint64_t expected = 0;
  read_raw(is, &expected, sizeof(expected), "checksum");
  if (expected != sum.h) fail("checksum mismatch (corrupt file)");
  is.peek();
  if (!is.eof()) fail("trailing bytes after checksum");
  return d;
}

Graph read_mgb(std::istream& is) { return read_mgb_data(is).build(); }

bool is_mgb_path(std::string_view path) {
  if (path.size() < 4) return false;
  const std::string_view ext = path.substr(path.size() - 4);
  return ext.size() == 4 && ext[0] == '.' &&
         (ext[1] == 'm' || ext[1] == 'M') &&
         (ext[2] == 'g' || ext[2] == 'G') &&
         (ext[3] == 'b' || ext[3] == 'B');
}

GraphData read_graph_file_data(const std::string& path) {
  // One io_load span per file read, labelled with the container kind —
  // ingestion shows up in profiles next to the rounds it feeds.
  obs::ScopedSpan span(obs::Phase::kIoLoad, obs::kNoRound,
                       is_mgb_path(path) ? "mgb" : "text");
  obs::count("io.graphs_loaded");
  std::ifstream in(path,
                   is_mgb_path(path) ? std::ios::in | std::ios::binary
                                     : std::ios::in);
  if (!in) throw ParseError("cannot open " + path);
  return is_mgb_path(path) ? read_mgb_data(in) : read_edge_list_data(in);
}

Graph read_graph_file(const std::string& path) {
  return read_graph_file_data(path).build();
}

namespace {

template <typename GraphLike>
void write_graph_file_impl(const GraphLike& g, const std::string& path) {
  std::ofstream out(path,
                    is_mgb_path(path) ? std::ios::out | std::ios::binary
                                      : std::ios::out);
  if (!out) throw ParseError("cannot open " + path + " for writing");
  if (is_mgb_path(path)) {
    write_mgb(g, out);
  } else {
    write_edge_list(g, out);
    out.flush();
    if (!out) throw ParseError("write failed: " + path);
  }
}

}  // namespace

void write_graph_file(const Graph& g, const std::string& path) {
  write_graph_file_impl(g, path);
}

void write_graph_file(const GraphData& d, const std::string& path) {
  write_graph_file_impl(d, path);
}

}  // namespace mrlr::graph
