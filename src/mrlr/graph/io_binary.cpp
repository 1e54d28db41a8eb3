#include "mrlr/graph/io_binary.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <string>

#include "mrlr/util/mix64.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::graph {

namespace {

static_assert(std::endian::native == std::endian::little,
              ".mgb I/O copies raw little-endian blocks; a big-endian "
              "port needs byte-swapping shims here");
static_assert(sizeof(Edge) == 8, "edge block layout assumes packed u32 pairs");

constexpr std::uint32_t kMgbMagic = 0x3142474Du;  // "MGB1"
constexpr std::uint32_t kMgbVersion = 1;
constexpr std::uint32_t kFlagWeighted = 1u;
constexpr std::uint64_t kChecksumSeed = 0x6D726C722E6D6762ull;  // "mrlr.mgb"

struct Header {
  std::uint32_t magic = kMgbMagic;
  std::uint32_t version = kMgbVersion;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint32_t flags = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(Header) == 32, "header layout must be padding-free");

/// Bytes per edge over both blocks.
std::uint64_t edge_bytes(bool weighted) { return weighted ? 16 : 8; }

/// Order-dependent rolling checksum over the logical content (header
/// fields, edge words, weight bit patterns) rather than raw bytes.
struct Checksum {
  Checksum(std::uint64_t n, std::uint64_t m, bool weighted) {
    absorb(n);
    absorb(m);
    absorb(std::uint64_t{weighted ? kFlagWeighted : 0u});
  }
  void absorb(std::uint64_t x) { h = mix64(h ^ x); }
  void absorb(const Edge& e) {
    absorb((static_cast<std::uint64_t>(e.u) << 32) | e.v);
  }
  void absorb(double w) { absorb(std::bit_cast<std::uint64_t>(w)); }

  std::uint64_t h = kChecksumSeed;
};

[[noreturn]] void fail(const std::string& what) {
  throw ParseError("mgb: " + what);
}

/// Copies `count` Ts to `at` and returns the position after them.
template <class T>
std::byte* put(std::byte* at, const T* data, std::size_t count) {
  if (count > 0) std::memcpy(at, data, count * sizeof(T));
  return at + count * sizeof(T);
}

}  // namespace

MgbHeader check_mgb_header(std::span<const std::byte> bytes) {
  Header h;
  if (bytes.size() < sizeof(h)) fail("truncated header");
  std::memcpy(&h, bytes.data(), sizeof(h));
  if (h.magic != kMgbMagic) fail("bad magic (not an .mgb file)");
  if (h.version != kMgbVersion) {
    fail("unsupported version " + std::to_string(h.version));
  }
  if ((h.flags & ~kFlagWeighted) != 0) fail("unknown flag bits set");
  if (h.reserved != 0) fail("nonzero reserved field");
  const bool weighted = (h.flags & kFlagWeighted) != 0;
  // Header, m edge records (and m weights), checksum: compared by
  // division, so no m can wrap the product into a match.
  const std::uint64_t body = bytes.size() - sizeof(h);
  if (body < 8 || (body - 8) % edge_bytes(weighted) != 0 ||
      (body - 8) / edge_bytes(weighted) != h.m) {
    fail(std::to_string(bytes.size()) + " bytes do not hold the header's " +
         std::to_string(h.m) + (weighted ? " weighted" : "") +
         " edges (truncated blocks or trailing bytes)");
  }
  check_vertex_count(h.n, h.m, "mgb: header");
  return {h.n, h.m, weighted};
}

std::vector<std::byte> encode_mgb(const GraphData& d) {
  const std::uint64_t m = d.edges.size();
  // The decoder's bound, checked where every writer passes: no file is
  // written that no reader accepts.
  check_vertex_count(d.n, m, "mgb");
  MRLR_REQUIRE(!d.weighted || d.weights.size() == m,
               "mgb: weighted graph data must carry one weight per edge");
  Header h;
  h.n = d.n;
  h.m = m;
  h.flags = d.weighted ? kFlagWeighted : 0;
  Checksum sum(d.n, m, d.weighted);
  for (const Edge& e : d.edges) {
    MRLR_REQUIRE(e.u < d.n && e.v < d.n && e.u != e.v,
                 "mgb: edge endpoints must be distinct and < n");
    sum.absorb(e);
  }
  if (d.weighted) {
    for (const double w : d.weights) {
      MRLR_REQUIRE(std::isfinite(w) && w > 0.0,
                   "mgb: weights must be finite and positive");
      sum.absorb(w);
    }
  }
  std::vector<std::byte> out(sizeof(h) + edge_bytes(d.weighted) * m + 8);
  std::byte* at = put(out.data(), &h, 1);
  at = put(at, d.edges.data(), m);
  if (d.weighted) at = put(at, d.weights.data(), m);
  put(at, &sum.h, 1);
  return out;
}

GraphData decode_mgb(std::span<const std::byte> bytes) {
  const MgbHeader h = check_mgb_header(bytes);
  GraphData d;
  d.n = h.n;
  d.weighted = h.weighted;
  Checksum sum(h.n, h.m, h.weighted);
  const std::byte* at = bytes.data() + sizeof(Header);

  d.edges.reserve(h.m);
  for (std::uint64_t i = 0; i < h.m; ++i, at += sizeof(Edge)) {
    Edge e;
    std::memcpy(&e, at, sizeof(e));
    if (e.u >= h.n || e.v >= h.n) {
      fail("edge " + std::to_string(i) + " endpoint out of range");
    }
    if (e.u == e.v) fail("edge " + std::to_string(i) + " is a self-loop");
    sum.absorb(e);
    d.edges.push_back(e);
  }

  if (h.weighted) {
    d.weights.reserve(h.m);
    for (std::uint64_t i = 0; i < h.m; ++i, at += sizeof(double)) {
      double w;
      std::memcpy(&w, at, sizeof(w));
      if (!std::isfinite(w) || w <= 0.0) {
        fail("weight " + std::to_string(i) + " must be finite and positive");
      }
      sum.absorb(w);
      d.weights.push_back(w);
    }
  }

  std::uint64_t expected = 0;
  std::memcpy(&expected, at, sizeof(expected));
  if (expected != sum.h) fail("checksum mismatch (corrupt file)");
  return d;
}

}  // namespace mrlr::graph
