#pragma once
// Binary graph container (.mgb), the fast path for paper-scale inputs
// (m = n^{1+c} edges): fixed-width little-endian blocks behind one
// encoder and one decoder over bytes, plus a trailing checksum so
// truncation or bit rot fails loudly instead of feeding a corrupt
// instance to an experiment. Graph files (io.hpp) and job-spec
// instances (jobs/job_spec.hpp) both go through these two functions.
//
// Layout (all fields little-endian):
//
//   offset  size  field
//   0       4     magic      0x3142474D ("MGB1")
//   4       4     version    1
//   8       8     n          vertex count (<= 2^32)
//   16      8     m          edge count
//   24      4     flags      bit 0: weighted; other bits must be zero
//   28      4     reserved   must be zero
//   32      8m    edges      m x { u32 u, u32 v }, endpoints < n, u != v
//   .       8m    weights    m x f64, finite and > 0 (present iff weighted)
//   .       8     checksum   order-dependent 64-bit mix of n, m, flags,
//                            every edge, and every weight bit pattern
//
// The decoder throws graph::ParseError on bad magic, an unsupported
// version, unknown flag bits, nonzero reserved bits, a byte count other
// than the header's m implies (truncated blocks, trailing bytes), a
// vertex count over the readers' bound (io.hpp), out-of-range or
// self-loop endpoints, bad weights, or a checksum mismatch. The header
// and the byte count are checked before anything is allocated, so a
// forged m or n cannot size a buffer.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mrlr/graph/graph.hpp"
#include "mrlr/graph/io.hpp"

namespace mrlr::graph {

/// What a header that passed check_mgb_header declares.
struct MgbHeader {
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  bool weighted = false;
};

/// The decoder's header check on its own: everything the header and
/// the byte count decide (see above), without reading the blocks.
/// Serve admission reads n through it.
MgbHeader check_mgb_header(std::span<const std::byte> bytes);

/// Encodes `d` as a complete .mgb stream, sized exactly. Weights are
/// stored bit-exactly, so a decoded instance hashes identically to the
/// original. A vertex count the decoder would refuse (check_vertex_count)
/// throws ParseError; other invalid data (a self-loop or out-of-range
/// endpoint, a missing or non-positive weight) is API misuse and aborts
/// via MRLR_REQUIRE.
std::vector<std::byte> encode_mgb(const GraphData& d);

/// Decodes a complete .mgb stream in one pass: each block is copied
/// once, into a vector of exact size, and validated as it is copied.
GraphData decode_mgb(std::span<const std::byte> bytes);

}  // namespace mrlr::graph
