#pragma once
// The serialized form of "one driver invocation" — what the coordinator
// ships in the job bootstrap so a worker started from nothing
// (`mrlr_cli worker --listen`) can re-run the exact same driver and
// reconstruct its shard state without ever sharing memory.
//
// A spec names the algorithm (the CLI's algorithm vocabulary), carries
// the full MrParams, a small extras table for driver arguments that are
// not MrParams fields (b-matching's b, vertex-cover's weights, eps...),
// and the complete problem instance in a bit-exact binary form: graphs
// as an .mgb stream, written and read by the one .mgb encoder and
// decoder (graph/io_binary: checksummed, fully validated on decode, n
// bounded by the edges as for graph files), set systems as an
// equivalent fixed-width block format defined here. Bit-exactness
// matters: the worker's replayed driver must hash identically to the
// coordinator's, so weights cross the wire as raw f64 bit patterns,
// never as decimal text.
//
// Decoding throws exec::TransportError(kBadPayload) (or
// graph::ParseError from the .mgb decoder) on anything malformed — a
// corrupt spec refuses the job, it never runs a wrong instance.

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "mrlr/core/params.hpp"
#include "mrlr/graph/graph.hpp"
#include "mrlr/setcover/set_system.hpp"

namespace mrlr::jobs {

struct JobSpec {
  enum class InstanceKind : std::uint64_t {
    kGraph = 1,      ///< instance bytes are a complete .mgb stream
    kSetSystem = 2,  ///< instance bytes use the block format below
  };

  std::string algorithm;  ///< CLI algorithm name ("matching", "mis", ...)
  core::MrParams params;
  /// Driver arguments beyond MrParams, keyed by name. Scalars are
  /// single-element vectors; doubles are stored via core::pack_double.
  std::map<std::string, std::vector<std::uint64_t>> extras;
  InstanceKind kind = InstanceKind::kGraph;
  std::vector<std::byte> instance;
};

std::vector<std::byte> encode_job_spec(const JobSpec& spec);

/// Throws exec::TransportError(kBadPayload) on anything malformed.
JobSpec decode_job_spec(std::span<const std::byte> bytes);

/// Convenience builders for the two instance kinds.
JobSpec graph_job(std::string algorithm, const graph::Graph& g,
                  const core::MrParams& params);
JobSpec set_system_job(std::string algorithm,
                       const setcover::SetSystem& sys,
                       const core::MrParams& params);

/// Instance reconstruction (validates; throws on kind mismatch or
/// malformed bytes, on a graph whose n exceeds 2m + 4096, and on a set
/// system whose universe is larger than the element ids it carries
/// could cover).
graph::Graph decode_graph_instance(const JobSpec& spec);
setcover::SetSystem decode_set_system_instance(const JobSpec& spec);

}  // namespace mrlr::jobs
