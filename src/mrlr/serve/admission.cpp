#include "mrlr/serve/admission.hpp"

#include <algorithm>
#include <string>

#include "mrlr/exec/shard_transport.hpp"
#include "mrlr/graph/io_binary.hpp"
#include "mrlr/util/math.hpp"

namespace mrlr::serve {

namespace {

[[noreturn]] void bad_instance(const std::string& what) {
  throw exec::TransportError(exec::TransportError::Kind::kBadPayload,
                             "admission: " + what);
}

}  // namespace

std::uint64_t instance_dimension(const jobs::JobSpec& spec) {
  if (spec.kind == jobs::JobSpec::InstanceKind::kGraph) {
    // The .mgb header keeps n at a fixed offset (graph/io_binary.hpp),
    // so admission never parses the edge list; magic and version are
    // still vetted so a garbage instance is refused here, not at run
    // time in a forked job.
    if (spec.instance.size() < 32) {
      bad_instance("graph instance shorter than the .mgb header");
    }
    // Little-endian u32 magic, then u32 version.
    const std::uint64_t magic_version = exec::read_u64(spec.instance, 0);
    if (static_cast<std::uint32_t>(magic_version) != graph::kMgbMagic) {
      bad_instance("graph instance does not start with the MGB1 magic");
    }
    if ((magic_version >> 32) != graph::kMgbVersion) {
      bad_instance("graph instance has an unsupported .mgb version");
    }
    return exec::read_u64(spec.instance, 8);
  }
  // Set-system block format (job_spec.cpp): the universe is the first
  // u64.
  if (spec.instance.size() < 16) {
    bad_instance("set system instance shorter than its header");
  }
  return exec::read_u64(spec.instance, 0);
}

std::uint64_t projected_machine_words(const jobs::JobSpec& spec) {
  const std::uint64_t n = instance_dimension(spec);
  const core::MrParams& p = spec.params;
  const std::uint64_t eta = std::max<std::uint64_t>(
      1, ipow_real(std::max<std::uint64_t>(n, 2), 1.0 + p.mu));
  const double words =
      (p.slack / 16.0) *
      (24.0 * std::max(1.0, p.sample_boost) * static_cast<double>(eta) +
       2.0 * static_cast<double>(n));
  if (words >= 9.0e18) return ~std::uint64_t{0};  // saturate, never wrap
  return static_cast<std::uint64_t>(words) + 64;
}

}  // namespace mrlr::serve
