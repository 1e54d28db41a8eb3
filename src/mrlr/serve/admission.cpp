#include "mrlr/serve/admission.hpp"

#include <algorithm>
#include <string>

#include "mrlr/exec/shard_transport.hpp"
#include "mrlr/graph/io_binary.hpp"
#include "mrlr/util/math.hpp"

namespace mrlr::serve {

std::uint64_t instance_dimension(const jobs::JobSpec& spec) {
  exec::wire::Reader r(spec.instance, "admission");
  if (spec.kind == jobs::JobSpec::InstanceKind::kGraph) {
    // The .mgb decoder's header check: admission never reads the edge
    // list, but an instance the decoder would refuse (bad header, a
    // byte count its m disagrees with, an unbacked n) is refused here,
    // not at run time in a forked job.
    try {
      return graph::check_mgb_header(spec.instance).n;
    } catch (const graph::ParseError& e) {
      r.fail(e.what());
    }
  }
  // Set-system block format (job_spec.cpp): the universe, then the set
  // count.
  return exec::wire::load<std::uint64_t>(
      r.bytes(16, "the set system header").data());
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
