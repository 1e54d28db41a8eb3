#include "mrlr/jobs/job_spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "mrlr/exec/shard_transport.hpp"
#include "mrlr/graph/io_binary.hpp"

namespace mrlr::jobs {

namespace {

using exec::wire::append_bytes;
using exec::wire::append_string;
using exec::wire::append_u64;

constexpr std::uint64_t kSpecVersion = 1;

[[noreturn]] void bad_spec(const std::string& what) {
  throw exec::TransportError(exec::TransportError::Kind::kBadPayload,
                             "job spec: " + what);
}

void encode_params(std::vector<std::byte>& out, const core::MrParams& p) {
  append_u64(out, core::pack_double(p.mu));
  append_u64(out, core::pack_double(p.c));
  append_u64(out, core::pack_double(p.slack));
  append_u64(out, core::pack_double(p.sample_boost));
  append_u64(out, p.seed);
  append_u64(out, p.max_iterations);
  append_u64(out, p.enforce_space ? 1 : 0);
  append_u64(out, p.num_threads);
  append_u64(out, p.num_shards);
}

core::MrParams decode_params(exec::wire::Reader& r) {
  core::MrParams p;
  p.mu = core::unpack_double(r.u64("params"));
  p.c = core::unpack_double(r.u64("params"));
  p.slack = core::unpack_double(r.u64("params"));
  p.sample_boost = core::unpack_double(r.u64("params"));
  p.seed = r.u64("params");
  p.max_iterations = r.u64("params");
  p.enforce_space = r.flag("enforce_space");
  p.num_threads = r.u64("params");
  p.num_shards = r.u64("params");
  return p;
}

}  // namespace

std::vector<std::byte> encode_job_spec(const JobSpec& spec) {
  // Sized once: the instance dominates, and growing past it would copy
  // it again. Fixed lanes: version, name length, nine params, extras
  // count, kind, instance length.
  std::size_t size = 8 * 14 + spec.algorithm.size() + spec.instance.size();
  for (const auto& [name, values] : spec.extras) {
    size += 16 + name.size() + 8 * values.size();
  }
  std::vector<std::byte> out;
  out.reserve(size);
  append_u64(out, kSpecVersion);
  append_string(out, spec.algorithm);
  encode_params(out, spec.params);
  append_u64(out, spec.extras.size());
  for (const auto& [name, values] : spec.extras) {
    append_string(out, name);
    append_u64(out, values.size());
    for (const std::uint64_t v : values) append_u64(out, v);
  }
  append_u64(out, static_cast<std::uint64_t>(spec.kind));
  append_u64(out, spec.instance.size());
  append_bytes(out, spec.instance.data(), spec.instance.size());
  return out;
}

JobSpec decode_job_spec(std::span<const std::byte> bytes) {
  exec::wire::Reader r(bytes, "job spec");
  const std::uint64_t version = r.u64("version");
  if (version != kSpecVersion) {
    r.fail("unsupported spec version " + std::to_string(version) +
           " (this build speaks version " + std::to_string(kSpecVersion) +
           ")");
  }
  JobSpec spec;
  spec.algorithm = r.string("algorithm name");
  if (spec.algorithm.empty()) r.fail("empty algorithm name");
  spec.params = decode_params(r);

  // Each extra costs at least two 8-byte length prefixes.
  const std::uint64_t extras = r.count("extras count", 16);
  for (std::uint64_t i = 0; i < extras; ++i) {
    std::string name = r.string("extra name");
    if (name.empty()) r.fail("empty extra name");
    std::vector<std::uint64_t> values(r.count("extra value count", 8));
    for (std::uint64_t& v : values) v = r.u64("extra values");
    if (!spec.extras.emplace(std::move(name), std::move(values)).second) {
      r.fail("duplicate extra name");
    }
  }

  const std::uint64_t kind = r.u64("instance kind");
  if (kind != static_cast<std::uint64_t>(JobSpec::InstanceKind::kGraph) &&
      kind !=
          static_cast<std::uint64_t>(JobSpec::InstanceKind::kSetSystem)) {
    r.fail("unknown instance kind " + std::to_string(kind));
  }
  spec.kind = static_cast<JobSpec::InstanceKind>(kind);
  const std::uint64_t len = r.u64("instance");
  const std::span<const std::byte> instance = r.bytes(len, "instance");
  spec.instance.assign(instance.begin(), instance.end());
  r.done("the instance");
  return spec;
}

JobSpec graph_job(std::string algorithm, const graph::Graph& g,
                  const core::MrParams& params) {
  JobSpec spec;
  spec.algorithm = std::move(algorithm);
  spec.params = params;
  spec.kind = JobSpec::InstanceKind::kGraph;
  spec.instance = graph::encode_mgb(g.data());
  return spec;
}

JobSpec set_system_job(std::string algorithm,
                       const setcover::SetSystem& sys,
                       const core::MrParams& params) {
  JobSpec spec;
  spec.algorithm = std::move(algorithm);
  spec.params = params;
  spec.kind = JobSpec::InstanceKind::kSetSystem;
  // Block format: universe, set count, then per set (f64 weight bits,
  // element count, raw u32 elements). Weights as bit patterns — the
  // replayed instance must be bit-identical, not merely close.
  std::vector<std::byte>& out = spec.instance;
  out.reserve(16 + 16 * sys.num_sets() +
              sizeof(setcover::ElementId) * sys.total_incidences());
  append_u64(out, sys.universe_size());
  append_u64(out, sys.num_sets());
  for (setcover::SetId i = 0; i < sys.num_sets(); ++i) {
    append_u64(out, core::pack_double(sys.weight(i)));
    const std::span<const setcover::ElementId> s = sys.set(i);
    append_u64(out, s.size());
    append_bytes(out, s.data(), s.size_bytes());
  }
  return spec;
}

graph::Graph decode_graph_instance(const JobSpec& spec) {
  if (spec.kind != JobSpec::InstanceKind::kGraph) {
    bad_spec("algorithm \"" + spec.algorithm +
             "\" needs a graph instance but the spec carries kind " +
             std::to_string(static_cast<std::uint64_t>(spec.kind)));
  }
  return graph::decode_mgb(spec.instance).build();
}

setcover::SetSystem decode_set_system_instance(const JobSpec& spec) {
  if (spec.kind != JobSpec::InstanceKind::kSetSystem) {
    bad_spec("algorithm \"" + spec.algorithm +
             "\" needs a set system instance but the spec carries kind " +
             std::to_string(static_cast<std::uint64_t>(spec.kind)));
  }
  exec::wire::Reader r(spec.instance, "job spec");
  // Every set-cover driver needs a coverable instance, which carries at
  // least one element id per universe element; the bound also keeps a
  // forged universe from sizing the element index.
  const std::uint64_t universe =
      r.count("set system universe", sizeof(setcover::ElementId));
  if (universe > std::uint64_t{1} << 32) {
    r.fail("set system universe exceeds the 32-bit element-id limit");
  }
  // Each set costs at least its weight and count fields.
  const std::uint64_t nsets = r.count("set count", 16);
  // The bytes left after the set headers bound the element count
  // (exactly, for a payload that decodes), so the element array is
  // reserved once and filled in place.
  const std::uint64_t max_elements =
      (spec.instance.size() - 16 - 16 * nsets) / sizeof(setcover::ElementId);
  std::vector<std::uint64_t> offsets;
  offsets.reserve(nsets + 1);
  offsets.push_back(0);
  std::vector<setcover::ElementId> elements;
  elements.reserve(max_elements);
  std::vector<double> weights;
  weights.reserve(nsets);
  for (std::uint64_t i = 0; i < nsets; ++i) {
    const double w = core::unpack_double(r.u64("set weight"));
    if (!std::isfinite(w) || w <= 0.0) {
      r.fail("set " + std::to_string(i) +
             " weight must be finite and positive");
    }
    weights.push_back(w);
    // Stricter than Reader::count: the sets after this one need their
    // 16 header bytes too.
    const std::uint64_t count = r.u64("set size");
    const std::uint64_t filled = elements.size();
    if (count > max_elements - filled) {
      r.fail("set size " + std::to_string(count) +
             " exceeds the remaining payload");
    }
    const std::span<const std::byte> raw =
        r.bytes(count * sizeof(setcover::ElementId), "set elements");
    elements.resize(filled + count);
    setcover::ElementId* const set = elements.data() + filled;
    if (count > 0) std::memcpy(set, raw.data(), raw.size());
    if (count > 0 && *std::max_element(set, set + count) >= universe) {
      r.fail("set " + std::to_string(i) + " element out of the universe");
    }
    offsets.push_back(elements.size());
  }
  r.done("the last set");
  return setcover::SetSystem(universe, std::move(offsets),
                             std::move(elements), std::move(weights));
}

}  // namespace mrlr::jobs
