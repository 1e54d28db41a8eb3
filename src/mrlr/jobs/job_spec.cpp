#include "mrlr/jobs/job_spec.hpp"

#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "mrlr/exec/shard_transport.hpp"
#include "mrlr/graph/io_binary.hpp"

namespace mrlr::jobs {

namespace {

using exec::append_u64;
using exec::read_u64;

constexpr std::uint64_t kSpecVersion = 1;

[[noreturn]] void bad_spec(const std::string& what) {
  throw exec::TransportError(exec::TransportError::Kind::kBadPayload,
                             "job spec: " + what);
}

void append_bytes(std::vector<std::byte>& out, const void* data,
                  std::size_t n) {
  if (n == 0) return;
  const auto at = out.size();
  out.resize(at + n);
  std::memcpy(out.data() + at, data, n);
}

void append_string(std::vector<std::byte>& out, std::string_view s) {
  append_u64(out, s.size());
  append_bytes(out, s.data(), s.size());
}

/// Sequential reader with bounds checking; every primitive throws
/// kBadPayload instead of running off the payload.
struct Reader {
  std::span<const std::byte> bytes;
  std::size_t at = 0;

  void need(std::size_t n, const char* what) const {
    if (bytes.size() - at < n) {
      bad_spec(std::string("truncated inside ") + what);
    }
  }
  std::uint64_t u64(const char* what) {
    need(8, what);
    const std::uint64_t v = read_u64(bytes, at);
    at += 8;
    return v;
  }
  std::string string(const char* what) {
    const std::uint64_t len = u64(what);
    need(len, what);
    std::string s(reinterpret_cast<const char*>(bytes.data() + at), len);
    at += len;
    return s;
  }
  void raw(void* dst, std::size_t n, const char* what) {
    need(n, what);
    std::memcpy(dst, bytes.data() + at, n);
    at += n;
  }
};

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

core::MrParams decode_params(Reader& r) {
  core::MrParams p;
  p.mu = core::unpack_double(r.u64("params"));
  p.c = core::unpack_double(r.u64("params"));
  p.slack = core::unpack_double(r.u64("params"));
  p.sample_boost = core::unpack_double(r.u64("params"));
  p.seed = r.u64("params");
  p.max_iterations = r.u64("params");
  const std::uint64_t enforce = r.u64("params");
  if (enforce > 1) bad_spec("enforce_space flag must be 0 or 1");
  p.enforce_space = enforce == 1;
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
  Reader r{bytes};
  const std::uint64_t version = r.u64("version");
  if (version != kSpecVersion) {
    bad_spec("unsupported spec version " + std::to_string(version) +
             " (this build speaks version " + std::to_string(kSpecVersion) +
             ")");
  }
  JobSpec spec;
  spec.algorithm = r.string("algorithm name");
  if (spec.algorithm.empty()) bad_spec("empty algorithm name");
  spec.params = decode_params(r);

  const std::uint64_t extras = r.u64("extras count");
  // Each extra costs at least two 8-byte length prefixes.
  if (extras > (bytes.size() - r.at) / 16) {
    bad_spec("extras count " + std::to_string(extras) +
             " exceeds the remaining payload");
  }
  for (std::uint64_t i = 0; i < extras; ++i) {
    std::string name = r.string("extra name");
    if (name.empty()) bad_spec("empty extra name");
    const std::uint64_t count = r.u64("extra values");
    if (count > (bytes.size() - r.at) / 8) {
      bad_spec("extra \"" + name + "\" value count " +
               std::to_string(count) + " exceeds the remaining payload");
    }
    std::vector<std::uint64_t> values(count);
    for (std::uint64_t j = 0; j < count; ++j) {
      values[j] = r.u64("extra values");
    }
    if (!spec.extras.emplace(std::move(name), std::move(values)).second) {
      bad_spec("duplicate extra name");
    }
  }

  const std::uint64_t kind = r.u64("instance kind");
  if (kind != static_cast<std::uint64_t>(JobSpec::InstanceKind::kGraph) &&
      kind !=
          static_cast<std::uint64_t>(JobSpec::InstanceKind::kSetSystem)) {
    bad_spec("unknown instance kind " + std::to_string(kind));
  }
  spec.kind = static_cast<JobSpec::InstanceKind>(kind);
  const std::uint64_t len = r.u64("instance");
  r.need(len, "instance");
  spec.instance.assign(
      r.bytes.begin() + static_cast<std::ptrdiff_t>(r.at),
      r.bytes.begin() + static_cast<std::ptrdiff_t>(r.at + len));
  r.at += len;
  if (r.at != bytes.size()) {
    bad_spec(std::to_string(bytes.size() - r.at) +
             " trailing bytes after the instance");
  }
  return spec;
}

JobSpec graph_job(std::string algorithm, const graph::Graph& g,
                  const core::MrParams& params) {
  JobSpec spec;
  spec.algorithm = std::move(algorithm);
  spec.params = params;
  spec.kind = JobSpec::InstanceKind::kGraph;
  spec.instance = graph::serialize_mgb(g);
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
  return graph::parse_mgb(spec.instance);
}

setcover::SetSystem decode_set_system_instance(const JobSpec& spec) {
  if (spec.kind != JobSpec::InstanceKind::kSetSystem) {
    bad_spec("algorithm \"" + spec.algorithm +
             "\" needs a set system instance but the spec carries kind " +
             std::to_string(static_cast<std::uint64_t>(spec.kind)));
  }
  Reader r{spec.instance};
  const std::uint64_t universe = r.u64("set system universe");
  const std::uint64_t nsets = r.u64("set system count");
  if (universe > std::uint64_t{1} << 32) {
    bad_spec("set system universe exceeds the 32-bit element-id limit");
  }
  // Each set costs at least its weight and count fields.
  if (nsets > (spec.instance.size() - r.at) / 16) {
    bad_spec("set count " + std::to_string(nsets) +
             " exceeds the remaining payload");
  }
  std::vector<std::vector<setcover::ElementId>> sets;
  sets.reserve(nsets);
  std::vector<double> weights;
  weights.reserve(nsets);
  for (std::uint64_t i = 0; i < nsets; ++i) {
    const double w = core::unpack_double(r.u64("set weight"));
    if (!std::isfinite(w) || w <= 0.0) {
      bad_spec("set " + std::to_string(i) +
               " weight must be finite and positive");
    }
    weights.push_back(w);
    const std::uint64_t count = r.u64("set size");
    if (count > (spec.instance.size() - r.at) / 4) {
      bad_spec("set " + std::to_string(i) + " size " +
               std::to_string(count) + " exceeds the remaining payload");
    }
    std::vector<setcover::ElementId> elems(count);
    r.raw(elems.data(), count * sizeof(setcover::ElementId),
          "set elements");
    for (const setcover::ElementId e : elems) {
      if (e >= universe) {
        bad_spec("set " + std::to_string(i) +
                 " element out of the universe");
      }
    }
    sets.push_back(std::move(elems));
  }
  if (r.at != spec.instance.size()) {
    bad_spec(std::to_string(spec.instance.size() - r.at) +
             " trailing bytes after the last set");
  }
  return setcover::SetSystem(universe, std::move(sets), std::move(weights));
}

}  // namespace mrlr::jobs
