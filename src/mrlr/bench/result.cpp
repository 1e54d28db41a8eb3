#include "mrlr/bench/result.hpp"

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace mrlr::bench {
namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The schema forbids non-finite metrics: Json would emit them as
/// `null` (JSON has no inf/nan), which the reader rejects — the file
/// would be written successfully but never readable by bench_diff.
/// Failing at write time points at the scenario instead.
Json finite_num(double v, const char* field) {
  if (!std::isfinite(v)) {
    throw JsonError(std::string("non-finite value for '") + field +
                    "' (scenario must emit finite metrics)");
  }
  return Json::number(v);
}

std::uint64_t json_u64(const Json& j, std::string_view key) {
  const double v = j.at(key).as_number();
  if (v < 0 || v > 9007199254740992.0) {  // 2^53: exact-double range
    throw JsonError("json: field '" + std::string(key) +
                    "' out of integer range");
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace

void HashAcc::mix(std::uint64_t x) { h_ = splitmix(h_ ^ x); }
void HashAcc::mix(double d) { mix(std::bit_cast<std::uint64_t>(d)); }
void HashAcc::mix(const std::string& s) {
  for (const char c : s) {
    mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  mix(static_cast<std::uint64_t>(s.size()));
}

std::string hash_to_hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::uint64_t hash_from_hex(const std::string& s) {
  if (s.size() != 18 || s[0] != '0' || s[1] != 'x') {
    throw JsonError("json: bad determinism_hash '" + s + "'");
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str() + 2, &end, 16);
  if (errno != 0 || end != s.c_str() + s.size()) {
    throw JsonError("json: bad determinism_hash '" + s + "'");
  }
  return static_cast<std::uint64_t>(v);
}

Json to_json(const BenchResult& r) {
  Json j = Json::object();
  j.set("name", Json::string(r.name));
  j.set("algo", Json::string(r.algo));
  j.set("family", Json::string(r.family));
  j.set("n", Json::number(static_cast<double>(r.n)));
  j.set("m", Json::number(static_cast<double>(r.m)));
  j.set("mu", finite_num(r.mu, "mu"));
  j.set("c", finite_num(r.c, "c"));
  j.set("threads", Json::number(static_cast<double>(r.threads)));
  j.set("format", Json::string(r.format));
  j.set("wall_seconds", finite_num(r.wall_seconds, "wall_seconds"));
  j.set("rounds", Json::number(static_cast<double>(r.rounds)));
  j.set("iterations", Json::number(static_cast<double>(r.iterations)));
  j.set("max_machine_words",
        Json::number(static_cast<double>(r.max_machine_words)));
  j.set("max_central_inbox",
        Json::number(static_cast<double>(r.max_central_inbox)));
  j.set("shuffle_words", Json::number(static_cast<double>(r.shuffle_words)));
  j.set("quality", finite_num(r.quality, "quality"));
  j.set("quality_vs_baseline",
        finite_num(r.quality_vs_baseline, "quality_vs_baseline"));
  j.set("determinism_hash", Json::string(hash_to_hex(r.determinism_hash)));
  j.set("failed", Json::boolean(r.failed));
  Json extra = Json::object();
  for (const auto& [k, v] : r.extra) extra.set(k, finite_num(v, k.c_str()));
  j.set("extra", std::move(extra));
  if (!r.manifest.empty()) {
    Json manifest = Json::object();
    for (const auto& [k, v] : r.manifest) manifest.set(k, Json::string(v));
    j.set("manifest", std::move(manifest));
  }
  return j;
}

Json to_json(const BenchFile& f) {
  Json j = Json::object();
  j.set("schema_version",
        Json::number(static_cast<double>(f.schema_version)));
  j.set("tool", Json::string(f.tool));
  Json results = Json::array();
  for (const BenchResult& r : f.results) results.push(to_json(r));
  j.set("results", std::move(results));
  return j;
}

BenchResult bench_result_from_json(const Json& j) {
  BenchResult r;
  r.name = j.at("name").as_string();
  r.algo = j.at("algo").as_string();
  r.family = j.at("family").as_string();
  r.n = json_u64(j, "n");
  r.m = json_u64(j, "m");
  r.mu = j.at("mu").as_number();
  r.c = j.at("c").as_number();
  r.threads = json_u64(j, "threads");
  r.format = j.at("format").as_string();
  r.wall_seconds = j.at("wall_seconds").as_number();
  r.rounds = json_u64(j, "rounds");
  r.iterations = json_u64(j, "iterations");
  r.max_machine_words = json_u64(j, "max_machine_words");
  r.max_central_inbox = json_u64(j, "max_central_inbox");
  r.shuffle_words = json_u64(j, "shuffle_words");
  r.quality = j.at("quality").as_number();
  r.quality_vs_baseline = j.at("quality_vs_baseline").as_number();
  r.determinism_hash = hash_from_hex(j.at("determinism_hash").as_string());
  r.failed = j.at("failed").as_bool();
  for (const auto& [k, v] : j.at("extra").fields()) {
    r.extra[k] = v.as_number();
  }
  // Optional: files written before the manifest existed lack the key.
  if (const Json* manifest = j.find("manifest")) {
    for (const auto& [k, v] : manifest->fields()) {
      r.manifest[k] = v.as_string();
    }
  }
  return r;
}

BenchFile bench_file_from_json(const Json& j) {
  BenchFile f;
  f.schema_version = json_u64(j, "schema_version");
  if (f.schema_version != kBenchSchemaVersion) {
    throw JsonError("bench file schema_version " +
                    std::to_string(f.schema_version) +
                    " is not the supported version " +
                    std::to_string(kBenchSchemaVersion));
  }
  f.tool = j.at("tool").as_string();
  for (const Json& item : j.at("results").items()) {
    f.results.push_back(bench_result_from_json(item));
  }
  return f;
}

void write_bench_file(const BenchFile& f, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << to_json(f).dump(2) << "\n";
  out.flush();
  if (!out) throw std::runtime_error("write failed: " + path);
}

BenchFile read_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) throw std::runtime_error("read failed: " + path);
  return bench_file_from_json(Json::parse(buf.str()));
}

}  // namespace mrlr::bench
