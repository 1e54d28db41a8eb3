#include "mrlr/obs/export.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "mrlr/bench/json.hpp"

namespace mrlr::obs {

namespace {

using bench::Json;
using bench::JsonError;

/// u64 -> JSON number, guarded: JSON numbers are doubles, so anything
/// past 2^53 would silently lose bits on the round trip.
Json num_u64(std::uint64_t v, const char* field) {
  if (v > (std::uint64_t{1} << 53)) {
    throw JsonError(std::string("telemetry: field '") + field +
                    "' exceeds the exact-double range");
  }
  return Json::number(static_cast<double>(v));
}

std::uint64_t json_u64(const Json& j, std::string_view key) {
  const double v = j.at(key).as_number();
  if (v < 0 || v > 9007199254740992.0) {
    throw JsonError("telemetry: field '" + std::string(key) +
                    "' out of integer range");
  }
  return static_cast<std::uint64_t>(v);
}

Json span_to_json(const SpanRecord& s) {
  Json j = Json::object();
  j.set("type", Json::string("span"));
  j.set("phase", Json::string(std::string(phase_name(s.phase))));
  j.set("shard", num_u64(s.shard, "shard"));
  // Out-of-round spans (io_load) omit the key: kNoRound is not
  // representable as a JSON number.
  if (s.round != kNoRound) j.set("round", num_u64(s.round, "round"));
  j.set("start_ns", num_u64(s.start_ns, "start_ns"));
  j.set("dur_ns", num_u64(s.dur_ns, "dur_ns"));
  if (!s.label.empty()) j.set("label", Json::string(s.label));
  return j;
}

void write_jsonl(const TelemetrySnapshot& snap, std::ostream& os) {
  Json header = Json::object();
  header.set("mrlr_telemetry",
             Json::number(static_cast<double>(kTelemetryFileVersion)));
  header.set("clock", Json::string("steady-ns"));
  os << header.dump() << "\n";
  for (const SpanRecord& s : snap.spans) {
    os << span_to_json(s).dump() << "\n";
  }
  for (const auto& [name, value] : snap.counters) {
    Json j = Json::object();
    j.set("type", Json::string("counter"));
    j.set("name", Json::string(name));
    j.set("value", num_u64(value, name.c_str()));
    os << j.dump() << "\n";
  }
}

void write_chrome(const TelemetrySnapshot& snap, std::ostream& os) {
  Json events = Json::array();
  for (const SpanRecord& s : snap.spans) {
    Json e = Json::object();
    e.set("name", Json::string(std::string(phase_name(s.phase))));
    e.set("cat", Json::string("mrlr"));
    e.set("ph", Json::string("X"));
    // trace_event timestamps are microseconds (fractions allowed).
    e.set("ts", Json::number(static_cast<double>(s.start_ns) / 1e3));
    e.set("dur", Json::number(static_cast<double>(s.dur_ns) / 1e3));
    e.set("pid", Json::number(1));
    e.set("tid", Json::number(static_cast<double>(s.shard)));
    Json args = Json::object();
    if (s.round != kNoRound) args.set("round", num_u64(s.round, "round"));
    if (!s.label.empty()) args.set("label", Json::string(s.label));
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  Json counters = Json::object();
  for (const auto& [name, value] : snap.counters) {
    counters.set(name, num_u64(value, name.c_str()));
  }
  Json other = Json::object();
  other.set("mrlr_telemetry",
            Json::number(static_cast<double>(kTelemetryFileVersion)));
  other.set("counters", std::move(counters));
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", Json::string("ms"));
  doc.set("otherData", std::move(other));
  os << doc.dump(2) << "\n";
}

}  // namespace

std::optional<ExportFormat> export_format_from_name(std::string_view name) {
  if (name == "jsonl") return ExportFormat::kJsonl;
  if (name == "chrome") return ExportFormat::kChrome;
  return std::nullopt;
}

void write_telemetry(const TelemetrySnapshot& snap, ExportFormat format,
                     std::ostream& os) {
  if (format == ExportFormat::kJsonl) {
    write_jsonl(snap, os);
  } else {
    write_chrome(snap, os);
  }
}

void write_telemetry_file(const TelemetrySnapshot& snap, ExportFormat format,
                          const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  write_telemetry(snap, format, out);
  out.flush();
  if (!out) throw std::runtime_error("write failed: " + path);
}

TelemetrySnapshot read_telemetry_jsonl(std::istream& is) {
  TelemetrySnapshot snap;
  std::string line;
  bool saw_header = false;
  std::uint64_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const Json j = [&] {
      try {
        return Json::parse(line);
      } catch (const JsonError& e) {
        throw JsonError("telemetry line " + std::to_string(line_no) + ": " +
                        e.what());
      }
    }();
    if (!saw_header) {
      const Json* version = j.find("mrlr_telemetry");
      if (version == nullptr) {
        throw JsonError("telemetry: first line is not an mrlr_telemetry "
                        "header");
      }
      if (json_u64(j, "mrlr_telemetry") != kTelemetryFileVersion) {
        throw JsonError("telemetry: unsupported file version");
      }
      saw_header = true;
      continue;
    }
    const std::string& type = j.at("type").as_string();
    if (type == "span") {
      SpanRecord s;
      const std::string& phase = j.at("phase").as_string();
      const auto p = phase_from_name(phase);
      if (!p) throw JsonError("telemetry: unknown phase '" + phase + "'");
      s.phase = *p;
      s.shard = static_cast<std::uint32_t>(json_u64(j, "shard"));
      s.round = j.find("round") != nullptr ? json_u64(j, "round") : kNoRound;
      s.start_ns = json_u64(j, "start_ns");
      s.dur_ns = json_u64(j, "dur_ns");
      if (const Json* label = j.find("label")) s.label = label->as_string();
      snap.spans.push_back(std::move(s));
    } else if (type == "counter") {
      snap.counters[j.at("name").as_string()] += json_u64(j, "value");
    } else {
      throw JsonError("telemetry: unknown record type '" + type + "'");
    }
  }
  if (!saw_header) {
    throw JsonError("telemetry: empty file (missing header line)");
  }
  return snap;
}

TelemetrySnapshot read_telemetry_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  TelemetrySnapshot snap = read_telemetry_jsonl(in);
  if (in.bad()) throw std::runtime_error("read failed: " + path);
  return snap;
}

}  // namespace mrlr::obs
