#include "mrlr/obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "mrlr/util/table.hpp"

namespace mrlr::obs {

namespace {

std::string fmt_seconds(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", static_cast<double>(ns) / 1e9);
  return buf;
}

std::string fmt_percent(std::uint64_t part_ns, std::uint64_t whole_ns) {
  if (whole_ns == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%",
                100.0 * static_cast<double>(part_ns) /
                    static_cast<double>(whole_ns));
  return buf;
}

void emit_markdown_table(const std::vector<std::string>& headers,
                         const std::vector<std::vector<std::string>>& rows,
                         std::ostream& os) {
  os << "|";
  for (const std::string& h : headers) os << " " << h << " |";
  os << "\n|";
  for (std::size_t i = 0; i < headers.size(); ++i) os << " --- |";
  os << "\n";
  for (const auto& row : rows) {
    os << "|";
    for (const std::string& cell : row) {
      os << " ";
      for (const char c : cell) {
        if (c == '|') os << '\\';  // a round label may hold a pipe
        os << c;
      }
      os << " |";
    }
    os << "\n";
  }
}

void emit_table(const std::vector<std::string>& headers,
                const std::vector<std::vector<std::string>>& rows,
                std::ostream& os, bool markdown) {
  if (markdown) {
    emit_markdown_table(headers, rows, os);
    return;
  }
  Table t(headers);
  for (const auto& row : rows) {
    t.row();
    for (const std::string& cell : row) t.cell(cell);
  }
  t.print(os);
}

}  // namespace

ProfileReport build_report(const TelemetrySnapshot& snap) {
  ProfileReport report;
  report.counters = snap.counters;

  // Group span indices by shard, then compute self times per shard by
  // time containment with an open-span stack.
  std::map<std::uint32_t, std::vector<std::size_t>> by_shard;
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    by_shard[snap.spans[i].shard].push_back(i);
  }

  std::vector<std::uint64_t> self(snap.spans.size(), 0);
  for (auto& [shard, indices] : by_shard) {
    std::sort(indices.begin(), indices.end(),
              [&](std::size_t a, std::size_t b) {
                const SpanRecord& sa = snap.spans[a];
                const SpanRecord& sb = snap.spans[b];
                if (sa.start_ns != sb.start_ns) {
                  return sa.start_ns < sb.start_ns;
                }
                return sa.dur_ns > sb.dur_ns;  // enclosing span first
              });
    struct Open {
      std::uint64_t end_ns;
      std::size_t index;
    };
    std::vector<Open> stack;
    for (const std::size_t i : indices) {
      const SpanRecord& s = snap.spans[i];
      while (!stack.empty() && s.start_ns >= stack.back().end_ns) {
        stack.pop_back();
      }
      self[i] = s.dur_ns;
      if (!stack.empty()) {
        // Attribute this span's time to its nearest enclosing span.
        // Clamp: clock jitter can make a child nominally outlast its
        // parent's remaining self time.
        std::uint64_t& parent_self = self[stack.back().index];
        parent_self -= std::min(parent_self, s.dur_ns);
      }
      stack.push_back(Open{s.start_ns + s.dur_ns, i});
    }
  }

  for (const auto& [shard, indices] : by_shard) {
    ShardProfile profile;
    profile.shard = shard;
    for (const std::size_t i : indices) {
      const SpanRecord& s = snap.spans[i];
      PhaseStat& shard_stat = profile.phases[s.phase];
      shard_stat.spans += 1;
      shard_stat.total_ns += s.dur_ns;
      shard_stat.self_ns += self[i];
      PhaseStat& all_stat = report.by_phase[s.phase];
      all_stat.spans += 1;
      all_stat.total_ns += s.dur_ns;
      all_stat.self_ns += self[i];
      if (s.phase == Phase::kRound) {
        report.round_total_ns += s.dur_ns;
        PhaseStat& label_stat = report.by_round_label[s.label];
        label_stat.spans += 1;
        label_stat.total_ns += s.dur_ns;
        label_stat.self_ns += self[i];
      }
    }
    report.by_shard.push_back(std::move(profile));
  }
  return report;
}

void render_report(const ProfileReport& report, std::ostream& os,
                   bool markdown) {
  {
    std::vector<std::vector<std::string>> rows;
    for (const auto& [phase, stat] : report.by_phase) {
      rows.push_back({std::string(phase_name(phase)),
                      std::to_string(stat.spans), fmt_seconds(stat.total_ns),
                      fmt_seconds(stat.self_ns),
                      fmt_percent(stat.total_ns, report.round_total_ns)});
    }
    if (markdown) os << "### Per-phase totals\n\n";
    emit_table({"phase", "spans", "total_s", "self_s", "% of round"}, rows,
               os, markdown);
    os << "\n";
  }

  if (!report.by_round_label.empty()) {
    std::vector<std::vector<std::string>> rows;
    for (const auto& [label, stat] : report.by_round_label) {
      // Minor page faults of every process while rounds of this label
      // ran (the engine's and workers' proc.minor_faults.round.<label>).
      const auto faults =
          report.counters.find("proc.minor_faults.round." + label);
      rows.push_back({label.empty() ? "-" : label,
                      std::to_string(stat.spans), fmt_seconds(stat.total_ns),
                      fmt_percent(stat.total_ns, report.round_total_ns),
                      faults == report.counters.end()
                          ? "-"
                          : std::to_string(faults->second)});
    }
    if (markdown) os << "### Per-round-label totals\n\n";
    emit_table({"round", "spans", "total_s", "% of round", "faults"}, rows,
               os, markdown);
    os << "\n";
  }

  if (report.by_shard.size() > 1) {
    std::vector<std::vector<std::string>> rows;
    for (const ShardProfile& profile : report.by_shard) {
      for (const auto& [phase, stat] : profile.phases) {
        rows.push_back({std::to_string(profile.shard),
                        std::string(phase_name(phase)),
                        std::to_string(stat.spans),
                        fmt_seconds(stat.total_ns),
                        fmt_seconds(stat.self_ns)});
      }
    }
    if (markdown) os << "### Per-shard breakdown\n\n";
    emit_table({"shard", "phase", "spans", "total_s", "self_s"}, rows, os,
               markdown);
    os << "\n";
  }

  if (!report.counters.empty()) {
    std::vector<std::vector<std::string>> rows;
    for (const auto& [name, value] : report.counters) {
      rows.push_back({name, std::to_string(value)});
    }
    if (markdown) os << "### Counters\n\n";
    emit_table({"counter", "value"}, rows, os, markdown);
    os << "\n";
  }
}

}  // namespace mrlr::obs
