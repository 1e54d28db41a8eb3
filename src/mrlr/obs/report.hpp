#pragma once
// Profile aggregation over a telemetry snapshot: per-phase and
// per-shard totals with self time (total minus time spent in nested
// spans on the same shard track), the table tools/trace_report renders.
//
// Self time is computed per shard by time containment: spans recorded
// by one process nest properly (RAII), so sorting by start and keeping
// an open-span stack attributes each span's duration to its nearest
// enclosing span. Worker spans (shard > 0) overlap the coordinator's
// round span in wall time but live on their own track, so "% of round"
// is measured against the summed kRound durations, not wall time.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "mrlr/obs/telemetry.hpp"

namespace mrlr::obs {

struct PhaseStat {
  std::uint64_t spans = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

struct ShardProfile {
  std::uint32_t shard = 0;
  std::map<Phase, PhaseStat> phases;
};

struct ProfileReport {
  std::map<Phase, PhaseStat> by_phase;  ///< summed over all shards
  std::vector<ShardProfile> by_shard;   ///< ascending shard id
  std::uint64_t round_total_ns = 0;     ///< sum of kRound span durations
  /// kRound spans by the round's label (e.g. a driver's "forward-phi"),
  /// so a before/after shows which of a job's rounds moved.
  std::map<std::string, PhaseStat> by_round_label;
  std::map<std::string, std::uint64_t> counters;
};

ProfileReport build_report(const TelemetrySnapshot& snap);

/// Renders the per-phase table, the per-round-label totals, the
/// per-shard breakdown, and the counters. `markdown` emits
/// GitHub-flavoured pipe tables (the CI artifact form); otherwise
/// fixed-width console tables.
void render_report(const ProfileReport& report, std::ostream& os,
                   bool markdown);

}  // namespace mrlr::obs
