#include "mrlr/jobs/worker.hpp"

#include <cstdio>
#include <functional>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "mrlr/baselines/coreset_matching.hpp"
#include "mrlr/baselines/filtering_matching.hpp"
#include "mrlr/baselines/luby_colouring_mr.hpp"
#include "mrlr/baselines/luby_mr.hpp"
#include "mrlr/core/colouring.hpp"
#include "mrlr/core/greedy_setcover_mr.hpp"
#include "mrlr/core/hungry_clique.hpp"
#include "mrlr/core/hungry_mis.hpp"
#include "mrlr/core/rlr_bmatching.hpp"
#include "mrlr/core/rlr_matching.hpp"
#include "mrlr/core/rlr_setcover.hpp"
#include "mrlr/exec/shard_worker.hpp"
#include "mrlr/graph/generators.hpp"
#include "mrlr/graph/validate.hpp"
#include "mrlr/setcover/validate.hpp"
#include "mrlr/util/mix64.hpp"
#include "mrlr/util/require.hpp"
#include "mrlr/util/rng.hpp"
#include "mrlr/util/threads.hpp"

namespace mrlr::jobs {

namespace {

[[noreturn]] void bad_job(const std::string& what) {
  throw exec::TransportError(exec::TransportError::Kind::kBadPayload,
                             "job: " + what);
}

// --------------------------------------------------- result assembly --
//
// Every runner returns a JobResult: the order-sensitive mix64 hash of
// the solution ids, the validator's verdict, the MrOutcome metrics, and
// the per-algorithm stats in fingerprint order (job_result.hpp renders
// them back into the legacy one-line string byte-for-byte).

template <typename T>
std::uint64_t hash_ids(const std::vector<T>& ids) {
  std::uint64_t h = mix64(0x6A6F622E68617368ull ^ ids.size());  // "job.hash"
  for (const T x : ids) h = mix64(h ^ static_cast<std::uint64_t>(x));
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

template <typename T>
JobResult make_result(const JobSpec& spec, const std::vector<T>& ids,
                      bool valid, const core::MrOutcome& outcome) {
  JobResult r;
  r.algorithm = spec.algorithm;
  r.solution_hash = hash_ids(ids);
  r.solution_size = ids.size();
  r.valid = valid;
  r.outcome = outcome;
  return r;
}

JobStat count_stat(std::string name, std::uint64_t v) {
  return JobStat{std::move(name), v, JobStat::Kind::kCount};
}

JobStat double_stat(std::string name, double v) {
  return JobStat{std::move(name), core::pack_double(v),
                 JobStat::Kind::kPackedDouble};
}

// ----------------------------------------------------- extras access --

const std::vector<std::uint64_t>& extra(const JobSpec& spec,
                                        const std::string& name) {
  const auto it = spec.extras.find(name);
  if (it == spec.extras.end()) {
    bad_job("algorithm \"" + spec.algorithm + "\" needs extra \"" + name +
            "\" but the spec does not carry it");
  }
  return it->second;
}

double extra_double(const JobSpec& spec, const std::string& name) {
  const auto& v = extra(spec, name);
  if (v.size() != 1) {
    bad_job("extra \"" + name + "\" must be a single packed double");
  }
  return core::unpack_double(v[0]);
}

// ---------------------------------------------------------- runners --

using Runner = JobResult (*)(const JobSpec&);

JobResult run_matching(const JobSpec& spec) {
  const graph::Graph g = decode_graph_instance(spec);
  const auto r = core::rlr_matching(g, spec.params);
  JobResult res = make_result(spec, r.matching,
                              graph::is_matching(g, r.matching), r.outcome);
  res.stats = {double_stat("weight", r.weight),
               count_stat("stack", r.stack_size)};
  return res;
}

JobResult run_filtering_matching(const JobSpec& spec) {
  const graph::Graph g = decode_graph_instance(spec);
  const auto r = baselines::filtering_matching(g, spec.params);
  JobResult res =
      make_result(spec, r.matching,
                  graph::is_maximal_matching(g, r.matching), r.outcome);
  res.stats = {double_stat("weight", r.weight)};
  return res;
}

JobResult run_filtering_weighted(const JobSpec& spec) {
  const graph::Graph g = decode_graph_instance(spec);
  const auto r = baselines::filtering_weighted_matching(g, spec.params);
  JobResult res = make_result(spec, r.matching,
                              graph::is_matching(g, r.matching), r.outcome);
  res.stats = {double_stat("weight", r.weight)};
  return res;
}

JobResult run_coreset_matching(const JobSpec& spec) {
  const graph::Graph g = decode_graph_instance(spec);
  const auto r = baselines::coreset_matching(g, spec.params);
  JobResult res = make_result(spec, r.matching,
                              graph::is_matching(g, r.matching), r.outcome);
  res.stats = {double_stat("weight", r.weight),
               count_stat("coreset", r.coreset_union_size)};
  return res;
}

JobResult run_b_matching(const JobSpec& spec) {
  const graph::Graph g = decode_graph_instance(spec);
  const double eps = extra_double(spec, "eps");
  const auto& raw = extra(spec, "b");
  std::vector<std::uint32_t> b;
  if (raw.size() == 1) {
    b.assign(g.num_vertices(), static_cast<std::uint32_t>(raw[0]));
  } else if (raw.size() == g.num_vertices()) {
    b.reserve(raw.size());
    for (const std::uint64_t v : raw) {
      b.push_back(static_cast<std::uint32_t>(v));
    }
  } else {
    bad_job("extra \"b\" must be one capacity or one per vertex");
  }
  const auto r = core::rlr_b_matching(g, b, eps, spec.params);
  JobResult res = make_result(
      spec, r.matching, graph::is_b_matching(g, r.matching, b), r.outcome);
  res.stats = {double_stat("weight", r.weight),
               count_stat("stack", r.stack_size)};
  return res;
}

JobResult run_vertex_cover(const JobSpec& spec) {
  const graph::Graph g = decode_graph_instance(spec);
  const auto& raw = extra(spec, "w");
  if (raw.size() != g.num_vertices()) {
    bad_job("extra \"w\" must carry one packed weight per vertex");
  }
  std::vector<double> w;
  w.reserve(raw.size());
  for (const std::uint64_t v : raw) w.push_back(core::unpack_double(v));
  const auto r = core::rlr_vertex_cover(g, w, spec.params);
  JobResult res = make_result(spec, r.cover,
                              graph::is_vertex_cover(g, r.cover), r.outcome);
  res.stats = {double_stat("weight", r.weight),
               double_stat("lb", r.lower_bound)};
  return res;
}

JobResult run_set_cover_f(const JobSpec& spec) {
  const setcover::SetSystem sys = decode_set_system_instance(spec);
  const auto r = core::rlr_set_cover(sys, spec.params);
  JobResult res = make_result(spec, r.cover,
                              setcover::is_cover(sys, r.cover), r.outcome);
  res.stats = {double_stat("weight", r.weight),
               double_stat("lb", r.lower_bound)};
  return res;
}

JobResult run_set_cover_greedy(const JobSpec& spec) {
  const setcover::SetSystem sys = decode_set_system_instance(spec);
  const double eps = extra_double(spec, "eps");
  const auto r = core::greedy_set_cover_mr(sys, eps, spec.params);
  JobResult res = make_result(spec, r.cover,
                              setcover::is_cover(sys, r.cover), r.outcome);
  res.stats = {double_stat("weight", r.weight),
               count_stat("drops", r.level_drops),
               count_stat("resamples", r.sampling_failures),
               count_stat("pre", r.preprocessed_sets)};
  return res;
}

JobResult run_mis(const JobSpec& spec) {
  const graph::Graph g = decode_graph_instance(spec);
  const auto r = spec.algorithm == "mis"
                     ? core::hungry_mis_improved(g, spec.params)
                     : core::hungry_mis_simple(g, spec.params);
  JobResult res = make_result(
      spec, r.independent_set,
      graph::is_maximal_independent_set(g, r.independent_set), r.outcome);
  res.stats = {count_stat("phases", r.phases),
               count_stat("central", r.central_adds)};
  return res;
}

JobResult run_luby_mis(const JobSpec& spec) {
  const graph::Graph g = decode_graph_instance(spec);
  const auto r = baselines::luby_mis_mr(g, spec.params);
  JobResult res = make_result(
      spec, r.independent_set,
      graph::is_maximal_independent_set(g, r.independent_set), r.outcome);
  res.stats = {count_stat("phases", r.phases)};
  return res;
}

JobResult run_clique(const JobSpec& spec) {
  const graph::Graph g = decode_graph_instance(spec);
  const auto r = core::hungry_clique(g, spec.params);
  JobResult res = make_result(spec, r.clique,
                              graph::is_maximal_clique(g, r.clique),
                              r.outcome);
  res.stats = {count_stat("central", r.central_adds)};
  return res;
}

JobResult run_colour_vertex(const JobSpec& spec) {
  const graph::Graph g = decode_graph_instance(spec);
  const auto r = core::mr_vertex_colouring(g, spec.params);
  JobResult res = make_result(
      spec, r.colour, graph::is_proper_vertex_colouring(g, r.colour),
      r.outcome);
  res.stats = {count_stat("colours", r.colours_used),
               count_stat("groups", r.groups),
               count_stat("split_failed", r.failed)};
  return res;
}

JobResult run_luby_colouring(const JobSpec& spec) {
  const graph::Graph g = decode_graph_instance(spec);
  const auto r = baselines::luby_colouring_mr(g, spec.params);
  JobResult res = make_result(
      spec, r.colour, graph::is_proper_vertex_colouring(g, r.colour),
      r.outcome);
  res.stats = {count_stat("colours", r.colours_used),
               count_stat("phases", r.phases)};
  return res;
}

JobResult run_colour_edge(const JobSpec& spec) {
  const graph::Graph g = decode_graph_instance(spec);
  const auto r = core::mr_edge_colouring(g, spec.params);
  JobResult res = make_result(
      spec, r.colour, graph::is_proper_edge_colouring(g, r.colour),
      r.outcome);
  res.stats = {count_stat("colours", r.colours_used),
               count_stat("groups", r.groups),
               count_stat("split_failed", r.failed)};
  return res;
}

struct RegistryEntry {
  AlgorithmInfo info;
  Runner run;
};

using enum JobSpec::InstanceKind;

/// The one algorithm vocabulary. usage() in the CLI, the worker's
/// dispatch, and the serve daemon's admission check all read this
/// table, so a name added here is everywhere at once — they can never
/// drift.
constexpr RegistryEntry kRegistry[] = {
    {{"matching", kGraph, true}, run_matching},
    {{"filtering-matching", kGraph, true}, run_filtering_matching},
    {{"filtering-weighted", kGraph, true}, run_filtering_weighted},
    {{"coreset-matching", kGraph, true}, run_coreset_matching},
    {{"b-matching", kGraph, true}, run_b_matching},
    {{"vertex-cover", kGraph, false}, run_vertex_cover},
    {{"set-cover-f", kSetSystem, false}, run_set_cover_f},
    {{"set-cover-greedy", kSetSystem, false}, run_set_cover_greedy},
    {{"mis", kGraph, false}, run_mis},
    {{"mis-simple", kGraph, false}, run_mis},
    {{"luby-mis", kGraph, false}, run_luby_mis},
    {{"clique", kGraph, false}, run_clique},
    {{"colour-vertex", kGraph, false}, run_colour_vertex},
    {{"luby-colouring", kGraph, false}, run_luby_colouring},
    {{"colour-edge", kGraph, false}, run_colour_edge},
};

}  // namespace

void add_driver_extras(JobSpec& spec, const DriverKnobs& knobs,
                       std::uint64_t num_vertices) {
  const std::string& a = spec.algorithm;
  if (a == "b-matching") {
    spec.extras["b"] = {knobs.b};
    spec.extras["eps"] = {core::pack_double(knobs.eps)};
  } else if (a == "vertex-cover") {
    Rng rng(spec.params.seed ^ 0xC0FFEEull);
    set_vertex_weights(spec, graph::random_vertex_weights(
                                 num_vertices, knobs.vertex_weights, rng));
  } else if (a == "set-cover-greedy") {
    spec.extras["eps"] = {core::pack_double(knobs.eps)};
  }
}

void set_vertex_weights(JobSpec& spec, const std::vector<double>& w) {
  auto& packed = spec.extras["w"];
  packed.clear();
  packed.reserve(w.size());
  for (const double v : w) packed.push_back(core::pack_double(v));
}

const std::vector<AlgorithmInfo>& known_algorithms() {
  static const std::vector<AlgorithmInfo> algorithms = [] {
    std::vector<AlgorithmInfo> v;
    v.reserve(std::size(kRegistry));
    for (const RegistryEntry& e : kRegistry) v.push_back(e.info);
    return v;
  }();
  return algorithms;
}

const AlgorithmInfo* find_algorithm(std::string_view name) {
  for (const AlgorithmInfo& a : known_algorithms()) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

bool known_algorithm(std::string_view name) {
  return find_algorithm(name) != nullptr;
}

JobResult run_job(const JobSpec& spec) {
  for (const RegistryEntry& e : kRegistry) {
    if (e.info.name == spec.algorithm) return e.run(spec);
  }
  bad_job("unknown algorithm \"" + spec.algorithm + "\"");
}

JobResult run_job_spec(std::span<const std::byte> bytes) {
  return run_job(decode_job_spec(bytes));
}

// ------------------------------------------------------ serving loop --

namespace {

void log_line(const WorkerOptions& opts, const std::string& line) {
  if (opts.log != nullptr) *opts.log << "worker: " << line << "\n"
                                     << std::flush;
}

/// One accepted connection: handshake, bootstrap, driver replay. Throws
/// on transport failure (the caller drops the connection and keeps
/// serving).
void serve_connection(exec::TcpChannel& ch,
                      std::set<std::pair<std::uint64_t, std::uint32_t>>& served,
                      const WorkerOptions& opts) {
  // Duplicate policy: a (job, shard) pair registers at handshake time
  // and stays registered. A second hello with the same pair — a
  // duplicate registration or a reconnect after a drop — is refused:
  // this worker cannot restore shard state lost with the old
  // connection, and silently serving a fresh replay could diverge.
  const exec::HandshakeHello hello = exec::handshake_accept(
      ch, [&](const exec::HandshakeHello& h) {
        const auto key = std::make_pair(h.nonce, h.shard);
        if (!served.insert(key).second) {
          return exec::HandshakeStatus::kDuplicateShard;
        }
        return exec::HandshakeStatus::kOk;
      });

  const exec::Frame setup =
      exec::expect_frame(ch, exec::FrameKind::kJobSetup, hello.shard, 0);
  exec::WorkerSession session;
  session.channel = &ch;
  session.shard = hello.shard;
  session.bootstrap = exec::decode_bootstrap(setup.payload);
  if (session.bootstrap.nonce != hello.nonce) {
    exec::send_bootstrap_ack(ch, hello.shard, false,
                             "bootstrap nonce does not match the handshake");
    return;
  }
  if ((session.bootstrap.flags & exec::kBootstrapCarriesSpec) == 0) {
    exec::send_bootstrap_ack(
        ch, hello.shard, false,
        "bootstrap carries no job spec — a TCP worker holds no "
        "coordinator state to validate against");
    return;
  }

  log_line(opts, "job " + hex64(hello.nonce) + " shard " +
                     std::to_string(hello.shard) + ": replaying " +
                     std::to_string(session.bootstrap.job_spec.size()) +
                     " spec bytes");
  exec::set_active_worker_session(&session);
  try {
    // The driver never returns: its executor serves the shard and
    // throws JobServed at teardown.
    (void)run_job_spec(session.bootstrap.job_spec);
    exec::set_active_worker_session(nullptr);
    if (!session.acked) {
      exec::send_bootstrap_ack(ch, hello.shard, false,
                               "driver returned without starting a job");
    }
    log_line(opts, "job " + hex64(hello.nonce) +
                       ": driver replay started no job");
  } catch (const exec::JobServed&) {
    exec::set_active_worker_session(nullptr);
    log_line(opts, "job " + hex64(hello.nonce) + " shard " +
                       std::to_string(hello.shard) + ": served");
  } catch (const std::exception& e) {
    exec::set_active_worker_session(nullptr);
    // A refusal discovered before the ack (bad spec, bootstrap/plane
    // mismatch) goes back typed; after the ack the coordinator learns
    // from the dropped connection.
    if (!session.acked) {
      try {
        exec::send_bootstrap_ack(ch, hello.shard, false, e.what());
      } catch (...) {
      }
    }
    log_line(opts, std::string("job failed: ") + e.what());
  } catch (...) {
    exec::set_active_worker_session(nullptr);
    throw;
  }
}

}  // namespace

void worker_serve(exec::TcpListener& listener, const WorkerOptions& opts) {
  std::set<std::pair<std::uint64_t, std::uint32_t>> served;
  for (std::uint64_t jobs = 0;
       opts.max_jobs == 0 || jobs < opts.max_jobs; ++jobs) {
    exec::TcpChannel ch = listener.accept_channel();
    try {
      serve_connection(ch, served, opts);
    } catch (const std::exception& e) {
      // Transport failures on one connection must not kill the worker.
      log_line(opts, std::string("connection dropped: ") + e.what());
    }
  }
}

// -------------------------------------------------- loopback harness --

ScopedTcpLoopback::ScopedTcpLoopback(unsigned workers) {
  // Bind every listener before forking so endpoints() is complete and
  // no connect can race a not-yet-listening worker.
  std::vector<exec::TcpListener> listeners;
  listeners.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    listeners.emplace_back("127.0.0.1", 0);
    endpoints_.push_back(exec::Endpoint{"127.0.0.1", listeners[i].port()});
  }
  for (unsigned i = 0; i < workers; ++i) {
    std::fflush(nullptr);
    MRLR_DEBUG_REQUIRE(single_threaded(),
                       "loopback: fork from a multithreaded process");
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw exec::TransportError(exec::TransportError::Kind::kIo,
                                 "loopback: fork failed");
    }
    if (pid == 0) {
      // Worker process: serve this listener forever; a dead coordinator
      // is an EPIPE on write, not a SIGPIPE kill.
      ::signal(SIGPIPE, SIG_IGN);
      for (unsigned j = 0; j < workers; ++j) {
        if (j != i) listeners[j].close_now();
      }
      try {
        worker_serve(listeners[i], WorkerOptions{});
      } catch (...) {
      }
      ::_exit(0);
    }
    pids_.push_back(pid);
  }
  // Coordinator side: the children own the listening sockets now.
  for (exec::TcpListener& l : listeners) l.close_now();
}

ScopedTcpLoopback::~ScopedTcpLoopback() {
  for (const pid_t pid : pids_) ::kill(pid, SIGKILL);
  for (const pid_t pid : pids_) {
    int st = 0;
    ::waitpid(pid, &st, 0);
  }
}

}  // namespace mrlr::jobs
