// serve-mixed: a closed loop of kClients connections, each submitting
// its next job only after the previous result arrived (callers of
// `mrlr_cli submit` block for the reply), against a ServeDaemon with
// kMaxRunning executor slots. The daemon is forked while this process is
// still single-threaded, and telemetry stays off while it runs: a fork
// under Telemetry's mutex would hang the job child.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "mrlr/jobs/worker.hpp"
#include "mrlr/serve/client.hpp"
#include "mrlr/serve/server.hpp"
#include "mrlr/util/stats.hpp"
#include "workloads.hpp"

namespace mrlr::benchmark {

namespace {

constexpr int kSegments = 5;
constexpr std::uint64_t kClients = 4;
constexpr std::uint64_t kMaxRunning = 2;

struct Daemon {
  pid_t pid = -1;
  exec::Endpoint ep;
};

/// Forks a daemon on an ephemeral loopback port and returns once it has
/// answered a health() request.
Daemon start_daemon() {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      serve::ServeOptions opts;
      opts.max_running = kMaxRunning;
      serve::ServeDaemon daemon("127.0.0.1", 0, opts);
      const std::uint16_t port = daemon.port();
      if (::write(fds[1], &port, sizeof(port)) != sizeof(port)) ::_exit(1);
      ::close(fds[1]);
      daemon.run();
    } catch (...) {
      code = 1;
    }
    ::_exit(code);
  }
  ::close(fds[1]);
  std::uint16_t port = 0;
  ssize_t n = 0;
  do {
    n = ::read(fds[0], &port, sizeof(port));
  } while (n < 0 && errno == EINTR);
  ::close(fds[0]);
  Daemon d{pid, {"127.0.0.1", port}};
  if (n != sizeof(port)) {
    ::waitpid(pid, nullptr, 0);
    throw std::runtime_error("serve daemon did not start");
  }
  serve::ServeClient(d.ep).health();
  return d;
}

/// Shuts the daemon down, reaps it, and returns the CPU seconds of its
/// process tree (the daemon plus the job processes it reaped).
double stop_daemon(Daemon& d, serve::StatsReply* stats = nullptr) {
  {
    serve::ServeClient c(d.ep);
    if (stats != nullptr) *stats = c.stats();
    c.shutdown();
  }
  int status = 0;
  struct rusage ru {};
  ::wait4(d.pid, &status, 0, &ru);
  d.pid = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("serve daemon exited abnormally");
  }
  return rusage_cpu_s(ru);
}

/// One served job that matched its reference.
struct Served {
  double admission_s = 0.0;  ///< submit() until the admission reply
  double latency_s = 0.0;    ///< submit() until the result frame
  serve::ResultReply reply;
};

/// Submits `spec`, waits for its result, and checks it against `ref`;
/// a rejection or a wrong result is a failed check and gives nullopt.
std::optional<Served> serve_checked(serve::ServeClient& client,
                                    const jobs::JobSpec& spec,
                                    const Reference& ref, Report& r) {
  const Clock::time_point t0 = Clock::now();
  const serve::AdmissionReply adm = client.submit(spec);
  Served out;
  out.admission_s = seconds_since(t0);
  if (!adm.accepted) {
    r.check(false, spec.algorithm + " rejected: " + adm.message);
    return std::nullopt;
  }
  out.reply = client.wait_result();
  out.latency_s = seconds_since(t0);
  const bool ok =
      out.reply.ok && jobs::fingerprint(serve::ServeClient::decode_result(
                          out.reply)) == ref.fingerprint;
  r.check(ok, "served " + spec.algorithm +
                  " differs from standalone run_job" +
                  (out.reply.ok ? "" : ": " + out.reply.error));
  if (!ok) return std::nullopt;
  return out;
}

/// One client connection's view of the closed loop.
struct ClientLog {
  Report checks;
  std::vector<double> latency, admission, queue_wait, run;
};

void client_loop(const exec::Endpoint& ep,
                 const std::vector<LoadedJob>& loaded,
                 const std::vector<Reference>& refs,
                 std::atomic<std::uint64_t>& next, Clock::time_point until,
                 ClientLog& log) {
  try {
    serve::ServeClient client(ep);
    while (Clock::now() < until) {
      const std::size_t j = next.fetch_add(1) % loaded.size();
      const std::optional<Served> served =
          serve_checked(client, loaded[j].spec, refs[j], log.checks);
      if (!served) continue;
      log.latency.push_back(served->latency_s);
      log.admission.push_back(served->admission_s);
      log.queue_wait.push_back(double(served->reply.queue_wait_ns) / 1e9);
      log.run.push_back(double(served->reply.run_ns) / 1e9);
    }
  } catch (const std::exception& e) {
    log.checks.check(false, std::string("client connection: ") + e.what());
  }
}

double sum(const std::vector<double>& v) {
  double t = 0.0;
  for (const double x : v) t += x;
  return t;
}

}  // namespace

void run_serve(const Ctx& ctx, const std::vector<JobDef>& defs, Report& r) {
  Samples s;
  std::vector<LoadedJob> loaded;
  std::vector<Reference> refs;
  std::vector<ClientLog> logs(kClients);
  std::atomic<std::uint64_t> next{0};
  serve::StatsReply totals;
  double loop_s = 0.0, daemon_cpu_s = 0.0;
  // The loop runs in kSegments pieces, each against a daemon set up
  // afresh from the instance files: the host's speed drifts within
  // seconds, so the set-up passes are spread over the whole window.
  const double window = ctx.trace ? ctx.seconds / 3 : ctx.seconds;
  for (int segment = 0; segment < kSegments; ++segment) {
    loaded.clear();
    const Clock::time_point t0 = Clock::now();
    for (const JobDef& d : defs) loaded.push_back(load_job(ctx, d));
    Daemon daemon = start_daemon();
    s.add("setup_s", seconds_since(t0));
    std::map<std::string, double> sums;
    for (const LoadedJob& j : loaded) {
      sums["instance.load_s"] += j.load_s;
      sums["jobs.spec_encode_s"] += j.encode_s;
      sums["instance.bytes"] += double(j.file_bytes);
      sums["jobs.spec_bytes"] += double(j.spec_bytes);
    }
    for (const auto& [name, v] : sums) s.add(name, v / double(defs.size()));

    if (segment == 0) {
      for (std::size_t i = 0; i < defs.size(); ++i) {
        refs.push_back(make_reference(ctx, defs[i], i, loaded[i].spec, r));
      }
      serve::ServeClient c(daemon.ep);  // warm-up: every spec once
      for (std::size_t i = 0; i < loaded.size(); ++i) {
        serve_checked(c, loaded[i].spec, refs[i], r);
      }
    }
    const Clock::time_point l0 = Clock::now();
    const Clock::time_point until =
        l0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(window / kSegments));
    {
      std::vector<std::thread> clients;
      for (ClientLog& log : logs) {
        clients.emplace_back(client_loop, std::cref(daemon.ep),
                             std::cref(loaded), std::cref(refs),
                             std::ref(next), until, std::ref(log));
      }
      for (std::thread& t : clients) t.join();
    }
    loop_s += seconds_since(l0);
    serve::StatsReply st;
    daemon_cpu_s += stop_daemon(daemon, &st);
    totals.jobs_completed += st.jobs_completed;
    totals.jobs_failed += st.jobs_failed;
    totals.jobs_rejected += st.jobs_rejected;
  }
  r.set_config("jobs_in_mix", std::to_string(defs.size()));
  r.set_config("size", std::to_string(defs[0].size));
  r.set_config("backend", "serve (fork per job)");
  r.set_config("clients", std::to_string(kClients));
  r.set_config("max_running", std::to_string(kMaxRunning));
  r.set_config("daemons", std::to_string(kSegments));
  r.set_config("threads", "1");
  r.set_config("shards", "1");

  std::vector<double> latency, admission, queue_wait, run, protocol;
  for (const ClientLog& log : logs) {
    r.attempted += log.checks.attempted;
    r.failed += log.checks.failed;
    r.failures.insert(r.failures.end(), log.checks.failures.begin(),
                      log.checks.failures.end());
    latency.insert(latency.end(), log.latency.begin(), log.latency.end());
    admission.insert(admission.end(), log.admission.begin(),
                     log.admission.end());
    queue_wait.insert(queue_wait.end(), log.queue_wait.begin(),
                      log.queue_wait.end());
    run.insert(run.end(), log.run.begin(), log.run.end());
  }
  // The daemon's queue and run clocks both lie inside the client's
  // submit-to-result window; the rest is protocol: spec upload,
  // admission, result relay. (The client-side admission time is not
  // subtracted: it overlaps the start of the daemon's queue clock.)
  for (std::size_t i = 0; i < latency.size(); ++i) {
    protocol.push_back(latency[i] - queue_wait[i] - run[i]);
  }
  if (latency.empty()) throw std::runtime_error("no job completed");
  const auto ms = [](std::vector<double> v, double q) {
    return 1e3 * mrlr::percentile(std::move(v), q);
  };
  r.set_config("jobs", std::to_string(latency.size()));
  r.add_detail("serve.latency_ms_p50", ms(latency, 0.5), "ms");
  r.add_detail("serve.latency_ms_p99", ms(latency, 0.99), "ms");
  r.add_detail("serve.admission_ms_p50", ms(admission, 0.5), "ms");
  r.add_detail("serve.queue_wait_ms_p50", ms(queue_wait, 0.5), "ms");
  r.add_detail("serve.queue_wait_ms_p99", ms(queue_wait, 0.99), "ms");
  r.add_detail("serve.run_ms_p50", ms(run, 0.5), "ms");
  r.add_detail("serve.run_ms_p99", ms(run, 0.99), "ms");
  r.add_detail("serve.protocol_ms_p50", ms(protocol, 0.5), "ms");

  if (ctx.trace) {
    const double total = sum(latency);
    s.add("serve.admission_share", sum(admission) / total);
    s.add("serve.queue_wait_share", sum(queue_wait) / total);
    s.add("serve.run_share", sum(run) / total);
    s.add("serve.protocol_share", sum(protocol) / total);
    s.add("serve.latency_p99_over_p50",
          ms(latency, 0.99) / ms(latency, 0.5));
    s.add("serve.jobs_rejected", double(totals.jobs_rejected));
    s.add("serve.jobs_failed", double(totals.jobs_failed));
    // With every daemon gone and the client threads joined, the same
    // specs run decomposed in this process, where telemetry is safe.
    trace_layers(ctx, window, loaded, refs, s, r);
    emit_layer_metrics(s, r);
    return;
  }

  double rounds = 0.0, max_words = 0.0, ratio_sum = 0.0, ratios = 0.0;
  for (const Reference& ref : refs) {
    rounds += double(ref.result.outcome.rounds);
    max_words =
        std::max(max_words, double(ref.result.outcome.max_machine_words));
    if (ref.approx_ratio > 0.0) {
      ratio_sum += ref.approx_ratio;
      ratios += 1.0;
    }
  }
  const double jobs_run =
      double(totals.jobs_completed + totals.jobs_failed);
  r.metric("setup_s", s.median("setup_s"));
  r.metric("job_s_p50", mrlr::percentile(latency, 0.5));
  r.metric("jobs_per_s", double(latency.size()) / loop_s);
  r.metric("cpu_s_per_job", daemon_cpu_s / std::max(jobs_run, 1.0));
  r.metric("rounds", rounds / double(refs.size()));
  r.metric("max_machine_words", max_words);
  r.metric("approx_ratio", ratio_sum / std::max(ratios, 1.0));
}

}  // namespace mrlr::benchmark
