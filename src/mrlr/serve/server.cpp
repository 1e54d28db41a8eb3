#include "mrlr/serve/server.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/ioctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "mrlr/exec/shard_channel.hpp"
#include "mrlr/jobs/worker.hpp"
#include "mrlr/obs/telemetry.hpp"
#include "mrlr/serve/admission.hpp"
#include "mrlr/serve/protocol.hpp"
#include "mrlr/util/require.hpp"
#include "mrlr/util/threads.hpp"

namespace mrlr::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t)
          .count());
}

/// Nanoseconds since `start`, also recorded as a `phase` span ending now
/// (the span is a no-op with telemetry off).
std::uint64_t span_since(obs::Phase phase, Clock::time_point start) {
  const std::uint64_t ns = ns_since(start);
  obs::Telemetry& t = obs::Telemetry::instance();
  const std::uint64_t end = t.now_ns();
  t.record_span(phase, end - std::min(end, ns), end);
  return ns;
}

/// The job process: runs the spec, writes its ResultReply frame, exits.
[[noreturn]] void job_child_main(exec::FdChannel& ch, std::uint64_t job_id,
                                 const jobs::JobSpec& spec) {
  ResultReply reply;  // the daemon stamps job id and timings
  try {
    reply.result = jobs::encode_job_result(jobs::run_job(spec));
    reply.ok = true;
  } catch (const std::exception& e) {
    reply.error = e.what();
  }
  try {
    exec::write_frame(ch, exec::FrameKind::kJobResult, 0, job_id,
                      encode_result_reply(reply));
  } catch (...) {
    ::_exit(3);
  }
  ::_exit(0);
}

/// An admitted job, queued or running.
struct Job {
  std::uint64_t id = 0;
  int client = -1;  ///< its connection's descriptor
  jobs::JobSpec spec;
  std::uint64_t words = 0;  ///< reserved projected words
  std::uint64_t reply_sequence = 0;
  Clock::time_point admitted;
};

struct RunningJob {
  Job job;
  ::pid_t pid = -1;
  exec::FdChannel result;
  Clock::time_point started;
  std::uint64_t queue_wait_ns = 0;
};

struct Connection {
  exec::TcpChannel ch;
  bool greeted = false;  ///< handshake done
  bool busy = false;     ///< has a job queued or running
};

}  // namespace

struct ServeDaemon::Impl {
  Impl(const std::string& host, std::uint16_t port, ServeOptions opts)
      : options(std::move(opts)), listener(host, port) {}

  ServeOptions options;
  exec::TcpListener listener;  ///< closed on shutdown / max_connections
  Clock::time_point started = Clock::now();
  std::map<int, Connection> conns;    ///< by client descriptor
  std::deque<Job> queue;              ///< admitted, FIFO
  std::map<int, RunningJob> running;  ///< by result descriptor
  std::vector<::pid_t> exiting;       ///< reported, not yet reaped
  std::uint64_t accepted_conns = 0;
  bool shutting_down = false;
  std::uint64_t next_job_id = 0;
  std::uint64_t words_in_use = 0;
  StatsReply counters;  ///< the jobs_* totals; the rest is filled live

  void log(const std::string& line) {
    if (options.log) options.log(line);
  }

  std::uint64_t uptime_ms() const { return ns_since(started) / 1000000; }

  StatsReply stats() const {
    StatsReply s = counters;
    s.jobs_running = running.size();
    s.jobs_queued = queue.size();
    s.words_budget = options.words_budget;
    s.words_in_use = words_in_use;
    s.uptime_ms = uptime_ms();
    return s;
  }

  /// run() returns once it stopped listening and either every
  /// connection is gone or a drain has nothing left to run.
  bool done() const {
    return listener.fd() < 0 &&
           (conns.empty() ||
            (shutting_down && queue.empty() && running.empty()));
  }

  // ------------------------------------------------------- admission --

  /// Decides accept-or-reject and reserves the words on accept. Fills
  /// the reply's space fields either way.
  AdmissionReply admit(const jobs::JobSpec& spec) {
    AdmissionReply reply;
    if (!jobs::known_algorithm(spec.algorithm)) {
      reply.reason = RejectReason::kUnknownAlgorithm;
      reply.message = "unknown algorithm '" + spec.algorithm + "'";
      return reply;
    }
    std::uint64_t projected = 0;
    try {
      projected = projected_machine_words(spec);
    } catch (const exec::TransportError& e) {
      reply.reason = RejectReason::kMalformedSpec;
      reply.message = e.what();
      return reply;
    }
    reply.projected_words = projected;
    reply.budget_words = options.words_budget;
    reply.words_in_use = words_in_use;
    if (shutting_down) {
      reply.reason = RejectReason::kShuttingDown;
      reply.message = "daemon is shutting down";
      return reply;
    }
    if (options.words_budget > 0 && projected > options.words_budget) {
      reply.reason = RejectReason::kNeverFits;
      reply.message = "projected " + std::to_string(projected) +
                      " words/machine exceeds the whole budget of " +
                      std::to_string(options.words_budget);
      return reply;
    }
    if (options.words_budget > 0 &&
        projected > options.words_budget - words_in_use) {
      reply.reason = RejectReason::kOverBudget;
      reply.message = "projected " + std::to_string(projected) +
                      " words/machine does not fit beside " +
                      std::to_string(words_in_use) + " already admitted (" +
                      std::to_string(options.words_budget) + " budget)";
      return reply;
    }
    words_in_use += projected;
    reply.accepted = true;
    reply.job_id = ++next_job_id;
    reply.words_in_use = words_in_use;
    return reply;
  }

  /// One kJobSubmit: typed reject, or admission into the queue.
  void submit(int fd, Connection& c, const exec::Frame& frame) {
    ++counters.jobs_submitted;
    jobs::JobSpec spec;
    AdmissionReply admission;
    try {
      spec = jobs::decode_job_spec(frame.payload);
      admission = admit(spec);
    } catch (const exec::TransportError& e) {
      admission.reason = RejectReason::kMalformedSpec;
      admission.message = e.what();
    }
    if (admission.accepted) {
      ++counters.jobs_accepted;
      obs::count("serve.jobs_accepted");
      log("job " + std::to_string(admission.job_id) + " admitted (" +
          spec.algorithm + ", " +
          std::to_string(admission.projected_words) + " words projected)");
      queue.push_back(Job{admission.job_id, fd, std::move(spec),
                          admission.projected_words, frame.sequence,
                          Clock::now()});
      c.busy = true;
    } else {
      ++counters.jobs_rejected;
      obs::count("serve.jobs_rejected");
      log("submit rejected (" +
          std::string(reject_reason_name(admission.reason)) +
          "): " + admission.message);
    }
    exec::write_frame(c.ch, exec::FrameKind::kJobAdmission, 0,
                      frame.sequence, encode_admission_reply(admission));
  }

  // ------------------------------------------------------------ jobs --

  /// Forks queued jobs into free executor slots, oldest first.
  void start_queued() {
    while (!queue.empty() && running.size() < options.max_running) {
      Job job = std::move(queue.front());
      queue.pop_front();
      const std::uint64_t queue_wait_ns =
          span_since(obs::Phase::kQueueWait, job.admitted);
      auto [parent_ch, child_ch] = exec::make_socketpair_channel();
      MRLR_DEBUG_REQUIRE(single_threaded(),
                         "serve: job fork from a multithreaded daemon");
      const ::pid_t pid = ::fork();
      if (pid == 0) {
        // Job process: own process group, so a cancel kills any helpers
        // the backend forks too. It drops every daemon descriptor: a
        // surviving copy of a client socket would keep that socket open
        // and hide the client's hang-up from the daemon.
        ::setpgid(0, 0);
        listener.close_now();
        conns.clear();
        running.clear();
        parent_ch.close_now();
        job_child_main(child_ch, job.id, job.spec);
      }
      if (pid < 0) {
        ResultReply reply;
        reply.error = std::string("fork failed: ") + std::strerror(errno);
        finish(job, reply, queue_wait_ns, 0);
        continue;
      }
      ::setpgid(pid, pid);  // either side may win this race; both set it
      const int fd = parent_ch.fd();
      running.emplace(fd, RunningJob{std::move(job), pid, std::move(parent_ch),
                                     Clock::now(), queue_wait_ns});
    }
  }

  /// A running job's socketpair turned readable: its result frame, or
  /// EOF because it died first.
  void collect(int fd) {
    auto it = running.find(fd);
    RunningJob r = std::move(it->second);
    running.erase(it);
    ResultReply reply;
    try {
      reply = decode_result_reply(
          exec::expect_frame(r.result, exec::FrameKind::kJobResult, 0,
                             r.job.id)
              .payload);
    } catch (const exec::TransportError&) {
      reply.error = "job process died before reporting a result";
    }
    exiting.push_back(r.pid);
    finish(r.job, reply, r.queue_wait_ns,
           span_since(obs::Phase::kJobRun, r.started));
  }

  /// Counts, releases and relays one job's result; its connection goes
  /// back to taking requests.
  void finish(const Job& job, ResultReply& reply, std::uint64_t queue_wait_ns,
              std::uint64_t run_ns) {
    words_in_use -= job.words;
    reply.job_id = job.id;
    reply.queue_wait_ns = queue_wait_ns;
    reply.run_ns = run_ns;
    ++(reply.ok ? counters.jobs_completed : counters.jobs_failed);
    obs::count(reply.ok ? "serve.jobs_completed" : "serve.jobs_failed");
    log("job " + std::to_string(job.id) +
        (reply.ok ? " completed" : " failed: " + reply.error));

    Connection& c = conns.at(job.client);
    c.busy = false;
    try {
      exec::write_frame(c.ch, exec::FrameKind::kJobResult, 0,
                        job.reply_sequence, encode_result_reply(reply));
    } catch (const exec::TransportError&) {
      conns.erase(job.client);  // client vanished before its result
    }
  }

  /// Closes a connection, cancelling its queued or running job first.
  void drop(int client) {
    const auto cancelled = [&](const Job& job, const char* why) {
      words_in_use -= job.words;
      ++counters.jobs_cancelled;
      obs::count("serve.jobs_cancelled");
      log("job " + std::to_string(job.id) + why);
    };
    const auto queued = std::find_if(
        queue.begin(), queue.end(),
        [&](const Job& j) { return j.client == client; });
    if (queued != queue.end()) {
      span_since(obs::Phase::kQueueWait, queued->admitted);
      cancelled(*queued, " cancelled in queue: client disconnected");
      queue.erase(queued);
    }
    const auto run = std::find_if(
        running.begin(), running.end(),
        [&](const auto& r) { return r.second.job.client == client; });
    if (run != running.end()) {
      ::kill(-run->second.pid, SIGKILL);
      ::waitpid(run->second.pid, nullptr, 0);
      span_since(obs::Phase::kJobRun, run->second.started);
      cancelled(run->second.job, " cancelled: client disconnected");
      running.erase(run);
    }
    conns.erase(client);
  }

  // ----------------------------------------------------- connections --

  void accept_one() {
    exec::TcpChannel ch = listener.accept_channel();
    ch.set_read_timeout(std::chrono::seconds(5));
    const int fd = ch.fd();
    conns.emplace(fd, Connection{std::move(ch), false, false});
    if (options.max_connections > 0 &&
        ++accepted_conns >= options.max_connections) {
      listener.close_now();
    }
  }

  /// One request on an idle connection.
  void serve_request(int fd, Connection& c, const exec::Frame& frame) {
    switch (frame.kind) {
      case exec::FrameKind::kJobSubmit:
        submit(fd, c, frame);
        return;
      case exec::FrameKind::kServeStats:
        exec::write_frame(c.ch, exec::FrameKind::kServeStats, 0,
                          frame.sequence, encode_stats_reply(stats()));
        return;
      case exec::FrameKind::kServeHealth: {
        HealthReply h;
        h.shutting_down = shutting_down;
        h.jobs_running = running.size();
        h.uptime_ms = uptime_ms();
        exec::write_frame(c.ch, exec::FrameKind::kServeHealth, 0,
                          frame.sequence, encode_health_reply(h));
        return;
      }
      case exec::FrameKind::kServeShutdown:
        exec::write_frame(c.ch, exec::FrameKind::kServeShutdown, 0,
                          frame.sequence, {});
        log("shutdown requested by client");
        shutting_down = true;
        listener.close_now();
        return;
      default:
        throw exec::TransportError(
            exec::TransportError::Kind::kUnexpected,
            "serve: frame kind " +
                std::to_string(static_cast<unsigned>(frame.kind)) +
                " is not a serve request");
    }
  }

  void on_client(int fd, short revents) {
    auto it = conns.find(fd);
    if (it == conns.end()) return;  // dropped earlier in this iteration
    Connection& c = it->second;
    int unread = 0;
    if ((revents & (POLLRDHUP | POLLHUP | POLLERR)) != 0 &&
        (c.busy || ::ioctl(fd, FIONREAD, &unread) != 0 || unread == 0)) {
      drop(fd);  // peer closed
      return;
    }
    if (c.busy) return;
    try {
      if (c.greeted) {
        serve_request(fd, c, exec::read_frame(c.ch));
      } else {
        exec::handshake_accept(c.ch, [](const exec::HandshakeHello&) {
          return exec::HandshakeStatus::kOk;
        });
        c.greeted = true;
      }
    } catch (const std::exception& e) {
      // A misbehaving client costs its own connection, never the
      // daemon.
      log(std::string("connection dropped: ") + e.what());
      drop(fd);
    }
  }

  void poll_once() {
    std::vector<pollfd> fds;
    for (const auto& [fd, r] : running) fds.push_back({fd, POLLIN, 0});
    for (const auto& [fd, c] : conns) {
      // A busy connection is watched for hang-up only: bytes it
      // pipelines wait in the socket until its job is done.
      fds.push_back({fd, short(c.busy ? POLLRDHUP : POLLIN | POLLRDHUP), 0});
    }
    if (listener.fd() >= 0) fds.push_back({listener.fd(), POLLIN, 0});
    const std::size_t jobs_end = running.size();
    const std::size_t conns_end = jobs_end + conns.size();

    if (::poll(fds.data(), fds.size(), -1) < 0 && errno != EINTR) {
      throw exec::TransportError(exec::TransportError::Kind::kIo,
                                 std::string("serve: poll failed: ") +
                                     std::strerror(errno));
    }
    // No handler opens a descriptor before the listener's turn, so one
    // freed by an earlier handler cannot alias a later entry.
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (i < jobs_end) {
        if (running.count(fds[i].fd) != 0) collect(fds[i].fd);
      } else if (i < conns_end) {
        on_client(fds[i].fd, fds[i].revents);
      } else if (listener.fd() >= 0) {
        accept_one();
      }
    }
  }
};

ServeDaemon::ServeDaemon(const std::string& host, std::uint16_t port,
                         ServeOptions options)
    : impl_(std::make_unique<Impl>(host, port, std::move(options))) {}

ServeDaemon::~ServeDaemon() = default;

std::uint16_t ServeDaemon::port() const { return impl_->listener.port(); }

void ServeDaemon::run() {
  // A job process that has reported is reaped without blocking the
  // loop on its exit; the last ones are waited for on the way out.
  const auto reap = [&](int flags) {
    std::erase_if(impl_->exiting, [&](::pid_t pid) {
      return ::waitpid(pid, nullptr, flags) != 0;
    });
  };
  for (;;) {
    reap(WNOHANG);
    impl_->start_queued();
    if (impl_->done()) break;
    impl_->poll_once();
  }
  reap(0);
  impl_->conns.clear();
}

}  // namespace mrlr::serve
