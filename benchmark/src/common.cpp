#include "common.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "mrlr/util/mix64.hpp"
#include "mrlr/util/stats.hpp"

namespace mrlr::benchmark {

namespace {

std::string_view unit_of(std::string_view name) {
  for (const MetricDef& d : kEndToEnd) {
    if (d.name == name) return d.unit;
  }
  for (const MetricDef& d : kPerLayer) {
    if (d.name == name) return d.unit;
  }
  throw std::logic_error("unknown metric " + std::string(name));
}

std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void write_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Live children of this process, from /proc (orphans reparented to us).
std::vector<pid_t> children_of_self() {
  std::vector<pid_t> out;
  const pid_t self = ::getpid();
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.empty() || name.find_first_not_of("0123456789") !=
                            std::string::npos) {
      continue;
    }
    std::ifstream in(entry.path() / "stat");
    std::string stat;
    std::getline(in, stat);
    // "pid (comm) state ppid ..." — comm may hold spaces and parens.
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(stat.substr(close + 1));
    std::string state;
    long ppid = 0;
    if (rest >> state >> ppid && ppid == self) {
      out.push_back(static_cast<pid_t>(std::stol(name)));
    }
  }
  return out;
}

/// Reaps every remaining descendant: zombies first, then live orphans
/// (SIGKILL, then wait). Called after each phase child is reaped, so
/// any process still parented here is one the phase left behind.
void reap_orphans() {
  for (;;) {
    int status = 0;
    while (::waitpid(-1, &status, WNOHANG) > 0) {
    }
    const std::vector<pid_t> live = children_of_self();
    if (live.empty()) return;
    for (const pid_t p : live) ::kill(p, SIGKILL);
    for (const pid_t p : live) ::waitpid(p, &status, 0);
  }
}

}  // namespace

// ------------------------------------------------------------ Report --

void Report::metric(std::string_view name, double value) {
  metrics.push_back(
      {std::string(name), value, std::string(unit_of(name))});
}

void Report::add_detail(std::string name, double value, std::string unit) {
  detail.push_back({std::move(name), value, std::move(unit)});
}

void Report::set_config(std::string key, std::string value) {
  config.emplace_back(std::move(key), std::move(value));
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) fail(what);
}

void Report::fail(const std::string& what) {
  ++failed;
  // Keep the first few messages; the count carries the rest.
  if (failures.size() < 20) failures.push_back(one_line(what));
}

std::string Report::serialize() const {
  std::string s;
  for (const Metric& m : metrics) {
    s += "M " + m.name + " " + fmt(m.value) + " " + m.unit + "\n";
  }
  for (const Metric& m : detail) {
    s += "D " + m.name + " " + fmt(m.value) + " " + m.unit + "\n";
  }
  for (const auto& [k, v] : config) s += "C " + k + " " + one_line(v) + "\n";
  s += "A " + std::to_string(attempted) + "\n";
  s += "F " + std::to_string(failed) + "\n";
  for (const std::string& f : failures) s += "E " + f + "\n";
  return s;
}

Report Report::parse(const std::string& text) {
  Report r;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() < 2) continue;
    const char kind = line[0];
    const std::string rest = line.substr(2);
    std::istringstream fields(rest);
    if (kind == 'M' || kind == 'D') {
      Metric m;
      std::string value;
      fields >> m.name >> value >> m.unit;
      m.value = std::strtod(value.c_str(), nullptr);
      (kind == 'M' ? r.metrics : r.detail).push_back(std::move(m));
    } else if (kind == 'C') {
      const std::size_t sp = rest.find(' ');
      r.config.emplace_back(rest.substr(0, sp),
                            sp == std::string::npos ? "" : rest.substr(sp + 1));
    } else if (kind == 'A') {
      fields >> r.attempted;
    } else if (kind == 'F') {
      fields >> r.failed;
    } else if (kind == 'E') {
      r.failures.push_back(rest);
    }
  }
  return r;
}

// ----------------------------------------------------------- Samples --

double Samples::median(const std::string& name) const {
  return quantile(name, 0.5);
}

double Samples::quantile(const std::string& name, double q) const {
  const auto it = data_.find(name);
  if (it == data_.end() || it->second.empty()) return 0.0;
  return mrlr::percentile(it->second, q);
}

// --------------------------------------------------------------- Ctx --

double Ctx::ref(const std::string& name) const {
  const auto it = refs.find(name);
  if (it == refs.end()) {
    throw std::runtime_error("generator did not report " + name);
  }
  return it->second;
}

std::string Ctx::path(const std::string& file) const {
  return (std::filesystem::path(work_dir) / file).string();
}

std::uint64_t Ctx::instance_seed(std::uint64_t tag) const {
  return mix64(mix64(seed) ^ tag);
}

// ------------------------------------------------------------ clocks --

double rusage_cpu_s(const struct rusage& ru) {
  const auto tv = [](const struct timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double children_cpu_s() {
  struct rusage ru {};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  return rusage_cpu_s(ru);
}

double process_tree_cpu_s() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return rusage_cpu_s(ru) + children_cpu_s();
}

// --------------------------------------------------------- processes --

void become_subreaper() { ::prctl(PR_SET_CHILD_SUBREAPER, 1); }

ChildOutcome run_child(const std::function<void(Report&)>& body,
                       Clock::time_point deadline) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  std::fflush(nullptr);  // no buffered stdio duplicated into the child
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::setpgid(0, 0);
    ::close(fds[0]);
    Report r;
    int code = 0;
    try {
      body(r);
    } catch (const std::exception& e) {
      r.fail(std::string("exception: ") + e.what());
      code = 1;
    }
    write_all(fds[1], r.serialize());
    std::fflush(nullptr);
    ::_exit(code);
  }
  ::setpgid(pid, pid);  // either side may win this race; both set it
  ::close(fds[1]);

  // Read the report until the child exits. EOF alone is not enough: a
  // grandchild the child left behind (a serve daemon) may still hold the
  // write end, so after the exit drain what is buffered and stop.
  ChildOutcome out;
  std::string text;
  // One read; returns its byte count (0 at EOF, < 0 when none is ready).
  const auto read_some = [&] {
    char buf[4096];
    ssize_t n = 0;
    do {
      n = ::read(fds[0], buf, sizeof(buf));
    } while (n < 0 && errno == EINTR);
    if (n > 0) text.append(buf, static_cast<std::size_t>(n));
    return n;
  };
  int status = 0;
  bool exited = false, eof = false;
  while (!exited) {
    if (Clock::now() >= deadline) {
      out.timed_out = true;
      break;
    }
    struct pollfd p {fds[0], POLLIN, 0};
    if (eof) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    } else if (::poll(&p, 1, 20) > 0) {
      eof = read_some() == 0;
    }
    exited = ::wait4(pid, &status, WNOHANG, &out.usage) == pid;
  }
  if (exited) {
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    while (read_some() > 0) {
    }
  }
  ::close(fds[0]);

  if (out.timed_out) {
    ::kill(-pid, SIGKILL);
    ::wait4(pid, &status, 0, &out.usage);
  }
  reap_orphans();

  out.report = Report::parse(text);
  out.clean_exit =
      !out.timed_out && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (out.timed_out) {
    out.report.fail("timeout: watchdog killed the process group");
  } else if (!out.clean_exit && out.report.failed == 0) {
    out.report.fail(WIFSIGNALED(status)
                        ? "child killed by signal " +
                              std::to_string(WTERMSIG(status))
                        : "child exited with status " +
                              std::to_string(WEXITSTATUS(status)));
  }
  return out;
}

}  // namespace mrlr::benchmark
