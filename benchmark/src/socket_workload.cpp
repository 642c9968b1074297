// tiny-rounds-socket: closed loop through the real CLI.
//
// Each pass starts `mcs_cli serve --listen` as a child process, waits for
// its "listening on" line (set-up time), connects two clients -- one
// binary, one JSONL, disjoint round ids -- and drives both from this one
// thread until the child drains and exits. The child's --metrics-out
// counters are the correctness oracle (rounds completed and exact total
// payment against the batch mechanism); its live summary line gives the
// submit->dequeue wait.
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "bench.hpp"
#include "common/error.hpp"
#include "io/json_parse.hpp"

extern char** environ;

namespace mcs_bench {

namespace serve = mcs::serve;

namespace {

/// A child process whose stdout is a pipe. The destructor kills and reaps
/// a child that is still running, so no path leaves a process behind.
class Child {
 public:
  explicit Child(const std::vector<std::string>& argv) {
    int fds[2];
    if (::pipe(fds) != 0) throw mcs::IoError("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<char*> args;
    for (const std::string& arg : argv) {
      args.push_back(const_cast<char*>(arg.c_str()));
    }
    args.push_back(nullptr);
    const int rc = posix_spawn(&pid_, argv[0].c_str(), &actions, nullptr,
                               args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    fd_ = fds[0];
    if (rc != 0) {
      ::close(fd_);
      pid_ = -1;
      throw mcs::IoError("cannot start " + argv[0] + ": " + std::strerror(rc));
    }
  }

  ~Child() {
    if (fd_ >= 0) ::close(fd_);
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Reads until `marker` has appeared in the output or EOF/timeout.
  bool read_until(std::string_view marker, int timeout_ms) {
    while (output_.find(marker) == std::string::npos) {
      if (!read_some(timeout_ms)) return false;
    }
    return true;
  }

  /// Reads to EOF (killing a child silent for timeout_ms), then reaps it.
  /// Returns its wait status.
  int finish(int timeout_ms, rusage& usage) {
    while (read_some(timeout_ms)) {
    }
    if (!eof_) ::kill(pid_, SIGKILL);
    int status = 0;
    if (::wait4(pid_, &status, 0, &usage) != pid_) {
      throw mcs::IoError("wait4 failed");
    }
    pid_ = -1;
    return status;
  }

  [[nodiscard]] const std::string& output() const { return output_; }

 private:
  bool read_some(int timeout_ms) {
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0 && errno == EINTR) return true;
    if (ready <= 0) return false;
    char buffer[4096];
    const ssize_t got = ::read(fd_, buffer, sizeof buffer);
    if (got < 0 && errno == EINTR) return true;
    eof_ = got == 0;
    if (got <= 0) return false;
    output_.append(buffer, static_cast<std::size_t>(got));
    return true;
  }

  pid_t pid_{-1};
  int fd_{-1};
  bool eof_{false};
  std::string output_;
};

constexpr int kTimeoutMs = 60'000;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Number after `key` in the child's console output (NaN when absent).
double number_after(const std::string& text, std::string_view key) {
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return kNaN;
  return std::strtod(text.c_str() + at + key.size(), nullptr);
}

/// "A/B" after `key`, as in the live line's "queue_wait p50/p99 12/80 us".
std::pair<double, double> pair_after(const std::string& text,
                                     std::string_view key) {
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return {kNaN, kNaN};
  char* end = nullptr;
  const double first = std::strtod(text.c_str() + at + key.size(), &end);
  return {first, *end == '/' ? std::strtod(end + 1, nullptr) : kNaN};
}

double counter(const mcs::io::JsonValue& report, std::string_view name) {
  const mcs::io::JsonValue* value = report.at("counters").find(name);
  return value == nullptr ? 0.0 : value->as_number();
}

}  // namespace

Result run_socket(const WorkloadSpec& spec, const Options& options) {
  if (options.cli.empty()) {
    throw mcs::InvalidArgumentError("tiny-rounds-socket needs --cli");
  }
  Result result;
  const std::vector<std::int64_t> rounds =
      round_ids(spec, spec.rounds_per_pass);
  const auto half = static_cast<std::ptrdiff_t>(rounds.size() / 2);
  const std::vector<std::int64_t> binary_rounds(rounds.begin(),
                                                rounds.begin() + half);
  const std::vector<std::int64_t> jsonl_rounds(rounds.begin() + half,
                                               rounds.end());
  const Stream binary = binary_stream(spec, options.seed, binary_rounds);
  const Stream jsonl = jsonl_stream(spec, options.seed, jsonl_rounds);
  const std::int64_t events = binary.events + jsonl.events;
  const std::int64_t expected_paid =
      batch_payments_micros(spec, options.seed, rounds);

  const std::string metrics_path =
      options.out_dir + "/" + spec.name + ".child-metrics.json";
  const std::string stats_path =
      options.out_dir + "/" + spec.name + ".child-stats.jsonl";
  const std::vector<std::string> argv = {
      options.cli, "serve",
      "--listen", "127.0.0.1:0",
      "--listen-conns", std::to_string(spec.connections),
      "--shards", std::to_string(spec.shards),
      "--batch", std::to_string(kBatch),
      "--metrics-out", metrics_path,
      "--stats-out", stats_path};

  std::vector<double> events_per_s;
  std::vector<double> wait_p50_ms;
  std::vector<double> wait_p99_ms;
  std::vector<double> setup_s;
  std::vector<double> rss_mb;
  std::vector<double> pass_s;
  std::vector<double> child_cpu_s;
  while (another_pass(pass_s, options.seconds)) {
    result.attempted += static_cast<std::int64_t>(rounds.size());
    const std::uint64_t spawned = now_ns();
    Child child(argv);
    constexpr std::string_view kListening = "listening on 127.0.0.1:";
    if (!child.read_until(kListening, kTimeoutMs) ||
        !child.read_until(", draining", kTimeoutMs)) {
      result.failed += static_cast<std::int64_t>(rounds.size());
      result.fail("server did not start: " + child.output());
      break;
    }
    setup_s.push_back(seconds_since(spawned));
    const int port = static_cast<int>(number_after(child.output(), kListening));

    const std::uint64_t start = now_ns();
    std::vector<serve::SocketClient> clients;
    clients.push_back(serve::SocketClient::connect("127.0.0.1", port));
    clients.push_back(serve::SocketClient::connect("127.0.0.1", port));
    send_interleaved(clients, {binary.bytes, jsonl.bytes});
    rusage usage{};
    const int status = child.finish(kTimeoutMs, usage);
    const double wall = seconds_since(start);

    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      result.failed += static_cast<std::int64_t>(rounds.size());
      result.fail("server exited abnormally: " + child.output());
      break;
    }
    pass_s.push_back(wall);
    events_per_s.push_back(static_cast<double>(events) / wall);
    const std::string& out = child.output();
    const auto [p50_us, p99_us] = pair_after(out, "live: queue_wait p50/p99 ");
    wait_p50_ms.push_back(p50_us / 1e3);
    wait_p99_ms.push_back(p99_us / 1e3);
    rss_mb.push_back(static_cast<double>(usage.ru_maxrss) / 1024.0);
    child_cpu_s.push_back(
        static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
        static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
            1e6);

    // Correctness, outside the timed window.
    std::ifstream metrics_file(metrics_path);
    std::stringstream metrics_text;
    metrics_text << metrics_file.rdbuf();
    const mcs::io::JsonValue report = mcs::io::parse_json(metrics_text.str());
    const auto completed =
        static_cast<std::int64_t>(counter(report, "serve.rounds_completed"));
    const auto paid =
        static_cast<std::int64_t>(counter(report, "serve.payments_micros"));
    const auto offered = static_cast<std::int64_t>(rounds.size());
    if (completed != offered || paid != expected_paid) {
      result.failed += std::max<std::int64_t>(offered - completed, 1);
      result.notes.push_back(
          "child completed " + std::to_string(completed) + "/" +
          std::to_string(offered) + " rounds, paid " + std::to_string(paid) +
          " micros (batch reference " + std::to_string(expected_paid) + ")");
    }
    if (out.find("aborted on malformed") != std::string::npos) {
      result.fail("child reported decode errors: " + out);
    }
  }

  result.metrics.push_back(
      summarize("events_per_s", "events/s", std::move(events_per_s)));
  result.metrics.push_back(summarize("setup_s", "s", std::move(setup_s)));
  result.metrics.push_back(summarize("peak_rss_mb", "MB", std::move(rss_mb)));
  result.diagnostics.push_back(
      summarize("event_wait_p50_ms", "ms", std::move(wait_p50_ms)));
  result.diagnostics.push_back(
      summarize("event_wait_p99_ms", "ms", std::move(wait_p99_ms)));
  result.diagnostics.push_back(summarize("pass_s", "s", std::move(pass_s)));
  result.diagnostics.push_back(
      summarize("child_cpu_s", "s", std::move(child_cpu_s)));
  result.diagnostics.push_back(
      summarize("events_per_pass", "events", {static_cast<double>(events)}));
  result.diagnostics.push_back(summarize(
      "binary_bytes", "bytes", {static_cast<double>(binary.bytes.size())}));
  result.diagnostics.push_back(summarize(
      "jsonl_bytes", "bytes", {static_cast<double>(jsonl.bytes.size())}));
  return result;
}

}  // namespace mcs_bench
