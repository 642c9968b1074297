// Closed-loop replay workloads (table1-replay, large-rounds).
//
// One pass hands an in-memory mcs.serve.b1 stream to
// replay_event_stream(batch=true) and waits for drain(): the replay thread
// is the only client and blocks whenever a shard queue is full, so the
// engine sets the pace. Passes repeat on the same stream while another
// one fits in the run's measuring time.
#include <sys/wait.h>
#include <unistd.h>

#include <streambuf>

#include "bench.hpp"
#include "common/error.hpp"
#include "serve/engine.hpp"
#include "serve/replay.hpp"
#include "serve/telemetry.hpp"

namespace mcs_bench {

namespace serve = mcs::serve;

namespace {

/// Read-only istream buffer over bytes the caller owns (no copy).
class MemoryBuffer : public std::streambuf {
 public:
  explicit MemoryBuffer(std::string_view bytes) {
    char* begin = const_cast<char*>(bytes.data());
    setg(begin, begin, begin + bytes.size());
  }
};

/// Engine constructions timed before the passes: kSetups back to back in
/// each of kSetupProcesses forked processes, and setup_s is the median of
/// the per-process medians. A fixed count, taken in the same fresh-process
/// state every run, keeps setup_s independent of how many passes fit in
/// the run. Several processes, because the cost of a construction clusters
/// per process: on the 4-vCPU guest README.md describes, single-process
/// medians ranged 72-110 us while each one's quartiles were ~3% apart.
constexpr int kSetups = 30;
constexpr int kSetupProcesses = 16;

/// Median construction time of kSetups engines in a forked child, which
/// writes it to a pipe and exits. Call before this process starts a thread.
double forked_setup_s(const serve::ServeConfig& config) {
  int fds[2];
  if (::pipe(fds) != 0) throw mcs::IoError("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw mcs::IoError("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    double median = -1.0;
    try {
      std::vector<double> samples;
      for (int i = 0; i < kSetups; ++i) {
        const std::uint64_t start = now_ns();
        serve::ServeEngine engine(config);
        samples.push_back(seconds_since(start));
        engine.drain();
      }
      median = quantile(std::move(samples), 0.5);
    } catch (...) {
    }
    const bool sent = ::write(fds[1], &median, sizeof median) ==
                      static_cast<ssize_t>(sizeof median);
    ::_exit(sent && median > 0.0 ? 0 : 1);
  }
  ::close(fds[1]);
  double median = -1.0;
  const bool got = ::read(fds[0], &median, sizeof median) ==
                   static_cast<ssize_t>(sizeof median);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw mcs::IoError("engine set-up failed in a child process");
  }
  return median;
}

}  // namespace

Result run_closed_loop(const WorkloadSpec& spec, const Options& options) {
  Result result;
  serve::LiveTelemetry live;
  serve::ServeConfig config;
  config.shards = spec.shards;
  config.batch_size = kBatch;
  config.admission = serve::ServeConfig::Admission::kBlock;
  config.live = &live;

  std::vector<double> setup_s;
  for (int p = 0; p < kSetupProcesses; ++p) {
    setup_s.push_back(forked_setup_s(config));
  }

  const std::vector<std::int64_t> rounds =
      round_ids(spec, spec.rounds_per_pass);
  const Stream stream = binary_stream(spec, options.seed, rounds);

  OutcomeChecker checker(spec, options.seed, rounds);
  std::vector<double> events_per_s;
  std::vector<double> wait_p50_ms;
  std::vector<double> wait_p99_ms;
  std::vector<double> pass_s;
  double rss_mb = 0.0;
  while (another_pass(pass_s, options.seconds)) {
    serve::ServeEngine engine(config);
    MemoryBuffer buffer(stream.bytes);
    std::istream in(&buffer);

    const std::uint64_t start = now_ns();
    try {
      serve::replay_event_stream(in, engine, /*batch=*/true);
      engine.drain();
    } catch (const mcs::Error& e) {
      result.attempted += static_cast<std::int64_t>(rounds.size());
      result.failed += static_cast<std::int64_t>(rounds.size());
      result.notes.push_back(std::string("pass failed: ") + e.what());
      break;
    }
    const double wall = seconds_since(start);
    pass_s.push_back(wall);
    events_per_s.push_back(static_cast<double>(stream.events) / wall);
    const serve::LiveSummary summary = live.summary();
    wait_p50_ms.push_back(summary.queue_wait.quantile_ns(0.5) / 1e6);
    wait_p99_ms.push_back(summary.queue_wait.quantile_ns(0.99) / 1e6);
    // Read before the first check: its batch re-runs are not the server's.
    if (pass_s.size() == 1) rss_mb = peak_rss_mb();

    result.attempted += static_cast<std::int64_t>(rounds.size());
    result.failed += checker.check(engine.take_outcomes(), result);
  }

  result.metrics.push_back(
      summarize("events_per_s", "events/s", std::move(events_per_s)));
  result.metrics.push_back(summarize("setup_s", "s", std::move(setup_s)));
  result.metrics.push_back(summarize("peak_rss_mb", "MB", {rss_mb}));
  result.diagnostics.push_back(
      summarize("event_wait_p50_ms", "ms", std::move(wait_p50_ms)));
  result.diagnostics.push_back(
      summarize("event_wait_p99_ms", "ms", std::move(wait_p99_ms)));
  result.diagnostics.push_back(summarize("pass_s", "s", std::move(pass_s)));
  result.diagnostics.push_back(summarize(
      "events_per_pass", "events", {static_cast<double>(stream.events)}));
  return result;
}

}  // namespace mcs_bench
