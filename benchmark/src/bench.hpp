// Shared declarations of the wall-clock serve benchmark (mcs_bench).
//
// The benchmark drives the serving stack from outside, through its public
// API (and, for the socket workload, through the real mcs_cli binary). It
// never edits or instruments the library: every timing below is taken by
// the benchmark around a call into a layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "auction/outcome.hpp"
#include "model/workload.hpp"
#include "serve/event.hpp"
#include "serve/round_machine.hpp"
#include "serve/socket.hpp"

namespace mcs_bench {

using mcs::serve::ServeEvent;

// ------------------------------------------------------------------ options

struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;  ///< measured time of one run
  bool traced = false;    ///< per-layer pass instead of the end-to-end run
  bool smoke = false;     ///< one tenth of every size (CI smoke)
  std::string cli;        ///< path of mcs_cli (socket workload only)
  std::string out_dir = "bench-out";
};

// ---------------------------------------------------------------- workloads

/// Producer-side batch of every workload (ServeConfig::batch_size).
inline constexpr std::size_t kBatch = 64;

/// One named workload. Sizes are frozen at the commit that defined the
/// benchmark; README.md records why each workload exists.
struct WorkloadSpec {
  std::string name;
  mcs::model::WorkloadConfig workload;  ///< per-round draw (Table-I knobs)
  std::int64_t rounds_per_pass = 0;
  std::int64_t traced_rounds = 0;       ///< rounds of the traced stream
  int shards = 3;
  int connections = 0;                  ///< socket: binary + JSONL clients
};

/// The frozen workload table; nullptr for an unknown name.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);
[[nodiscard]] const std::vector<WorkloadSpec>& all_workloads();

/// Applies --smoke (one tenth of every size, at least two rounds).
[[nodiscard]] WorkloadSpec scaled(const WorkloadSpec& spec, bool smoke);

// ------------------------------------------------------------------ streams

/// Round-id offset of socket connection c (connection c sends ids
/// c * kConnectionIdStride + k, so two connections never share a round).
inline constexpr std::int64_t kConnectionIdStride = 1'000'000'000;

/// Canonical event order of one round (loadgen linearization).
[[nodiscard]] std::vector<ServeEvent> events_of(const WorkloadSpec& spec,
                                                std::uint64_t seed,
                                                std::int64_t round);

/// Round ids of `rounds` rounds: 0..rounds-1, or, for a socket workload,
/// an equal share per connection starting at c * kConnectionIdStride.
[[nodiscard]] std::vector<std::int64_t> round_ids(const WorkloadSpec& spec,
                                                  std::int64_t rounds);

/// An encoded in-memory stream and the number of events it carries.
struct Stream {
  std::string bytes;
  std::int64_t events{0};
};

/// The rounds, one after another, as an mcs.serve.b1 / JSONL stream,
/// generated round by round so no event vector of the whole load exists.
[[nodiscard]] Stream binary_stream(const WorkloadSpec& spec,
                                   std::uint64_t seed,
                                   const std::vector<std::int64_t>& rounds);
[[nodiscard]] Stream jsonl_stream(const WorkloadSpec& spec, std::uint64_t seed,
                                  const std::vector<std::int64_t>& rounds);

/// The same encodings of an event sequence already in memory.
[[nodiscard]] Stream binary_stream(const std::vector<ServeEvent>& events);
[[nodiscard]] Stream jsonl_stream(const std::vector<ServeEvent>& events);

/// Byte-stable digest of an outcome (allocation + exact payments).
[[nodiscard]] std::uint64_t outcome_digest(
    const mcs::auction::Outcome& outcome);

/// Total payment (micros) of the batch online mechanism over the rounds.
[[nodiscard]] std::int64_t batch_payments_micros(
    const WorkloadSpec& spec, std::uint64_t seed,
    const std::vector<std::int64_t>& rounds);

/// Every event of the workload's traced stream, round after round (the
/// socket workload's two connections back to back).
[[nodiscard]] std::vector<ServeEvent> traced_events(const WorkloadSpec& spec,
                                                    std::uint64_t seed);

// ------------------------------------------------------------------ sockets

/// One client thread drives every connection: it hands out the streams in
/// proportional chunks so all of them finish together, then closes each.
void send_interleaved(std::vector<mcs::serve::SocketClient>& clients,
                      const std::vector<std::string_view>& streams);

// ------------------------------------------------------------- measurements

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// CPU time of the calling thread, nanoseconds.
[[nodiscard]] std::uint64_t thread_cpu_ns();

/// Peak resident set of this process so far, MB.
[[nodiscard]] double peak_rss_mb();

/// One reported metric: the median of its samples with the quartiles.
struct Metric {
  std::string name;
  std::string unit;
  double value{0.0};  ///< median
  double q1{0.0};
  double q3{0.0};
  std::int64_t samples{0};
};

/// Quantile q of the samples (linear interpolation; 0 when empty).
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// Median and quartiles (linear interpolation) of the samples.
[[nodiscard]] Metric summarize(std::string name, std::string unit,
                               std::vector<double> samples);

/// Whether a closed loop starts another pass: always the first, then only
/// while the measured time plus one median pass fits in `seconds`, so a run
/// ends near `seconds` instead of finishing whichever pass crosses it.
[[nodiscard]] bool another_pass(const std::vector<double>& pass_s,
                                double seconds);

/// Everything one run reports.
struct Result {
  std::int64_t attempted{0};  ///< rounds offered
  std::int64_t failed{0};     ///< rounds lost or not identical to batch
  bool checks_passed{true};   ///< non-round checks (violations, errors)
  std::vector<Metric> metrics;      ///< the declared metrics, in order
  std::vector<Metric> diagnostics;  ///< printed and saved, not declared
  std::vector<std::string> notes;   ///< what failed, for humans

  [[nodiscard]] bool correct() const { return failed == 0 && checks_passed; }
  void fail(std::string note);
};

/// Checks a pass's outcomes round by round: the first pass against the
/// batch mechanism (regenerating each round), later passes against the
/// first pass's digests. Returns the rounds that failed.
class OutcomeChecker {
 public:
  OutcomeChecker(const WorkloadSpec& spec, std::uint64_t seed,
                 std::vector<std::int64_t> expected_rounds);

  std::int64_t check(const std::vector<mcs::serve::RoundOutcome>& outcomes,
                     Result& result);

 private:
  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  std::vector<std::int64_t> expected_;  ///< sorted round ids
  std::vector<std::uint64_t> digests_;  ///< by expected_ index; empty = first
};

// ---------------------------------------------------------------- workloads

Result run_closed_loop(const WorkloadSpec& spec, const Options& options);
Result run_socket(const WorkloadSpec& spec, const Options& options);
Result run_traced(const WorkloadSpec& spec, const Options& options);

}  // namespace mcs_bench
