// Measurement helpers and the correctness gate shared by every workload.
#include <sys/resource.h>

#include <algorithm>
#include <ctime>
#include <thread>

#include "bench.hpp"
#include "serve/verify.hpp"

namespace mcs_bench {

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

/// Linear-interpolation quantile of sorted, non-empty samples.
double sorted_quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return sorted_quantile(samples, q);
}

Metric summarize(std::string name, std::string unit,
                 std::vector<double> samples) {
  Metric metric{std::move(name), std::move(unit), 0.0, 0.0, 0.0,
                static_cast<std::int64_t>(samples.size())};
  if (samples.empty()) return metric;
  std::sort(samples.begin(), samples.end());
  metric.value = sorted_quantile(samples, 0.5);
  metric.q1 = sorted_quantile(samples, 0.25);
  metric.q3 = sorted_quantile(samples, 0.75);
  return metric;
}

bool another_pass(const std::vector<double>& pass_s, double seconds) {
  if (pass_s.empty()) return true;
  double measured = 0.0;
  for (const double pass : pass_s) measured += pass;
  return measured + quantile(pass_s, 0.5) <= seconds;
}

void Result::fail(std::string note) {
  checks_passed = false;
  notes.push_back(std::move(note));
}

OutcomeChecker::OutcomeChecker(const WorkloadSpec& spec, std::uint64_t seed,
                               std::vector<std::int64_t> expected_rounds)
    : spec_(spec), seed_(seed), expected_(std::move(expected_rounds)) {
  std::sort(expected_.begin(), expected_.end());
}

std::int64_t OutcomeChecker::check(
    const std::vector<mcs::serve::RoundOutcome>& outcomes, Result& result) {
  // outcomes come sorted by round id (ServeEngine::take_outcomes).
  std::int64_t failed = 0;
  const bool first = digests_.empty();
  if (first) {
    // Round by round against the batch mechanism, in one contiguous slice
    // of rounds per hardware thread: the check is outside the timed window
    // but still part of the run's length.
    mcs::serve::LoadGenConfig load;
    load.seed = seed_;
    load.workload = spec_.workload;
    const std::size_t workers = std::clamp<std::size_t>(
        std::thread::hardware_concurrency(), 1,
        std::max<std::size_t>(outcomes.size(), 1));
    std::vector<mcs::serve::VerifyReport> reports(workers);
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        const auto begin = static_cast<std::ptrdiff_t>(outcomes.size() * w /
                                                       workers);
        const auto end = static_cast<std::ptrdiff_t>(
            outcomes.size() * (w + 1) / workers);
        reports[w] = mcs::serve::verify_against_batch(
            load, {outcomes.begin() + begin, outcomes.begin() + end},
            mcs::auction::OnlineGreedyConfig{});
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const mcs::serve::VerifyReport& report : reports) {
      failed += report.rounds_diverged;
      if (!report.clean()) result.notes.push_back(report.first_diff);
    }
    digests_.assign(expected_.size(), 0);
  }
  std::size_t next = 0;
  std::int64_t matched = 0;
  for (const mcs::serve::RoundOutcome& outcome : outcomes) {
    while (next < expected_.size() && expected_[next] < outcome.round) {
      ++next;  // missing round; counted below
    }
    if (next == expected_.size() || expected_[next] != outcome.round) {
      ++failed;  // a round nobody offered
      continue;
    }
    const std::uint64_t digest = outcome_digest(outcome.outcome);
    if (first) {
      digests_[next] = digest;
    } else if (digests_[next] != digest) {
      ++failed;
      result.notes.push_back("round " + std::to_string(outcome.round) +
                             ": outcome differs from the first pass");
    }
    ++matched;
    ++next;
  }
  const std::int64_t missing =
      static_cast<std::int64_t>(expected_.size()) - matched;
  if (missing > 0) {
    failed += missing;
    result.notes.push_back(std::to_string(missing) + " round(s) not completed");
  }
  return failed;
}

}  // namespace mcs_bench
