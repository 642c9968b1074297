#include "arena/arena.hpp"

#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "analysis/flight.hpp"
#include "common/assert.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mcs::arena {

ArenaResult run_arena(const ArenaConfig& config) {
  MCS_EXPECTS(config.rounds > 0, "arena needs at least one round");
  if (config.mechanisms.empty() || config.mixes.empty()) {
    throw InvalidArgumentError("arena needs >= 1 mechanism and >= 1 mix");
  }
  config.match.workload.validate();
  const obs::TraceSpan span("arena.run");

  // Build the grid up front so spec errors surface before any work.
  std::vector<std::unique_ptr<auction::Mechanism>> mechanisms;
  mechanisms.reserve(config.mechanisms.size());
  for (const std::string& spec : config.mechanisms) {
    mechanisms.push_back(analysis::make_mechanism(spec, config.match.greedy));
  }
  std::vector<PolicyMix> mixes;
  mixes.reserve(config.mixes.size());
  for (const std::string& spec : config.mixes) {
    mixes.push_back(PolicyMix::parse(spec));
  }

  const std::size_t cells = mechanisms.size() * mixes.size();
  const auto rounds = static_cast<std::size_t>(config.rounds);

  // Work layout: item 0..rounds-1 is the shared VCG reference; item
  // rounds + c*rounds + r is (cell c, round r). Results land in
  // preallocated per-round slots, so claim order cannot affect the fold.
  std::vector<std::int64_t> vcg_micros(rounds, 0);
  std::vector<std::vector<RoundCellStats>> cell_rounds(cells);
  for (auto& per_round : cell_rounds) per_round.resize(rounds);

  int threads = config.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  const std::size_t total_items = rounds * (cells + 1);
  threads = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(threads), total_items));

  const auto run_item = [&](std::size_t item) {
    if (item < rounds) {
      vcg_micros[item] =
          vcg_reference_micros(config.match, static_cast<std::int64_t>(item));
      return;
    }
    const std::size_t flat = item - rounds;
    const std::size_t cell = flat / rounds;
    const std::size_t round = flat % rounds;
    const std::size_t mech = cell / mixes.size();
    const std::size_t mix = cell % mixes.size();
    cell_rounds[cell][round] =
        evaluate_round(config.match, *mechanisms[mech], mixes[mix],
                       static_cast<std::int64_t>(round));
  };

  if (threads == 1) {
    for (std::size_t item = 0; item < total_items; ++item) run_item(item);
  } else {
    // Worker-local registries, merged in worker order after the join --
    // counter merges are sums, so totals match a serial run exactly.
    obs::MetricsRegistry* const parent_registry = obs::current_registry();
    std::vector<obs::MetricsRegistry> worker_metrics(
        static_cast<std::size_t>(threads));
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        std::optional<obs::ScopedRegistry> telemetry;
        if (parent_registry != nullptr) {
          telemetry.emplace(&worker_metrics[static_cast<std::size_t>(w)]);
        }
        while (true) {
          const std::size_t item = next.fetch_add(1);
          if (item >= total_items) break;
          run_item(item);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    if (parent_registry != nullptr) {
      for (const obs::MetricsRegistry& partial : worker_metrics) {
        parent_registry->merge(partial);
      }
    }
  }

  ArenaResult result;
  result.seed = config.match.seed;
  result.rounds = config.rounds;
  result.probes_per_policy = config.match.probes_per_policy;
  result.workload = config.match.workload;
  std::int64_t vcg_total = 0;
  for (const std::int64_t micros : vcg_micros) vcg_total += micros;
  result.vcg_reference_payment = Money::from_micros(vcg_total);
  result.cells.reserve(cells);
  for (std::size_t mech = 0; mech < mechanisms.size(); ++mech) {
    for (std::size_t mix = 0; mix < mixes.size(); ++mix) {
      const std::size_t cell = mech * mixes.size() + mix;
      result.cells.push_back(fold_cell(mechanisms[mech]->name(), mixes[mix],
                                       cell_rounds[cell], vcg_total));
    }
  }
  return result;
}

}  // namespace mcs::arena
