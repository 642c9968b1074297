// The paper's two designs side by side with the untruthful per-slot
// second price (Fig. 5) on the Table-I workload.
// One table answers "what does each design property cost in welfare and
// payments?"
#include <iostream>
#include <memory>
#include <vector>

#include "analysis/metrics.hpp"
#include "analysis/truthfulness.hpp"
#include "auction/offline_vcg.hpp"
#include "auction/online_greedy.hpp"
#include "auction/second_price.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "io/cli.hpp"
#include "io/table.hpp"
#include "model/paper_examples.hpp"
#include "model/workload.hpp"
#include "telemetry_scope.hpp"

int main(int argc, char** argv) {
  using namespace mcs;

  // Consumes --telemetry-out before the strict flag parser below; with it,
  // the mechanism zoo's work counters land in BENCH_telemetry.json.
  const mcs_bench::TelemetryScope telemetry(argc, argv, "baseline_comparison");

  io::CliParser cli(
      "All mechanisms side by side on the Table-I workload: welfare, "
      "payments, completion, and the Fig. 4 truthfulness verdict.");
  cli.add_int("reps", 15, "repetitions");
  cli.add_int("seed", 42, "base RNG seed");
  if (!cli.parse(argc, argv)) return 0;
  const int reps = static_cast<int>(cli.get_int("reps"));

  const model::WorkloadConfig workload;  // Table-I defaults
  const Rng parent(static_cast<std::uint64_t>(cli.get_int("seed")));
  const model::Scenario fig4 = model::fig4_scenario();

  std::vector<std::unique_ptr<auction::Mechanism>> mechanisms;
  mechanisms.push_back(std::make_unique<auction::OnlineGreedyMechanism>());
  mechanisms.push_back(std::make_unique<auction::OfflineVcgMechanism>());
  mechanisms.push_back(std::make_unique<auction::SecondPriceBaseline>());

  std::cout << "=== Mechanism comparison (Table-I defaults, " << reps
            << " reps) ===\n\n";
  io::TextTable table({"mechanism", "welfare", "payment", "completion %",
                       "truthful on Fig.4?"});
  for (const auto& mechanism : mechanisms) {
    RunningStats welfare;
    RunningStats payment;
    RunningStats completion;
    for (int rep = 0; rep < reps; ++rep) {
      Rng rng = parent.fork(static_cast<std::uint64_t>(rep));
      const model::Scenario s = model::generate_scenario(workload, rng);
      const model::BidProfile bids = s.truthful_bids();
      const analysis::RoundMetrics m =
          analysis::compute_metrics(s, bids, mechanism->run(s, bids));
      welfare.add(m.social_welfare.to_double());
      payment.add(m.total_payment.to_double());
      completion.add(100.0 * m.completion_rate);
    }
    const bool truthful =
        analysis::audit_truthfulness(*mechanism, fig4).truthful();
    table.add_row({mechanism->name(), io::format_double(welfare.mean(), 1),
                   io::format_double(payment.mean(), 1),
                   io::format_double(completion.mean(), 1),
                   truthful ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout
      << "\nReading the table: the paper's mechanisms combine near-optimal "
         "welfare with truthfulness; second price matches greedy welfare "
         "but is manipulable.\n";
  return 0;
}
