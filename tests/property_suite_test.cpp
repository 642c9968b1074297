// Cross-mechanism property suite: the invariants every mechanism in the
// library must satisfy, swept over (mechanism x supply-regime x seed).
// This is the coarse net under the per-mechanism suites -- any new
// mechanism added to the registry below inherits the whole battery.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "analysis/metrics.hpp"
#include "analysis/rationality.hpp"
#include "auction/offline_vcg.hpp"
#include "auction/online_greedy.hpp"
#include "auction/second_price.hpp"
#include "support/generators.hpp"

namespace mcs {
namespace {

std::unique_ptr<auction::Mechanism> make_mechanism(int id) {
  switch (id) {
    case 0:
      return std::make_unique<auction::OnlineGreedyMechanism>();
    case 1:
      return std::make_unique<auction::OfflineVcgMechanism>();
    case 2:
      return std::make_unique<auction::SecondPriceBaseline>();
    default: {  // 7
      auction::OnlineGreedyConfig config;
      config.reserve_price = Money::from_units(30);
      config.allocate_only_profitable = true;
      return std::make_unique<auction::OnlineGreedyMechanism>(config);
    }
  }
}

// The ids the test names print. 3 to 6 and 8 are retired, so no name
// changes the mechanism it stands for.
constexpr int kMechanisms[] = {0, 1, 2, 7};

using Param = std::tuple<int, std::uint64_t, bool>;  // mechanism, seed, scarce-free

class MechanismInvariants : public ::testing::TestWithParam<Param> {};

TEST_P(MechanismInvariants, UniversalOutcomeProperties) {
  const auto [mechanism_id, seed, scarcity_free] = GetParam();
  const auto mechanism = make_mechanism(mechanism_id);
  Rng rng(seed);
  const model::Scenario scenario =
      scarcity_free ? test_support::scarcity_free(rng)
                    : test_support::windowed(rng);
  const model::BidProfile bids = scenario.truthful_bids();

  const auction::Outcome outcome = mechanism->run(scenario, bids);

  // 1. Structural validity (allocation within reported windows, losers
  //    paid zero) -- validate() throws on violation.
  outcome.validate(scenario, bids);

  // 2. Determinism: a second run is identical.
  const auction::Outcome again = mechanism->run(scenario, bids);
  ASSERT_EQ(outcome.payments, again.payments) << mechanism->name();
  for (int t = 0; t < scenario.task_count(); ++t) {
    ASSERT_EQ(outcome.allocation.phone_for(TaskId{t}),
              again.allocation.phone_for(TaskId{t}))
        << mechanism->name() << " task " << t;
  }

  // 3. Individual rationality under truthful reporting.
  EXPECT_TRUE(analysis::check_individual_rationality(scenario, bids, outcome)
                  .individually_rational())
      << mechanism->name();

  // 4. Winners are paid at least their claimed cost.
  for (const PhoneId winner : outcome.allocation.winners()) {
    EXPECT_GE(outcome.payments[static_cast<std::size_t>(winner.value())],
              bids[static_cast<std::size_t>(winner.value())].claimed_cost)
        << mechanism->name() << " phone " << winner;
  }

  // 5. Metrics derive without contradiction.
  const analysis::RoundMetrics metrics =
      analysis::compute_metrics(scenario, bids, outcome);
  EXPECT_LE(metrics.tasks_allocated, metrics.tasks_total);
  EXPECT_GE(metrics.overpayment, Money{}) << mechanism->name();
  EXPECT_EQ(metrics.total_payment,
            metrics.total_true_cost + metrics.overpayment);

  // 6. No mechanism beats the clairvoyant optimum (claimed welfare).
  EXPECT_LE(outcome.claimed_welfare(scenario, bids),
            auction::OfflineVcgMechanism::optimal_claimed_welfare(scenario,
                                                                  bids))
      << mechanism->name();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MechanismInvariants,
    ::testing::Combine(::testing::ValuesIn(kMechanisms),
                       ::testing::Range<std::uint64_t>(40000, 40008),
                       ::testing::Bool()));

}  // namespace
}  // namespace mcs
