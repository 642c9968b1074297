// Tests for the strategic-agent arena: the policy catalog and mix grammar,
// the pure-hash population assignment, the incentive-to-deviate probes
// (truthful mechanisms hold, the second-price baseline leaks), and the
// headline determinism contract -- identical leaderboard bytes at 1 and N
// worker threads.
#include "arena/arena.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/flight.hpp"
#include "arena/leaderboard.hpp"
#include "arena/match.hpp"
#include "arena/policy.hpp"
#include "arena/population.hpp"
#include "auction/counterfactual.hpp"
#include "common/error.hpp"
#include "model/paper_examples.hpp"
#include "obs/metrics.hpp"
#include "support/factual_engine.hpp"

namespace mcs::arena {
namespace {

model::TrueProfile profile(Slot::rep_type begin, Slot::rep_type end,
                           std::int64_t cost_units) {
  return model::TrueProfile{SlotInterval{Slot{begin}, Slot{end}},
                            Money::from_units(cost_units)};
}

// ------------------------------------------------------------- policies

TEST(ArenaPolicy, CatalogSpecsRoundTripThroughName) {
  for (const char* spec :
       {"truthful", "shade(1.5)", "delay(2)", "early(1)", "best-response"}) {
    EXPECT_EQ(make_policy(spec)->name(), spec) << spec;
  }
}

TEST(ArenaPolicy, ReportsFollowTheirStrategies) {
  Rng rng(7);
  const model::TrueProfile phone = profile(2, 6, 40);

  const model::Bid truthful = make_policy("truthful")->report(phone, rng);
  EXPECT_EQ(truthful, model::truthful_bid(phone));

  const model::Bid shaded = make_policy("shade(1.5)")->report(phone, rng);
  EXPECT_EQ(shaded.window, phone.active);
  EXPECT_EQ(shaded.claimed_cost, Money::from_units(60));

  const model::Bid delayed = make_policy("delay(2)")->report(phone, rng);
  EXPECT_EQ(delayed.window.begin(), Slot{4});
  EXPECT_EQ(delayed.window.end(), Slot{6});
  EXPECT_EQ(delayed.claimed_cost, phone.cost);

  // The delay clamps so the window stays nonempty (and legal).
  const model::Bid clamped = make_policy("delay(9)")->report(phone, rng);
  EXPECT_EQ(clamped.window.begin(), Slot{6});
  EXPECT_TRUE(model::is_legal_report(phone, clamped));
}

TEST(ArenaPolicy, RejectsMalformedSpecs) {
  EXPECT_THROW((void)make_policy("collude"), InvalidArgumentError);
  EXPECT_THROW((void)make_policy("shade"), InvalidArgumentError);
  EXPECT_THROW((void)make_policy("truthful(2)"), InvalidArgumentError);
  EXPECT_THROW((void)make_policy("shade(-1)"), InvalidArgumentError);
  EXPECT_THROW((void)make_policy("delay(-2)"), InvalidArgumentError);
  EXPECT_THROW((void)make_policy("shade(1.5"), InvalidArgumentError);
}

TEST(ArenaPolicy, BestResponderShadesToJustBelowItsCriticalValue) {
  // Fig. 4 round: phone 1 wins slot 1 truthfully (cost 5) with a bounded
  // critical value above its cost, so the informed attacker raises its
  // claim to one micro below that threshold -- and must still win.
  const model::Scenario s = model::fig4_scenario();
  const model::BidProfile bids = s.truthful_bids();
  const auction::CounterfactualEngine engine =
      test_support::factual_engine(s, bids);
  const PhoneId self{1};

  const auto probe = engine.critical_value_of(self);
  ASSERT_TRUE(probe.winnable);
  ASSERT_TRUE(probe.critical.has_value());
  ASSERT_GT(*probe.critical, bids[1].claimed_cost);

  const BestResponsePolicy best;
  const model::Bid response = best.respond(engine, self);
  EXPECT_EQ(response.window, bids[1].window);
  EXPECT_EQ(response.claimed_cost,
            Money::from_micros(probe.critical->micros() - 1));
  EXPECT_TRUE(engine.wins_with_cost(self, response.claimed_cost));
  EXPECT_FALSE(engine.wins_with_cost(self, *probe.critical));
}

// ------------------------------------------------------------ mix grammar

TEST(ArenaMix, ParsesNamesWeightsAndDefaults) {
  const PolicyMix mix = PolicyMix::parse("shaded=truthful:3,shade(1.5):1");
  EXPECT_EQ(mix.name(), "shaded");
  ASSERT_EQ(mix.size(), 2u);
  EXPECT_EQ(mix.entries()[0].policy->name(), "truthful");
  EXPECT_DOUBLE_EQ(mix.entries()[0].weight, 3.0);
  EXPECT_EQ(mix.entries()[1].policy->name(), "shade(1.5)");
  EXPECT_DOUBLE_EQ(mix.entries()[1].weight, 1.0);
  EXPECT_EQ(mix.describe(), "truthful:3,shade(1.5):1");

  // No '=' name: the spec itself is the display name; weights default to 1.
  const PolicyMix bare = PolicyMix::parse("shade(1.5)");
  EXPECT_EQ(bare.name(), "shade(1.5)");
  ASSERT_EQ(bare.size(), 1u);
  EXPECT_DOUBLE_EQ(bare.entries()[0].weight, 1.0);
}

TEST(ArenaMix, RejectsMalformedMixes) {
  EXPECT_THROW((void)PolicyMix::parse(""), InvalidArgumentError);
  EXPECT_THROW((void)PolicyMix::parse("crew="), InvalidArgumentError);
  EXPECT_THROW((void)PolicyMix::parse("truthful,,shade(1.5)"),
               InvalidArgumentError);
  EXPECT_THROW((void)PolicyMix::parse("truthful:0"), InvalidArgumentError);
  EXPECT_THROW((void)PolicyMix::parse("truthful:-1"), InvalidArgumentError);
  EXPECT_THROW((void)PolicyMix::parse("truthful:nope"), InvalidArgumentError);
}

TEST(ArenaMix, AssignmentIsAPureFunctionOfSeedRoundAndPhone) {
  const PolicyMix mix = PolicyMix::parse("truthful:3,shade(1.5):1");
  std::int64_t shaded = 0;
  constexpr std::int64_t kPhones = 4000;
  for (std::int64_t i = 0; i < kPhones; ++i) {
    const PhoneId phone{static_cast<PhoneId::rep_type>(i)};
    const std::size_t first = mix.assign(99, 7, phone);
    EXPECT_EQ(first, mix.assign(99, 7, phone));  // replayable
    EXPECT_LT(first, mix.size());
    if (first == 1) ++shaded;
  }
  // 3:1 weights => ~25% shaded; allow a generous band for one fixed seed.
  EXPECT_GT(shaded, kPhones / 5);
  EXPECT_LT(shaded, kPhones / 3);
}

// --------------------------------------------------------------- matches

ArenaConfig small_config() {
  ArenaConfig config;
  config.rounds = 24;
  config.match.seed = 42;
  config.match.probes_per_policy = 3;
  config.match.workload.num_slots = 8;
  config.match.workload.phone_arrival_rate = 3.0;
  config.match.workload.task_arrival_rate = 1.5;
  // Reserve at the task value: the documented configuration under which
  // the online mechanism stays exactly truthful even through scarcity.
  config.match.greedy.reserve_price = config.match.workload.task_value;
  config.mechanisms = {"online", "offline", "second-price"};
  config.mixes = {"truthful", "shaded=truthful:3,shade(1.5):1"};
  return config;
}

TEST(Arena, GridShapeAndSharedVcgReference) {
  const ArenaResult result = run_arena(small_config());
  ASSERT_EQ(result.cells.size(), 6u);
  EXPECT_EQ(result.cells[0].mechanism, "online-greedy");
  EXPECT_EQ(result.cells[0].mix, "truthful");
  EXPECT_EQ(result.cells[1].mix, "shaded");
  EXPECT_EQ(result.cells[2].mechanism, "offline-vcg");
  EXPECT_GT(result.vcg_reference_payment, Money{});
  // Every cell sees the same round stream, so the number of assigned agents
  // (= phones summed over rounds) is identical across the grid.
  std::int64_t expected_agents = 0;
  for (const CellResult::PolicySummary& policy : result.cells[0].policies) {
    expected_agents += policy.agents;
  }
  EXPECT_GT(expected_agents, 0);
  for (const CellResult& cell : result.cells) {
    EXPECT_EQ(cell.rounds, 24);
    EXPECT_EQ(cell.vcg_payment, result.vcg_reference_payment);
    EXPECT_GT(cell.payment_vs_vcg, 0.0);
    std::int64_t agents = 0;
    for (const CellResult::PolicySummary& policy : cell.policies) {
      agents += policy.agents;
      EXPECT_GE(policy.winners, 0);
      EXPECT_LE(policy.winners, policy.agents);
    }
    EXPECT_EQ(agents, expected_agents)
        << "every phone of every round is assigned exactly one policy";
  }
  // The same rounds under the same mix allocate identically across
  // mechanisms sharing the greedy allocation rule.
  EXPECT_EQ(result.cells[0].social_welfare, result.cells[4].social_welfare);
}

TEST(Arena, TruthfulMechanismsKeepDeviationGainsNonpositive) {
  const ArenaResult result = run_arena(small_config());
  constexpr std::int64_t kToleranceMicros = 1;
  bool second_price_leaks = false;
  for (const CellResult& cell : result.cells) {
    for (const CellResult::PolicySummary& policy : cell.policies) {
      if (policy.probes == 0) continue;
      if (cell.mechanism == "online-greedy" ||
          cell.mechanism == "offline-vcg") {
        EXPECT_LE(policy.max_deviation_gain.micros(), kToleranceMicros)
            << cell.mechanism << " | " << cell.mix << " | " << policy.policy;
      } else if (policy.max_deviation_gain.micros() > kToleranceMicros) {
        second_price_leaks = true;
      }
    }
  }
  EXPECT_TRUE(second_price_leaks)
      << "the Fig. 5 manipulation must show up as a positive "
         "incentive-to-deviate for the second-price baseline";
}

TEST(Arena, LeaderboardBytesAreIdenticalAcrossThreadCounts) {
  ArenaConfig config = small_config();
  config.mixes.push_back("br=truthful:2,best-response:1");

  const auto render = [](const ArenaResult& result) {
    std::ostringstream json;
    write_arena_json(json, result);
    std::ostringstream markdown;
    render_arena_markdown(markdown, result);
    return std::make_pair(json.str(), markdown.str());
  };

  config.threads = 1;
  obs::MetricsRegistry serial_metrics;
  std::optional<ArenaResult> serial;
  {
    const obs::ScopedRegistry telemetry(&serial_metrics);
    serial.emplace(run_arena(config));
  }
  const auto [serial_json, serial_md] = render(*serial);
  EXPECT_NE(serial_json.find("\"schema\":\"mcs.arena.v1\""), std::string::npos);

  for (const int threads : {2, 8}) {
    config.threads = threads;
    obs::MetricsRegistry parallel_metrics;
    std::optional<ArenaResult> parallel;
    {
      const obs::ScopedRegistry telemetry(&parallel_metrics);
      parallel.emplace(run_arena(config));
    }
    const auto [parallel_json, parallel_md] = render(*parallel);
    EXPECT_EQ(serial_json, parallel_json) << "threads=" << threads;
    EXPECT_EQ(serial_md, parallel_md) << "threads=" << threads;
    // Worker-local registries merge to the serial counters exactly.
    EXPECT_EQ(serial_metrics.snapshot().counters,
              parallel_metrics.snapshot().counters)
        << "threads=" << threads;
  }
}

TEST(Arena, RejectsEmptyGridsAndUnknownSpecs) {
  ArenaConfig config = small_config();
  config.mechanisms.clear();
  EXPECT_THROW((void)run_arena(config), InvalidArgumentError);

  config = small_config();
  config.mechanisms = {"fifth-price"};
  EXPECT_THROW((void)run_arena(config), InvalidArgumentError);

  config = small_config();
  config.mixes = {"truthful:0"};
  EXPECT_THROW((void)run_arena(config), InvalidArgumentError);
}

TEST(Arena, MatchReserveReachesTheOnlineCell) {
  // The online cell runs on the match's greedy config, reserve included:
  // a reserve that excludes bids changes what the cell pays.
  ArenaConfig config = small_config();
  config.match.greedy.reserve_price = Money::from_units(30);
  config.mechanisms = {"online"};
  const ArenaResult reserved = run_arena(config);
  config.match.greedy.reserve_price.reset();
  const ArenaResult open = run_arena(config);
  ASSERT_EQ(reserved.cells.size(), 2u);
  for (std::size_t mix = 0; mix < 2; ++mix) {
    EXPECT_NE(open.cells[mix].total_payment,
              reserved.cells[mix].total_payment)
        << mix;
  }
}

TEST(Arena, MechanismSpecsCoverTheInTreeCatalog) {
  const auction::OnlineGreedyConfig greedy = MatchConfig{}.greedy;
  const auto make = [&](const char* spec) {
    return analysis::make_mechanism(spec, greedy);
  };
  EXPECT_EQ(make("online")->name(), "online-greedy");
  EXPECT_EQ(make("offline")->name(), "offline-vcg");
  EXPECT_EQ(make("second-price")->name(), "per-slot-second-price");
  // Posted price and task patience are not the paper's mechanisms.
  for (const char* removed : {"posted(30)", "patience(2)"}) {
    try {
      (void)make(removed);
      ADD_FAILURE() << removed << " built a mechanism";
    } catch (const InvalidArgumentError& e) {
      EXPECT_EQ(std::string(e.what()),
                "unknown mechanism '" + std::string(removed) +
                    "' (known: online, offline, second-price)");
    }
  }
  EXPECT_THROW((void)make("posted"), InvalidArgumentError);
  EXPECT_THROW((void)make("online(3)"), InvalidArgumentError);
  EXPECT_THROW((void)make("patience(-1)"), InvalidArgumentError);
}

}  // namespace
}  // namespace mcs::arena
