// Direct unit tests for the outcome layer (Allocation/Outcome) and the
// generic critical-value bisection -- pieces exercised everywhere but
// pinned down here at the edges.
#include "auction/outcome.hpp"

#include <gtest/gtest.h>

#include "auction/critical_value.hpp"
#include "model/scenario.hpp"

namespace mcs::auction {
namespace {

Money mu(std::int64_t units) { return Money::from_units(units); }

model::Scenario two_phone_scenario() {
  return model::ScenarioBuilder(2)
      .value(10)
      .phone(1, 2, 3)
      .phone(1, 1, 5)
      .task(1)
      .task(2)
      .build();
}

TEST(Allocation, EmptyShape) {
  const Allocation a(0, 0);
  EXPECT_EQ(a.task_count(), 0);
  EXPECT_EQ(a.phone_count(), 0);
  EXPECT_EQ(a.allocated_count(), 0);
  EXPECT_TRUE(a.winners().empty());
}

TEST(Allocation, AssignAndQuery) {
  Allocation a(2, 3);
  a.assign(TaskId{1}, PhoneId{2});
  EXPECT_EQ(a.phone_for(TaskId{1}), PhoneId{2});
  EXPECT_FALSE(a.phone_for(TaskId{0}).has_value());
  EXPECT_EQ(a.task_for(PhoneId{2}), TaskId{1});
  EXPECT_TRUE(a.is_winner(PhoneId{2}));
  EXPECT_FALSE(a.is_winner(PhoneId{0}));
  EXPECT_EQ(a.allocated_count(), 1);
  EXPECT_EQ(a.winners(), std::vector<PhoneId>{PhoneId{2}});
}

TEST(Allocation, RejectsDoubleAssignment) {
  Allocation a(2, 2);
  a.assign(TaskId{0}, PhoneId{0});
  EXPECT_THROW(a.assign(TaskId{0}, PhoneId{1}), ContractViolation);
  EXPECT_THROW(a.assign(TaskId{1}, PhoneId{0}), ContractViolation);
}

TEST(Allocation, RejectsOutOfRangeIds) {
  Allocation a(1, 1);
  EXPECT_THROW(a.assign(TaskId{1}, PhoneId{0}), ContractViolation);
  EXPECT_THROW(a.assign(TaskId{0}, PhoneId{-1}), ContractViolation);
  EXPECT_THROW(std::ignore = a.phone_for(TaskId{5}), ContractViolation);
}

TEST(Allocation, ValidateCatchesWindowViolation) {
  const model::Scenario s = two_phone_scenario();
  const model::BidProfile bids = s.truthful_bids();
  Allocation a(2, 2);
  a.assign(TaskId{1}, PhoneId{1});  // task 1 is slot 2; phone 1 window [1,1]
  EXPECT_THROW(a.validate(s, bids), ContractViolation);
}

TEST(Outcome, ValidateCatchesPaidLoser) {
  const model::Scenario s = two_phone_scenario();
  const model::BidProfile bids = s.truthful_bids();
  Outcome outcome;
  outcome.allocation = Allocation(2, 2);
  outcome.allocation.assign(TaskId{0}, PhoneId{0});
  outcome.payments = {mu(5), mu(1)};  // phone 1 lost but is paid
  EXPECT_THROW(outcome.validate(s, bids), ContractViolation);
}

TEST(Outcome, DerivedQuantities) {
  const model::Scenario s = two_phone_scenario();
  const model::BidProfile bids = s.truthful_bids();
  Outcome outcome;
  outcome.allocation = Allocation(2, 2);
  outcome.allocation.assign(TaskId{0}, PhoneId{1});  // slot 1, cost 5
  outcome.allocation.assign(TaskId{1}, PhoneId{0});  // slot 2, cost 3
  outcome.payments = {mu(7), mu(6)};
  outcome.validate(s, bids);

  EXPECT_EQ(outcome.social_welfare(s), mu(12));        // (10-5)+(10-3)
  EXPECT_EQ(outcome.claimed_welfare(s, bids), mu(12));
  EXPECT_EQ(outcome.total_payment(), mu(13));
  EXPECT_EQ(outcome.total_true_cost(s), mu(8));
  EXPECT_EQ(outcome.utility(s, PhoneId{0}), mu(4));    // 7 - 3
  EXPECT_EQ(outcome.utility(s, PhoneId{1}), mu(1));    // 6 - 5
}

// ------------------------------------------------------ bisection utility

TEST(CriticalValueBisect, FindsExactThreshold) {
  // wins(c) iff c < 7 exactly.
  const WinsWithCost wins = [](Money c) { return c < mu(7); };
  const auto critical = bisect_critical_value(wins, mu(100));
  ASSERT_TRUE(critical.has_value());
  EXPECT_EQ(*critical, mu(7));
}

TEST(CriticalValueBisect, ClosedThresholdWithinOneMicro) {
  // wins(c) iff c <= 7 (winning at the threshold itself).
  const WinsWithCost wins = [](Money c) { return c <= mu(7); };
  const auto critical = bisect_critical_value(wins, mu(100));
  ASSERT_TRUE(critical.has_value());
  EXPECT_LE((*critical - mu(7)).micros(), 1);
  EXPECT_GE(*critical, mu(7));
}

TEST(CriticalValueBisect, UnboundedReturnsNullopt) {
  const WinsWithCost wins = [](Money) { return true; };
  EXPECT_FALSE(bisect_critical_value(wins, mu(50)).has_value());
}

TEST(CriticalValueBisect, GuardsPreconditions) {
  const WinsWithCost never = [](Money) { return false; };
  EXPECT_THROW(std::ignore = bisect_critical_value(never, mu(10)),
               ContractViolation);
  const WinsWithCost wins = [](Money c) { return c < mu(5); };
  EXPECT_THROW(
      std::ignore = bisect_critical_value(wins, Money::from_units(-1)),
      ContractViolation);
}

}  // namespace
}  // namespace mcs::auction
