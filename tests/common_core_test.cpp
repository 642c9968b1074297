// Tests for the core vocabulary: strong ids, slot intervals, contracts,
// logging, the flat id set.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/flat_id_set.hpp"
#include "common/interval.hpp"
#include "common/logging.hpp"
#include "common/types.hpp"

namespace mcs {
namespace {

TEST(TaggedTypes, ComparisonsAndValue) {
  EXPECT_LT(Slot{1}, Slot{2});
  EXPECT_EQ(PhoneId{3}, PhoneId{3});
  EXPECT_NE(TaskId{0}, TaskId{1});
  EXPECT_EQ(Slot{5}.value(), 5);
}

TEST(TaggedTypes, NextAndPrevSlot) {
  EXPECT_EQ(next(Slot{3}), Slot{4});
  EXPECT_EQ(prev(Slot{3}), Slot{2});
}

TEST(TaggedTypes, Hashable) {
  std::unordered_set<PhoneId> set;
  set.insert(PhoneId{1});
  set.insert(PhoneId{2});
  set.insert(PhoneId{1});
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(PhoneId{2}));
}

TEST(TaggedTypes, Streamable) {
  std::ostringstream os;
  os << Slot{7} << ' ' << PhoneId{2};
  EXPECT_EQ(os.str(), "7 2");
}

TEST(SlotInterval, ConstructionAndAccessors) {
  const SlotInterval iv = SlotInterval::of(2, 5);
  EXPECT_EQ(iv.begin(), Slot{2});
  EXPECT_EQ(iv.end(), Slot{5});
  EXPECT_EQ(iv.length(), 4);
}

TEST(SlotInterval, RejectsInvertedBounds) {
  EXPECT_THROW(std::ignore = SlotInterval::of(5, 2), ContractViolation);
}

TEST(SlotInterval, SingletonInterval) {
  const SlotInterval iv = SlotInterval::of(3, 3);
  EXPECT_EQ(iv.length(), 1);
  EXPECT_TRUE(iv.contains(Slot{3}));
  EXPECT_FALSE(iv.contains(Slot{2}));
}

TEST(SlotInterval, ContainsSlot) {
  const SlotInterval iv = SlotInterval::of(2, 5);
  EXPECT_FALSE(iv.contains(Slot{1}));
  EXPECT_TRUE(iv.contains(Slot{2}));
  EXPECT_TRUE(iv.contains(Slot{5}));
  EXPECT_FALSE(iv.contains(Slot{6}));
}

TEST(SlotInterval, ContainsIntervalIsReportLegality) {
  const SlotInterval active = SlotInterval::of(2, 5);
  EXPECT_TRUE(active.contains(SlotInterval::of(2, 5)));   // truthful
  EXPECT_TRUE(active.contains(SlotInterval::of(3, 4)));   // tighter
  EXPECT_FALSE(active.contains(SlotInterval::of(1, 5)));  // early arrival
  EXPECT_FALSE(active.contains(SlotInterval::of(2, 6)));  // late departure
}

TEST(SlotInterval, Intersect) {
  const SlotInterval a = SlotInterval::of(1, 4);
  const SlotInterval b = SlotInterval::of(3, 7);
  const auto inter = a.intersect(b);
  ASSERT_TRUE(inter.has_value());
  EXPECT_EQ(*inter, SlotInterval::of(3, 4));
  EXPECT_FALSE(a.intersect(SlotInterval::of(5, 9)).has_value());
  EXPECT_TRUE(a.intersect(SlotInterval::of(4, 9)).has_value());
}

TEST(SlotInterval, Streamable) {
  std::ostringstream os;
  os << SlotInterval::of(2, 5);
  EXPECT_EQ(os.str(), "[2,5]");
}

TEST(Contracts, ThrowWithContext) {
  try {
    MCS_EXPECTS(1 == 2, "numbers disagree");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("numbers disagree"), std::string::npos);
    EXPECT_NE(what.find("common_core_test.cpp"), std::string::npos);
  }
}

TEST(Contracts, PassingCheckIsSilent) {
  EXPECT_NO_THROW(MCS_ASSERT(2 + 2 == 4, "arithmetic"));
  EXPECT_NO_THROW(MCS_ENSURES(true, ""));
}

TEST(Errors, HierarchyCatchableAsBase) {
  EXPECT_THROW(throw InvalidScenarioError("x"), Error);
  EXPECT_THROW(throw SolverError("x"), Error);
  EXPECT_THROW(throw InvalidArgumentError("x"), Error);
  EXPECT_THROW(throw IoError("x"), Error);
}

TEST(Logging, RespectsLevelAndSink) {
  Logger& logger = Logger::instance();
  const LogLevel previous = logger.level();

  std::vector<std::string> captured;
  logger.set_sink([&](LogLevel, std::string_view message) {
    captured.emplace_back(message);
  });

  logger.set_level(LogLevel::kWarn);
  MCS_LOG_DEBUG("hidden " << 1);
  MCS_LOG_WARN("visible " << 2);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "visible 2");

  logger.set_level(LogLevel::kOff);
  MCS_LOG_ERROR("also hidden");
  EXPECT_EQ(captured.size(), 1u);

  // Restore defaults for other tests.
  logger.set_level(previous);
  logger.set_sink([](LogLevel, std::string_view) {});
}

TEST(Logging, LevelNames) {
  EXPECT_EQ(to_string(LogLevel::kDebug), "DEBUG");
  EXPECT_EQ(to_string(LogLevel::kInfo), "INFO");
  EXPECT_EQ(to_string(LogLevel::kWarn), "WARN");
  EXPECT_EQ(to_string(LogLevel::kError), "ERROR");
}

TEST(FlatIdSet, MatchesAReferenceSetThroughGrowth) {
  // Spread ids (every int is a valid key, the extremes included) and a
  // dense run, inserted twice so every second insert is a duplicate.
  std::vector<int> ids = {0, -1, std::numeric_limits<int>::min(),
                          std::numeric_limits<int>::max()};
  for (int i = 0; i < 5'000; ++i) ids.push_back(i * 7919 - 20'000'000);
  for (int i = 1; i < 5'000; ++i) ids.push_back(i);
  FlatIdSet set;
  std::unordered_set<int> reference;
  for (int pass = 0; pass < 2; ++pass) {
    for (const int id : ids) {
      EXPECT_EQ(set.insert(id), reference.insert(id).second) << id;
    }
  }
  EXPECT_EQ(set.size(), reference.size());
  for (const int id : ids) EXPECT_TRUE(set.contains(id)) << id;
  for (const int absent : {-2, 5'000, std::numeric_limits<int>::max() - 1}) {
    EXPECT_FALSE(set.contains(absent)) << absent;
  }
  EXPECT_FALSE(FlatIdSet{}.contains(0));
}

TEST(FlatIdSet, ClearEmptiesTheSetAndKeepsItsTable) {
  FlatIdSet set;
  for (int id = 0; id < 1'000; ++id) set.insert(id * 31);
  const std::size_t table_bytes = set.retained_bytes();
  ASSERT_GT(table_bytes, 0u);
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.retained_bytes(), table_bytes);
  for (int id = 0; id < 1'000; ++id) EXPECT_FALSE(set.contains(id * 31));
  // Refilled to the same size, the table does not grow.
  for (int id = 0; id < 1'000; ++id) EXPECT_TRUE(set.insert(id * 31 + 1));
  EXPECT_FALSE(set.insert(31 + 1));
  EXPECT_EQ(set.size(), 1'000u);
  EXPECT_EQ(set.retained_bytes(), table_bytes);
}

}  // namespace
}  // namespace mcs
