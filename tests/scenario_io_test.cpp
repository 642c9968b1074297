// Tests for scenario persistence: exact round-trips, format tolerance
// (comments, ordering), and precise parse-error reporting. Also covers
// Money::parse, the format's number parser.
#include "model/scenario_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <streambuf>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "model/paper_examples.hpp"
#include "model/workload.hpp"
#include "support/alloc_counter.hpp"

namespace mcs::model {
namespace {

Money mu(std::int64_t units) { return Money::from_units(units); }

// ------------------------------------------------------------ Money::parse

TEST(MoneyParse, RoundTripsToString) {
  for (const std::int64_t micros :
       {0LL, 1LL, 500000LL, 1000000LL, 25000000LL, -3500000LL, 123456789LL}) {
    const Money m = Money::from_micros(micros);
    EXPECT_EQ(Money::parse(m.to_string()), m) << m.to_string();
  }
}

TEST(MoneyParse, AcceptsCommonForms) {
  EXPECT_EQ(Money::parse("25"), mu(25));
  EXPECT_EQ(Money::parse("-3.5"), Money::from_micros(-3'500'000));
  EXPECT_EQ(Money::parse("+2"), mu(2));
  EXPECT_EQ(Money::parse("0.000001"), Money::from_micros(1));
}

TEST(MoneyParse, RejectsMalformedInput) {
  for (const char* bad :
       {"", "abc", "1.", ".5", "1.0000001", "1 2", "--1", "1e3", "12x",
        "+", "-", "+-1", "1.2.3"}) {
    EXPECT_THROW(std::ignore = Money::parse(bad), InvalidArgumentError) << bad;
  }
}

TEST(MoneyParse, EnforcesTheMaxEnvelopeExactly) {
  // max() is the solvers' +infinity sentinel; parse must never produce an
  // amount outside [-max(), max()]. The boundary is micro-exact: the
  // fractional digits used to leak past the whole-part overflow guard.
  const Money max = Money::max();
  EXPECT_EQ(Money::parse(max.to_string()), max);
  EXPECT_EQ(Money::parse((-max).to_string()), -max);
  const Money one_below = max - Money::from_micros(1);
  EXPECT_EQ(Money::parse(one_below.to_string()), one_below);
  // One micro past the cap, same digit count: must be rejected, not
  // silently accepted beyond the envelope (and never UB).
  const std::int64_t whole = max.micros() / Money::kScale;
  EXPECT_THROW(
      std::ignore = Money::parse(std::to_string(whole) + ".999999"),
      InvalidArgumentError);
  EXPECT_THROW(
      std::ignore = Money::parse("-" + std::to_string(whole) + ".999999"),
      InvalidArgumentError);
  // Far past the cap (INT64_MAX-scale whole parts).
  EXPECT_THROW(std::ignore = Money::parse("9223372036854775807"),
               InvalidArgumentError);
  EXPECT_THROW(std::ignore = Money::parse("-9223372036854775808"),
               InvalidArgumentError);
}

TEST(MoneyParse, SignEdgeCases) {
  // A leading '+' is accepted (human-written scenario files) but never
  // emitted: the canonical rendering strips it, so a canonical stream
  // re-encodes byte-identically.
  EXPECT_EQ(Money::parse("+0.5"), Money::from_micros(500'000));
  EXPECT_EQ(Money::parse("+0.5").to_string(), "0.5");
  // "-0" variants normalize to exact zero (no negative-zero state).
  EXPECT_EQ(Money::parse("-0"), Money{});
  EXPECT_EQ(Money::parse("-0.000000"), Money{});
  EXPECT_FALSE(Money::parse("-0").is_negative());
}

// ------------------------------------------------------------ round trips

TEST(ScenarioIo, RoundTripsFig4Exactly) {
  const Scenario original = fig4_scenario();
  std::stringstream buffer;
  write_scenario(buffer, original);
  const Scenario loaded = read_scenario(buffer);

  EXPECT_EQ(loaded.num_slots, original.num_slots);
  EXPECT_EQ(loaded.task_value, original.task_value);
  ASSERT_EQ(loaded.phones.size(), original.phones.size());
  for (std::size_t i = 0; i < original.phones.size(); ++i) {
    EXPECT_EQ(loaded.phones[i], original.phones[i]) << "phone " << i;
  }
  ASSERT_EQ(loaded.tasks.size(), original.tasks.size());
  for (std::size_t t = 0; t < original.tasks.size(); ++t) {
    EXPECT_EQ(loaded.tasks[t], original.tasks[t]) << "task " << t;
  }
}

TEST(ScenarioIo, RoundTripsWeightedTasksAndFractionalCosts) {
  Scenario original = ScenarioBuilder(3)
                          .value(20)
                          .valued_task(2, 35)
                          .task(1)
                          .phone(1, 3, 4)
                          .build();
  original.phones[0].cost = Money::from_micros(4'250'000);  // 4.25
  original.validate();

  std::stringstream buffer;
  write_scenario(buffer, original);
  const Scenario loaded = read_scenario(buffer);
  EXPECT_EQ(loaded.phones[0].cost, Money::from_micros(4'250'000));
  EXPECT_EQ(loaded.value_of(TaskId{1}), mu(35));  // slot-2 task sorted second
  EXPECT_EQ(loaded.value_of(TaskId{0}), mu(20));
}

TEST(ScenarioIo, RoundTripsGeneratedWorkload) {
  Rng rng(12);
  WorkloadConfig workload;
  workload.num_slots = 15;
  const Scenario original = generate_scenario(workload, rng);
  std::stringstream buffer;
  write_scenario(buffer, original);
  const Scenario loaded = read_scenario(buffer);
  EXPECT_EQ(loaded.phone_count(), original.phone_count());
  EXPECT_EQ(loaded.task_count(), original.task_count());
  for (int i = 0; i < original.phone_count(); ++i) {
    EXPECT_EQ(loaded.phone(PhoneId{i}), original.phone(PhoneId{i}));
  }
}

TEST(ScenarioIo, FileSaveAndLoad) {
  const std::string path = ::testing::TempDir() + "/mcs_scenario_test.mcs";
  const Scenario original = fig4_scenario();
  save_scenario(path, original);
  const Scenario loaded = load_scenario(path);
  EXPECT_EQ(loaded.phone_count(), 7);
  EXPECT_EQ(loaded.task_count(), 5);
  std::remove(path.c_str());
}

TEST(ScenarioIo, FileErrorsThrowIoError) {
  EXPECT_THROW(std::ignore = load_scenario("/nonexistent/path.mcs"), IoError);
  EXPECT_THROW(save_scenario("/nonexistent-dir/x.mcs", fig4_scenario()),
               IoError);
}

// ----------------------------------------------------------- format rules

TEST(ScenarioIo, ToleratesCommentsBlankLinesAndTaskOrder) {
  std::istringstream input(R"(
mcs-scenario v1
# a campaign
slots 4

value 10
task 3            # out of order on purpose
phone 1 4 2.5
task 1 value 12
)");
  const Scenario s = read_scenario(input);
  EXPECT_EQ(s.num_slots, 4);
  EXPECT_EQ(s.phone_count(), 1);
  ASSERT_EQ(s.task_count(), 2);
  // Sorted by slot with dense ids; the weighted one arrived in slot 1.
  EXPECT_EQ(s.tasks[0].slot, Slot{1});
  EXPECT_EQ(s.value_of(TaskId{0}), mu(12));
  EXPECT_EQ(s.tasks[1].slot, Slot{3});
}

TEST(ScenarioIo, ParseErrorsNameTheLine) {
  const auto expect_error_at = [](const std::string& text, const char* needle,
                                  int line) {
    std::istringstream input(text);
    try {
      std::ignore = read_scenario(input);
      FAIL() << "expected parse error for: " << text;
    } catch (const InvalidScenarioError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(needle), std::string::npos) << what;
      EXPECT_NE(what.find("line " + std::to_string(line)), std::string::npos)
          << what;
    }
  };

  expect_error_at("garbage\n", "header", 1);
  expect_error_at("mcs-scenario v1\nslots x\n", "expected integer", 2);
  expect_error_at("mcs-scenario v1\nslots 3\nphone 1 2\n", "phone takes", 3);
  expect_error_at("mcs-scenario v1\nslots 3\nphone 2 1 5\n", "inverted", 3);
  expect_error_at("mcs-scenario v1\nslots 3\ntask 1 value abc\n",
                  "expected amount", 3);
  expect_error_at("mcs-scenario v1\nslots 3\nfrobnicate 1\n",
                  "unknown keyword", 3);
  // Slot fields beyond int32 are rejected, not narrowed: 4294967297 =
  // 2^32 + 1 must not load as a valid one-slot round.
  expect_error_at("mcs-scenario v1\nslots 4294967297\ntask 1\n",
                  "slots out of range", 2);
  expect_error_at("mcs-scenario v1\nslots 2147483648\n",
                  "slots out of range", 2);
  expect_error_at("mcs-scenario v1\nslots 1\ntask 4294967297\n",
                  "task slot out of range", 3);
  expect_error_at("mcs-scenario v1\nslots 1\nphone 4294967297 1 3\n",
                  "phone begin out of range", 3);
  expect_error_at("mcs-scenario v1\nslots 1\nphone 1 -4294967295 3\n",
                  "phone end out of range", 3);
}

TEST(ScenarioIo, MissingPiecesAreRejected) {
  {
    std::istringstream input("");
    EXPECT_THROW(std::ignore = read_scenario(input), InvalidScenarioError);
  }
  {
    std::istringstream input("mcs-scenario v1\nvalue 5\n");
    EXPECT_THROW(std::ignore = read_scenario(input), InvalidScenarioError);
  }
}

TEST(ScenarioIo, FuzzedInputNeverCrashes) {
  // Random byte soup and random mutations of a valid file: the parser must
  // either produce a valid scenario or throw a library error -- never
  // crash or accept garbage silently.
  Rng rng(424242);
  std::stringstream valid;
  write_scenario(valid, fig4_scenario());
  const std::string valid_text = valid.str();

  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    if (trial % 2 == 0) {
      // Pure noise.
      const auto length = static_cast<std::size_t>(rng.uniform_int(0, 120));
      for (std::size_t k = 0; k < length; ++k) {
        text.push_back(static_cast<char>(rng.uniform_int(9, 126)));
      }
    } else {
      // Mutate a valid file: flip a few characters.
      text = valid_text;
      const auto flips = static_cast<int>(rng.uniform_int(1, 6));
      for (int f = 0; f < flips && !text.empty(); ++f) {
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
        text[pos] = static_cast<char>(rng.uniform_int(32, 126));
      }
    }
    std::istringstream input(text);
    try {
      const Scenario s = read_scenario(input);
      EXPECT_NO_THROW(s.validate()) << "trial " << trial;
    } catch (const Error&) {
      // Expected for malformed input.
    }
  }
}

/// The parse error read_scenario raises for `text`, or "" if it parses.
std::string parse_error_of(const std::string& text) {
  std::istringstream input(text);
  try {
    std::ignore = read_scenario(input);
  } catch (const InvalidScenarioError& e) {
    return e.what();
  }
  return "";
}

TEST(ScenarioIo, ALineAtTheCapIsReadAndOneByteMoreIsRefused) {
  const std::string head = "mcs-scenario v1\nslots 2\n";
  // "task 1 #xx..." padded by its comment to `bytes` bytes.
  const auto task_line = [](std::size_t bytes) {
    std::string line = "task 1 #";
    line.resize(bytes, 'x');
    return line;
  };
  const std::string refused =
      "scenario parse error at line 3: longer than 4096 bytes";
  for (const char* end : {"\n", ""}) {
    SCOPED_TRACE(*end == '\n' ? "with its newline" : "ending the input");
    EXPECT_EQ(parse_error_of(head + task_line(kMaxScenarioLineBytes) + end),
              "");
    EXPECT_EQ(parse_error_of(head + task_line(kMaxScenarioLineBytes + 1) + end),
              refused);
  }
  // The line after one at the cap is read whole.
  std::istringstream input(head + task_line(kMaxScenarioLineBytes) +
                           "\ntask 2\n");
  EXPECT_EQ(read_scenario(input).task_count(), 2);
}

/// Serves `size` bytes of 'x' without a newline, 64 KiB at a time, from
/// one buffer: an arbitrarily long line that costs the test no memory.
class EndlessLine : public std::streambuf {
 public:
  explicit EndlessLine(std::size_t size) : left_(size) {}
  [[nodiscard]] std::size_t served() const { return served_; }

 protected:
  int_type underflow() override {
    if (left_ == 0) return traits_type::eof();
    const std::size_t take = std::min(left_, chunk_.size());
    left_ -= take;
    served_ += take;
    setg(chunk_.data(), chunk_.data(), chunk_.data() + take);
    return traits_type::to_int_type(chunk_[0]);
  }

 private:
  std::string chunk_ = std::string(std::size_t{1} << 16, 'x');
  std::size_t left_;
  std::size_t served_{0};
};

TEST(ScenarioIo, AnOverlongLineFailsAtTheCapWithoutBuffering) {
  EndlessLine line(std::size_t{32} << 20);
  std::istream input(&line);
  std::string error;
  const std::uint64_t before = test::heap_bytes();
  std::uint64_t heap = 0;
  try {
    std::ignore = read_scenario(input);
  } catch (const InvalidScenarioError& e) {
    heap = test::heap_bytes() - before;
    error = e.what();
  }
  EXPECT_EQ(error, "scenario parse error at line 1: longer than 4096 bytes");
  // Refused within the first 64 KiB read, holding no copy of the line.
  EXPECT_EQ(line.served(), std::size_t{1} << 16);
  EXPECT_LT(heap, 3 * kMaxScenarioLineBytes);
}

TEST(ScenarioIo, LoadedScenarioIsValidated) {
  // Structurally parseable but semantically invalid (task outside round).
  std::istringstream input("mcs-scenario v1\nslots 2\ntask 5\n");
  EXPECT_THROW(std::ignore = read_scenario(input), InvalidScenarioError);
}

}  // namespace
}  // namespace mcs::model
