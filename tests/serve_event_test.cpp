// Wire-format tests for the mcs.serve.v1 JSONL event stream: golden
// encodings, lossless encode/decode round-trips (Money travels as exact
// decimal strings), and strict rejection of malformed or out-of-domain
// lines -- the stream is untrusted input.
#include "serve/event.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "model/bid.hpp"
#include "serve/wire.hpp"

namespace mcs::serve {
namespace {

model::Bid bid(int from, int to, double cost) {
  return model::Bid{SlotInterval::of(from, to), Money::from_double(cost)};
}

// ----------------------------------------------------------- golden lines

TEST(ServeWire, GoldenEncodings) {
  EXPECT_EQ(encode_serve_event(round_open(0, 12, Money::from_units(30))),
            R"({"ev":"round_open","round":0,"slots":12,"value":"30"})");
  EXPECT_EQ(encode_serve_event(task_arrived(0, Slot{1}, TaskId{0})),
            R"({"ev":"task_arrived","round":0,"slot":1,"task":0})");
  EXPECT_EQ(
      encode_serve_event(task_arrived(2, Slot{3}, TaskId{4},
                                      Money::from_double(2.5))),
      R"({"ev":"task_arrived","round":2,"slot":3,"task":4,"value":"2.5"})");
  EXPECT_EQ(
      encode_serve_event(bid_submitted(0, PhoneId{3}, bid(1, 4, 7.5))),
      R"({"ev":"bid_submitted","round":0,"agent":3,"from":1,"to":4,"cost":"7.5"})");
  EXPECT_EQ(encode_serve_event(slot_tick(0, Slot{1})),
            R"({"ev":"slot_tick","round":0,"slot":1})");
  EXPECT_EQ(encode_serve_event(round_close(7)),
            R"({"ev":"round_close","round":7})");
}

TEST(ServeWire, HeaderLine) {
  std::ostringstream os;
  write_stream_header(os);
  EXPECT_EQ(os.str(), "{\"schema\":\"mcs.serve.v1\"}\n");
  // Decoding the header yields "no event" rather than an error.
  EXPECT_EQ(decode_serve_line(R"({"schema":"mcs.serve.v1"})"), std::nullopt);
}

// ------------------------------------------------------------- round trip

TEST(ServeWire, EncodeDecodeRoundTripsEveryKind) {
  const std::vector<ServeEvent> events = {
      round_open(5, 50, Money::from_double(12.25)),
      task_arrived(5, Slot{2}, TaskId{1}),
      task_arrived(5, Slot{2}, TaskId{2}, Money::from_double(0.75)),
      bid_submitted(5, PhoneId{0}, bid(2, 9, 3.141592)),
      slot_tick(5, Slot{2}),
      round_close(5),
  };
  for (const ServeEvent& event : events) {
    const auto decoded = decode_serve_line(encode_serve_event(event));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, event) << encode_serve_event(event);
    // And the re-encoding is byte-identical (replay determinism).
    EXPECT_EQ(encode_serve_event(*decoded), encode_serve_event(event));
  }
}

TEST(ServeWire, MoneyTravelsExactly) {
  // Sub-cent micro amounts survive: no doubles on the wire.
  const Money cost = Money::from_micros(1234567);
  const ServeEvent event =
      bid_submitted(0, PhoneId{1}, model::Bid{SlotInterval::of(1, 2), cost});
  const auto decoded = decode_serve_line(encode_serve_event(event));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->claimed_cost.micros(), cost.micros());
  EXPECT_EQ(bid_of(*decoded).claimed_cost, cost);
}

TEST(ServeWire, WriteEventStreamStartsWithHeader) {
  std::ostringstream os;
  StreamWriter writer(WireFormat::kJsonl, os);
  writer.write(round_open(0, 3, Money::from_units(10)));
  writer.write(round_close(0));
  writer.flush();
  std::istringstream is(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(decode_serve_line(line), std::nullopt);  // header
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(decode_serve_line(line), round_open(0, 3, Money::from_units(10)));
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(decode_serve_line(line), round_close(0));
  EXPECT_FALSE(std::getline(is, line));
}

// -------------------------------------------------------- malformed input

TEST(ServeWire, RejectsMalformedLines) {
  const std::vector<std::string> bad = {
      // not JSON at all
      "round_open 0",
      // truncated JSON
      R"({"ev":"round_open","round":0,)",
      // unknown discriminator
      R"({"ev":"round_reopen","round":0})",
      // missing discriminator
      R"({"round":0,"slots":3,"value":"1"})",
      // missing required field (round)
      R"({"ev":"slot_tick","slot":1})",
      // mistyped field (string where integer expected)
      R"({"ev":"slot_tick","round":"zero","slot":1})",
      // fractional integer field
      R"({"ev":"slot_tick","round":0,"slot":1.5})",
      // malformed money string
      R"({"ev":"round_open","round":0,"slots":3,"value":"ten"})",
      // money as JSON number instead of exact string
      R"({"ev":"round_open","round":0,"slots":3,"value":10})",
      // out of domain: non-positive horizon
      R"({"ev":"round_open","round":0,"slots":0,"value":"1"})",
      // out of domain: negative ids
      R"({"ev":"task_arrived","round":0,"slot":1,"task":-1})",
      R"({"ev":"bid_submitted","round":0,"agent":-2,"from":1,"to":2,"cost":"1"})",
      // out of domain: inverted bid window
      R"({"ev":"bid_submitted","round":0,"agent":0,"from":4,"to":2,"cost":"1"})",
      // wrong schema header
      R"({"schema":"mcs.serve.v2"})",
      // int32 overflow: 2^32+1 would silently truncate to 1 if narrowed
      R"({"ev":"round_open","round":0,"slots":4294967297,"value":"1"})",
      R"({"ev":"slot_tick","round":0,"slot":4294967297})",
      R"({"ev":"task_arrived","round":0,"slot":1,"task":4294967297})",
      R"({"ev":"bid_submitted","round":0,"agent":4294967297,"from":1,"to":2,"cost":"1"})",
      R"({"ev":"bid_submitted","round":0,"agent":0,"from":1,"to":4294967297,"cost":"1"})",
      // round id beyond exact-double range (2^53): both codecs reject
      R"({"ev":"round_close","round":9007199254740992})",
      // negative cost
      R"({"ev":"bid_submitted","round":0,"agent":0,"from":1,"to":2,"cost":"-1"})",
      // Money beyond the max() envelope (fraction pushes past the cap)
      R"({"ev":"round_open","round":0,"slots":3,"value":"2305843009213.999999"})",
      // duplicate field (the JSON layer rejects; binary frames must too)
      R"({"ev":"slot_tick","round":0,"round":1,"slot":1})",
      // truncated mid-string
      R"({"ev":"slot_tick","round":0,"slot)",
  };
  for (const std::string& line : bad) {
    EXPECT_THROW((void)decode_serve_line(line), InvalidArgumentError) << line;
  }
}

TEST(ServeWire, KindNamesRoundTripThroughToString) {
  for (const ServeEventKind kind :
       {ServeEventKind::kRoundOpen, ServeEventKind::kTaskArrived,
        ServeEventKind::kBidSubmitted, ServeEventKind::kSlotTick,
        ServeEventKind::kRoundClose}) {
    EXPECT_FALSE(to_string(kind).empty());
  }
}

}  // namespace
}  // namespace mcs::serve
