// Binary wire codec (mcs.serve.b1) tests: golden frame bytes, lossless
// round trips, strict rejection of malformed frames, chunked incremental
// decoding, JSONL<->binary transcoding, and two fuzz suites -- a
// mutation/truncation fuzz mirroring json_parse_fuzz, and a differential
// fuzz pinning that the binary and JSONL decoders accept or reject the
// same logical events with zero divergence; plus the JSONL line decoder
// against its tree-walking oracle, on pinned edge lines and on mutated
// canonical lines, and StreamDecoder against the same oracle on runs of
// mutated lines cut at random points. Iteration counts scale with
// MCS_WIRE_FUZZ_ITERS (the CI smoke job runs 100k).
#include "serve/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "model/bid.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "serve/replay.hpp"
#include "serve/socket.hpp"
#include "support/alloc_counter.hpp"
#include "support/serve_event_oracle.hpp"

namespace mcs::serve {
namespace {

std::int64_t fuzz_iters(std::int64_t fallback) {
  if (const char* env = std::getenv("MCS_WIRE_FUZZ_ITERS")) {
    return std::max<std::int64_t>(1, std::atoll(env));
  }
  return fallback;
}

model::Bid bid(int from, int to, double cost) {
  return model::Bid{SlotInterval::of(from, to), Money::from_double(cost)};
}

// Little-endian builders for hand-crafting raw (possibly malformed) frames.
std::string le32(std::int64_t v) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((static_cast<std::uint64_t>(v) >> (8 * i)) &
                                    0xFF));
  }
  return out;
}

std::string le64(std::int64_t v) {
  std::string out;
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((static_cast<std::uint64_t>(v) >> (8 * i)) &
                                    0xFF));
  }
  return out;
}

std::string frame(const std::string& payload) {
  return le32(static_cast<std::int64_t>(payload.size())) + payload;
}

std::string header_bytes() {
  std::string out;
  append_wire_header(out);
  return out;
}

/// One event's frame bytes, length prefix included.
std::string wire_frame(const ServeEvent& event) {
  std::string out;
  append_wire_frame(out, event);
  return out;
}

/// Decodes exactly one complete frame or throws.
ServeEvent decode_one(const std::string& bytes) {
  const auto decoded = decode_wire_frame(bytes);
  if (!decoded) throw InvalidArgumentError("incomplete frame in test");
  EXPECT_EQ(decoded->consumed, bytes.size());
  return decoded->event;
}

const std::vector<ServeEvent>& every_kind() {
  static const std::vector<ServeEvent> events = {
      round_open(5, 50, Money::from_double(12.25)),
      task_arrived(5, Slot{2}, TaskId{1}),
      task_arrived(5, Slot{2}, TaskId{2}, Money::from_double(0.75)),
      bid_submitted(5, PhoneId{0}, bid(2, 9, 3.141592)),
      slot_tick(5, Slot{2}),
      round_close(5),
  };
  return events;
}

// ----------------------------------------------------------- golden bytes

TEST(WireCodec, GoldenHeader) {
  EXPECT_EQ(header_bytes(), std::string("MCSB\x01\x00\x00\x00", 8));
}

TEST(WireCodec, GoldenFrames) {
  // round_open(0, 12, "30"): kind 0, round 0, slots 12, 30'000'000 micros.
  EXPECT_EQ(wire_frame(round_open(0, 12, Money::from_units(30))),
            frame(std::string(1, '\0') + le64(0) + le32(12) + le64(30000000)));
  // task_arrived without a value: has_value byte 0, no trailing micros.
  EXPECT_EQ(wire_frame(task_arrived(0, Slot{1}, TaskId{0})),
            frame(std::string(1, '\1') + le64(0) + le32(1) + le32(0) +
                  std::string(1, '\0')));
  EXPECT_EQ(
      wire_frame(
          task_arrived(2, Slot{3}, TaskId{4}, Money::from_double(2.5))),
      frame(std::string(1, '\1') + le64(2) + le32(3) + le32(4) +
            std::string(1, '\1') + le64(2500000)));
  EXPECT_EQ(wire_frame(bid_submitted(0, PhoneId{3}, bid(1, 4, 7.5))),
            frame(std::string(1, '\2') + le64(0) + le32(3) + le32(1) +
                  le32(4) + le64(7500000)));
  EXPECT_EQ(wire_frame(slot_tick(0, Slot{1})),
            frame(std::string(1, '\3') + le64(0) + le32(1)));
  EXPECT_EQ(wire_frame(round_close(7)),
            frame(std::string(1, '\4') + le64(7)));
}

// ------------------------------------------------------------- round trip

TEST(WireCodec, EncodeDecodeRoundTripsEveryKind) {
  for (const ServeEvent& event : every_kind()) {
    const std::string bytes = wire_frame(event);
    EXPECT_LE(bytes.size(), 4 + kMaxWireFrameBytes);
    EXPECT_EQ(decode_one(bytes), event) << encode_serve_event(event);
  }
}

TEST(WireCodec, MoneyExtremesTravelExactly) {
  const std::vector<Money> amounts = {
      Money::from_micros(1),           Money::from_micros(-1),
      Money::max(),                    -Money::max(),
      Money::from_micros(1234567),     Money{},
  };
  for (const Money amount : amounts) {
    const ServeEvent event = round_open(0, 1, amount);
    EXPECT_EQ(decode_one(wire_frame(event)).round_value.micros(),
              amount.micros());
  }
}

TEST(WireCodec, RoundIdBoundsAreExact) {
  EXPECT_EQ(decode_one(wire_frame(round_close(kMaxServeRound))).round,
            kMaxServeRound);
  EXPECT_THROW(decode_one(frame(std::string(1, '\4') +
                                le64(kMaxServeRound + 1))),
               InvalidArgumentError);
  EXPECT_THROW(decode_one(frame(std::string(1, '\4') + le64(-1))),
               InvalidArgumentError);
}

// -------------------------------------------------------- malformed input

TEST(WireCodec, HeaderRejectsWrongMagicVersionFlags) {
  EXPECT_THROW((void)decode_wire_header("XCSB\x01\x00\x00\x00"),
               InvalidArgumentError);
  EXPECT_THROW((void)decode_wire_header(std::string("MCSB\x02\x00\x00\x00", 8)),
               InvalidArgumentError);
  EXPECT_THROW((void)decode_wire_header(std::string("MCSB\x01\x00\x01\x00", 8)),
               InvalidArgumentError);
  // A proper prefix of a valid header asks for more bytes.
  EXPECT_EQ(decode_wire_header(std::string("MCS", 3)), std::nullopt);
  EXPECT_EQ(decode_wire_header(std::string("MCSB\x01", 5)), std::nullopt);
  // ...but a prefix that already contradicts the magic fails immediately.
  EXPECT_THROW((void)decode_wire_header(std::string("MX", 2)),
               InvalidArgumentError);
  EXPECT_EQ(decode_wire_header(header_bytes()), kWireHeaderBytes);
}

TEST(WireCodec, RejectsMalformedFrames) {
  const std::vector<std::string> bad = {
      // zero-length frame (no kind byte)
      le32(0),
      // hostile length beyond the frame cap
      le32(65) + std::string(65, '\0'),
      le32(1 << 30),
      // unknown kind
      frame(std::string(1, '\5') + le64(0)),
      frame(std::string(1, '\xff') + le64(0)),
      // wrong length for the kind (round_close with a trailing byte)
      frame(std::string(1, '\4') + le64(0) + std::string(1, '\0')),
      // slot_tick one byte short of its layout
      frame(std::string(1, '\3') + le64(0) + le32(1).substr(0, 3)),
      // domain: slots < 1
      frame(std::string(1, '\0') + le64(0) + le32(0) + le64(1)),
      // domain: slot < 1
      frame(std::string(1, '\3') + le64(0) + le32(0)),
      // domain: negative task id
      frame(std::string(1, '\1') + le64(0) + le32(1) + le32(-1) +
            std::string(1, '\0')),
      // domain: negative agent id
      frame(std::string(1, '\2') + le64(0) + le32(-2) + le32(1) + le32(2) +
            le64(0)),
      // domain: window begins before slot 1
      frame(std::string(1, '\2') + le64(0) + le32(0) + le32(0) + le32(2) +
            le64(0)),
      // domain: inverted window
      frame(std::string(1, '\2') + le64(0) + le32(0) + le32(4) + le32(2) +
            le64(0)),
      // domain: negative cost
      frame(std::string(1, '\2') + le64(0) + le32(0) + le32(1) + le32(2) +
            le64(-1)),
      // Money outside the +/-max() envelope
      frame(std::string(1, '\0') + le64(0) + le32(1) +
            le64(Money::max().micros() + 1)),
      frame(std::string(1, '\0') + le64(0) + le32(1) +
            le64(std::numeric_limits<std::int64_t>::min())),
      // has_value flag neither 0 nor 1
      frame(std::string(1, '\1') + le64(0) + le32(1) + le32(0) +
            std::string(1, '\2')),
      // has_value=0 but a value payload present (flag/length contradiction)
      frame(std::string(1, '\1') + le64(0) + le32(1) + le32(0) +
            std::string(1, '\0') + le64(5)),
      // has_value=1 but no value payload
      frame(std::string(1, '\1') + le64(0) + le32(1) + le32(0) +
            std::string(1, '\1')),
  };
  for (const std::string& bytes : bad) {
    EXPECT_THROW((void)decode_one(bytes), InvalidArgumentError)
        << "frame of " << bytes.size() << " bytes accepted";
  }
}

TEST(WireCodec, EveryTruncationAsksForMoreBytesNotGarbage) {
  // A strict prefix of a valid frame is "incomplete", never an event and
  // never UB -- except prefixes shorter than the length word are also just
  // incomplete. Mirrors json_parse_fuzz's EveryTruncationFailsCleanly.
  for (const ServeEvent& event : every_kind()) {
    const std::string bytes = wire_frame(event);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_EQ(decode_wire_frame(bytes.substr(0, len)), std::nullopt)
          << "prefix of length " << len;
    }
  }
}

// ---------------------------------------------------- incremental decoding

TEST(WireDecoderTest, OneByteAtATimeFeedsDecodeTheFullStream) {
  std::string stream = header_bytes();
  for (const ServeEvent& event : every_kind()) {
    append_wire_frame(stream, event);
  }
  WireDecoder decoder;
  std::vector<ServeEvent> got;
  std::int64_t decoded = 0;
  for (char byte : stream) {
    decoded += decoder.feed(std::string_view(&byte, 1),
                            [&](const ServeEvent& event) {
                              got.push_back(event);
                            });
  }
  EXPECT_TRUE(decoder.idle());
  EXPECT_TRUE(decoder.header_seen());
  EXPECT_EQ(decoded, static_cast<std::int64_t>(every_kind().size()));
  EXPECT_EQ(got, every_kind());
}

TEST(WireDecoderTest, BidAfterAWeightedTaskCarriesNoTaskValue) {
  // The decoder reuses one event for every frame: a bid decoded after a
  // weighted task_arrived must not inherit the task's value (or any other
  // field), whether the frames arrive byte by byte or in one chunk.
  const ServeEvent task = task_arrived(4, Slot{2}, TaskId{0},
                                       Money::from_double(12.5));
  const ServeEvent bid_event = bid_submitted(4, PhoneId{3}, bid(2, 5, 7.25));
  std::string stream = header_bytes();
  append_wire_frame(stream, task);
  append_wire_frame(stream, bid_event);
  const std::optional<ServeEvent> jsonl =
      decode_serve_line(encode_serve_event(bid_event));
  ASSERT_TRUE(jsonl.has_value());
  for (const std::size_t chunk : {std::size_t{1}, stream.size()}) {
    WireDecoder decoder;
    std::vector<ServeEvent> got;
    for (std::size_t at = 0; at < stream.size(); at += chunk) {
      decoder.feed(std::string_view(stream).substr(at, chunk),
                   [&](const ServeEvent& event) { got.push_back(event); });
    }
    ASSERT_EQ(got.size(), 2u) << "chunk " << chunk;
    EXPECT_EQ(got[0], task);
    EXPECT_EQ(got[1].task_value, std::nullopt) << "chunk " << chunk;
    EXPECT_EQ(got[1], *jsonl) << "chunk " << chunk;
    EXPECT_EQ(got[1], bid_event) << "chunk " << chunk;
  }
}

TEST(WireDecoderTest, PoisonsAfterMalformedInput) {
  WireDecoder decoder;
  const auto sink = [](const ServeEvent&) {};
  std::string stream = header_bytes();
  append_wire_frame(stream, round_close(0));
  EXPECT_EQ(decoder.feed(stream, sink), 1);
  EXPECT_THROW(decoder.feed(frame(std::string(1, '\7') + le64(0)), sink),
               InvalidArgumentError);
  // Even valid bytes are refused now: the stream is corrupt.
  EXPECT_THROW(decoder.feed(wire_frame(round_close(1)), sink),
               InvalidArgumentError);
  EXPECT_FALSE(decoder.idle());
}

TEST(WireDecoderTest, MissingHeaderIsRejected) {
  WireDecoder decoder;
  EXPECT_THROW(decoder.feed(wire_frame(round_close(0)),
                            [](const ServeEvent&) {}),
               InvalidArgumentError);
}

// ------------------------------------------------------------- transcoding

TEST(WireTranscode, JsonlToBinaryToJsonlIsByteExact) {
  LoadGenConfig config;
  config.rounds = 6;
  config.seed = 2024;
  std::ostringstream jsonl;
  const std::int64_t events = write_event_stream(jsonl, config);
  ASSERT_GT(events, 0);

  std::istringstream in1(jsonl.str());
  std::ostringstream binary;
  EXPECT_EQ(transcode_serve_stream(in1, binary, WireFormat::kBinary), events);
  EXPECT_EQ(binary.str().compare(0, 4, "MCSB"), 0);
  // The binary stream is materially smaller than its JSONL source.
  EXPECT_LT(binary.str().size(), jsonl.str().size() / 2);

  std::istringstream in2(binary.str());
  std::ostringstream back;
  EXPECT_EQ(transcode_serve_stream(in2, back, WireFormat::kJsonl), events);
  EXPECT_EQ(back.str(), jsonl.str());
}

TEST(WireTranscode, DetectsFormatWithoutConsumingBytes) {
  std::istringstream binary(header_bytes());
  EXPECT_EQ(detect_stream_format(binary), WireFormat::kBinary);
  EXPECT_EQ(binary.get(), 'M');  // stream still at the start

  std::istringstream jsonl("{\"schema\":\"mcs.serve.v1\"}\n");
  EXPECT_EQ(detect_stream_format(jsonl), WireFormat::kJsonl);
  EXPECT_EQ(jsonl.get(), '{');
}

TEST(WireTranscode, ReadServeStreamReportsTruncation) {
  std::string stream = header_bytes();
  append_wire_frame(stream, round_close(0));
  stream.pop_back();  // drop the final byte: the last frame is truncated
  std::istringstream is(stream);
  EXPECT_THROW(
      read_serve_stream(is, [](const ServeEvent&) {}),
      InvalidArgumentError);
}

TEST(WireTranscode, ReadServeStreamNamesTheFailingLine) {
  std::istringstream is(
      "{\"schema\":\"mcs.serve.v1\"}\n{\"ev\":\"round_close\",\"round\":0}\nnot json\n");
  try {
    read_serve_stream(is, [](const ServeEvent&) {});
    FAIL() << "malformed line accepted";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------------ mutation fuzz

TEST(WireFuzz, SeededMutationsNeverCrashTheDecoder) {
  // Mirror of JsonParseFuzz.SeededByteMutationsNeverCrash for the binary
  // path: flip bytes / truncate a valid stream, then decode. Every outcome
  // must be "decoded fine" or InvalidArgumentError -- the sanitizer jobs
  // turn any overread or UB into a failure.
  std::string stream = header_bytes();
  for (const ServeEvent& event : every_kind()) {
    append_wire_frame(stream, event);
  }
  std::mt19937_64 rng(20260809);
  const std::int64_t iters = fuzz_iters(4000);
  std::int64_t rejected = 0;
  for (std::int64_t i = 0; i < iters; ++i) {
    std::string mutated = stream;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      mutated[rng() % mutated.size()] ^=
          static_cast<char>(1 << (rng() % 8));
    }
    if (rng() % 4 == 0) mutated.resize(rng() % (mutated.size() + 1));
    WireDecoder decoder;
    try {
      decoder.feed(mutated, [](const ServeEvent&) {});
      if (!decoder.idle() || !decoder.header_seen()) ++rejected;
    } catch (const InvalidArgumentError&) {
      ++rejected;
    }
  }
  // Most random corruptions must be caught (magic, kinds, lengths, and
  // domains are all checked); a mutation in a Money field can legally
  // survive.
  EXPECT_GT(rejected, iters / 2);
}

// ---------------------------------------------------------- differential

/// One logical event drawn with adversarial field values, rendered both as
/// a JSONL line and as a binary frame carrying exactly the same values.
struct DrawnEvent {
  std::string jsonl;
  std::string binary;  ///< frame bytes (no stream header)
};

std::string render_micros(std::int64_t micros) {
  const bool negative = micros < 0;
  // Two's-complement-safe magnitude (INT64_MIN negates cleanly unsigned).
  const auto magnitude =
      negative ? 0ULL - static_cast<unsigned long long>(micros)
               : static_cast<unsigned long long>(micros);
  char fraction[8];
  std::snprintf(fraction, sizeof fraction, "%06llu", magnitude % 1000000ULL);
  return (negative ? "-" : "") + std::to_string(magnitude / 1000000ULL) +
         "." + fraction;
}

DrawnEvent draw_event(std::mt19937_64& rng) {
  // Edge-biased draws. i32 fields stay inside int32 (the binary wire
  // cannot even express wider values; the JSONL-side wide-value rejection
  // has its own test in serve_event_test).
  const auto pick = [&rng](const std::vector<std::int64_t>& edges) {
    if (rng() % 2 == 0) return edges[rng() % edges.size()];
    return static_cast<std::int64_t>(rng() % 7) - 1;
  };
  const std::vector<std::int64_t> id_edges = {
      -1, 0, 1, 2, std::numeric_limits<std::int32_t>::max()};
  const std::vector<std::int64_t> round_edges = {
      -1, 0, 1, kMaxServeRound, kMaxServeRound + 1};
  const std::vector<std::int64_t> micro_edges = {
      0,
      1,
      -1,
      Money::max().micros(),
      Money::max().micros() + 1,
      -Money::max().micros(),
      -Money::max().micros() - 1,
  };
  const std::int64_t round = pick(round_edges);
  DrawnEvent drawn;
  switch (rng() % 5) {
    case 0: {
      const std::int64_t slots = pick(id_edges);
      const std::int64_t micros = micro_edges[rng() % micro_edges.size()];
      drawn.jsonl = "{\"ev\":\"round_open\",\"round\":" +
                    std::to_string(round) +
                    ",\"slots\":" + std::to_string(slots) + ",\"value\":\"" +
                    render_micros(micros) + "\"}";
      drawn.binary = frame(std::string(1, '\0') + le64(round) + le32(slots) +
                           le64(micros));
      break;
    }
    case 1: {
      const std::int64_t slot = pick(id_edges);
      const std::int64_t task = pick(id_edges);
      const bool has_value = rng() % 2 == 0;
      const std::int64_t micros = micro_edges[rng() % micro_edges.size()];
      drawn.jsonl = "{\"ev\":\"task_arrived\",\"round\":" +
                    std::to_string(round) +
                    ",\"slot\":" + std::to_string(slot) +
                    ",\"task\":" + std::to_string(task);
      drawn.binary = std::string(1, '\1') + le64(round) + le32(slot) +
                     le32(task);
      if (has_value) {
        drawn.jsonl += ",\"value\":\"" + render_micros(micros) + "\"";
        drawn.binary += std::string(1, '\1') + le64(micros);
      } else {
        drawn.binary += std::string(1, '\0');
      }
      drawn.jsonl += "}";
      drawn.binary = frame(drawn.binary);
      break;
    }
    case 2: {
      const std::int64_t agent = pick(id_edges);
      const std::int64_t from = pick(id_edges);
      const std::int64_t to = pick(id_edges);
      const std::int64_t micros = micro_edges[rng() % micro_edges.size()];
      drawn.jsonl = "{\"ev\":\"bid_submitted\",\"round\":" +
                    std::to_string(round) +
                    ",\"agent\":" + std::to_string(agent) +
                    ",\"from\":" + std::to_string(from) +
                    ",\"to\":" + std::to_string(to) + ",\"cost\":\"" +
                    render_micros(micros) + "\"}";
      drawn.binary = frame(std::string(1, '\2') + le64(round) + le32(agent) +
                           le32(from) + le32(to) + le64(micros));
      break;
    }
    case 3: {
      const std::int64_t slot = pick(id_edges);
      drawn.jsonl = "{\"ev\":\"slot_tick\",\"round\":" +
                    std::to_string(round) +
                    ",\"slot\":" + std::to_string(slot) + "}";
      drawn.binary = frame(std::string(1, '\3') + le64(round) + le32(slot));
      break;
    }
    default: {
      drawn.jsonl =
          "{\"ev\":\"round_close\",\"round\":" + std::to_string(round) + "}";
      drawn.binary = frame(std::string(1, '\4') + le64(round));
      break;
    }
  }
  return drawn;
}

TEST(WireFuzz, BinaryAndJsonlDecodersAcceptAndRejectInLockstep) {
  std::mt19937_64 rng(987654321);
  const std::int64_t iters = fuzz_iters(4000);
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  for (std::int64_t i = 0; i < iters; ++i) {
    const DrawnEvent drawn = draw_event(rng);
    std::optional<ServeEvent> from_jsonl;
    std::optional<ServeEvent> from_binary;
    try {
      from_jsonl = decode_serve_line(drawn.jsonl);
    } catch (const InvalidArgumentError&) {
    }
    try {
      const auto decoded = decode_wire_frame(drawn.binary);
      ASSERT_TRUE(decoded.has_value()) << drawn.jsonl;  // complete frame
      from_binary = decoded->event;
    } catch (const InvalidArgumentError&) {
    }
    ASSERT_EQ(from_jsonl.has_value(), from_binary.has_value())
        << "divergence on " << drawn.jsonl << " (jsonl "
        << (from_jsonl ? "accepted" : "rejected") << ", binary "
        << (from_binary ? "accepted" : "rejected") << ")";
    if (from_jsonl) {
      ++accepted;
      // Acceptance must also agree on the decoded value, byte for byte.
      ASSERT_EQ(*from_jsonl, *from_binary) << drawn.jsonl;
      ASSERT_EQ(wire_frame(*from_jsonl), drawn.binary) << drawn.jsonl;
    } else {
      ++rejected;
    }
  }
  // The draw is adversarial but not degenerate: both outcomes must occur.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

// ------------------------------------------- JSONL decode vs tree oracle

/// One decoder's verdict on a line: accepted (an event, or nullopt for a
/// header) or rejected with InvalidArgumentError. Any other exception
/// escapes and fails the test.
struct Verdict {
  bool accepted{false};
  std::optional<ServeEvent> event;
};

Verdict line_verdict(std::optional<ServeEvent> (*decode)(std::string_view),
                     const std::string& line) {
  try {
    return Verdict{true, decode(line)};
  } catch (const InvalidArgumentError&) {
    return Verdict{};
  }
}

/// Decodes `line` with decode_serve_line and with the tree oracle; both
/// must agree on acceptance and on the decoded event.
Verdict expect_decoders_agree(const std::string& line) {
  const Verdict decoded = line_verdict(&decode_serve_line, line);
  const Verdict oracle =
      line_verdict(&test_support::decode_serve_line_by_tree, line);
  EXPECT_EQ(decoded.accepted, oracle.accepted)
      << "divergence on " << line << " (decode_serve_line "
      << (decoded.accepted ? "accepted" : "rejected") << ", tree oracle "
      << (oracle.accepted ? "accepted" : "rejected") << ")";
  EXPECT_EQ(decoded.event, oracle.event) << line;
  return decoded;
}

TEST(JsonlDecode, EdgeLinesMatchTheTreeOracle) {
  struct Edge {
    std::string line;
    bool accepted;
  };
  const std::string deep_ok = "{\"ev\":\"round_close\",\"round\":0,\"x\":" +
                              std::string(127, '[') + std::string(127, ']') +
                              "}";
  const std::string too_deep = "{\"ev\":\"round_close\",\"round\":0,\"x\":" +
                               std::string(128, '[') + std::string(128, ']') +
                               "}";
  std::string many_unknown = R"({"ev":"round_close","round":0)";
  for (int i = 0; i < 12; ++i) {
    many_unknown += ",\"u" + std::to_string(i) + "\":" + std::to_string(i);
  }
  many_unknown += "}";
  const std::vector<Edge> edges = {
      // An unknown member is still validated: a malformed number rejects.
      {R"({"ev":"slot_tick","round":0,"slot":1,"x":12e})", false},
      // Escaped key and escaped discriminator decode to the known names.
      {R"({"ev":"slot_tick","r\u006fund":0,"slot":1})", true},
      {R"({"ev":"slot\u005ftick","round":0,"slot":1})", true},
      {R"({"ev":"slot_tick","round":0,"slot":1,"r\u006fund":1})", false},
      // Duplicate keys nested inside an unknown member's value.
      {R"({"ev":"slot_tick","round":0,"slot":1,"x":[1,{"a":2,"a":3}]})",
       false},
      {R"({"ev":"round_close","round":0,"x":1,"x":2})", false},
      // Number tokens other than plain integers, as today.
      {R"({"ev":"slot_tick","round":1e2,"slot":1})", true},
      {R"({"ev":"slot_tick","round":0,"slot":1.0})", true},
      {R"({"ev":"slot_tick","round":0,"slot":1.5})", false},
      {R"({"ev":"round_close","round":-0})", true},
      {R"({"ev":"round_close","round":007})", true},
      {R"({"ev":"round_close","round":+1})", true},
      {R"({"ev":"round_close","round":1E400})", false},
      // 16-digit integers: exact below 2^53, rounded (then capped) above.
      {R"({"ev":"round_close","round":1234567890123456})", true},
      {R"({"ev":"round_close","round":9007199254740993})", false},
      // Raw control character inside a string.
      {"{\"ev\":\"round_close\",\"round\":0,\"note\":\"a\tb\"}", false},
      // Header lines: extra members are fine, a non-string schema is not.
      {R"({"schema":"mcs.serve.v1","producer":"loadgen","n":3})", true},
      {R"({"schema":5})", false},
      // Leading and trailing whitespace.
      {" \t{\"ev\":\"round_close\",\"round\":0} \r", true},
      // Literals, containers and many unknown members take the fallback.
      {R"({"ev":"round_close","round":0,"x":true,"y":null,"z":false})", true},
      {deep_ok, true},
      {too_deep, false},
      {many_unknown, true},
      // Mistyped fields, non-objects and syntax errors.
      {R"({"ev":"round_close","round":"0"})", false},
      {R"({"ev":5,"round":0})", false},
      {"[]", false},
      {"5", false},
      {"{}", false},
      {R"({"ev":"round_close","round":0}x)", false},
      {R"({"ev":"round_close","round":0,})", false},
      {R"({"ev":"round_close","round":0)", false},
      // The canonical reader's boundary: in-layout lines at and just past
      // every bound it checks itself.
      {R"({"ev":"round_close","round":9007199254740991})", true},
      {R"({"ev":"round_close","round":9007199254740992})", false},
      {R"({"ev":"slot_tick","round":123456789012345,"slot":1})", true},
      {R"({"ev":"slot_tick","round":1234567890123456,"slot":1})", true},
      {R"({"ev":"slot_tick","round":0,"slot":123456789012345})", false},
      {R"({"ev":"slot_tick","round":0,"slot":1234567890123456})", false},
      {R"({"ev":"slot_tick","round":00,"slot":007})", true},
      {R"({"ev":"slot_tick","round":0,"slot":0002147483647})", true},
      {R"({"ev":"round_open","round":0,"slots":0,"value":"1"})", false},
      {R"({"ev":"task_arrived","round":0,"slot":0,"task":0})", false},
      {R"({"ev":"slot_tick","round":0,"slot":0})", false},
      {R"({"ev":"bid_submitted","round":0,"agent":0,"from":0,"to":1,"cost":"1"})",
       false},
      {R"({"ev":"bid_submitted","round":0,"agent":0,"from":3,"to":2,"cost":"1"})",
       false},
      {R"({"ev":"bid_submitted","round":0,"agent":0,"from":3,"to":3,"cost":"1"})",
       true},
      {R"({"ev":"bid_submitted","round":0,"agent":2147483647,"from":1,"to":1,"cost":"1"})",
       true},
      {R"({"ev":"bid_submitted","round":0,"agent":2147483648,"from":1,"to":1,"cost":"1"})",
       false},
      {R"({"ev":"bid_submitted","round":0,"agent":0,"from":1,"to":1,"cost":"+1"})",
       true},
      {R"({"ev":"bid_submitted","round":0,"agent":0,"from":1,"to":1,"cost":"-0"})",
       true},
      {R"({"ev":"bid_submitted","round":0,"agent":0,"from":1,"to":1,"cost":"-1"})",
       false},
      {R"({"ev":"bid_submitted","round":0,"agent":0,"from":1,"to":1,"cost":"1."})",
       false},
      {R"({"ev":"bid_submitted","round":0,"agent":0,"from":1,"to":1,"cost":".5"})",
       false},
      {R"({"ev":"bid_submitted","round":0,"agent":0,"from":1,"to":1,"cost":"0.123456"})",
       true},
      {R"({"ev":"bid_submitted","round":0,"agent":0,"from":1,"to":1,"cost":"0.1234567"})",
       false},
      {R"({"ev":"bid_submitted","round":0,"agent":0,"from":1,"to":1,"cost":"1.500"})",
       true},
      {R"({"ev":"round_open","round":0,"slots":1,"value":"2305843009213.693951"})",
       true},
      {R"({"ev":"round_open","round":0,"slots":1,"value":"2305843009213.693952"})",
       false},
      {R"({"ev":"round_open","round":0,"slots":1,"value":"2305843009213.999999"})",
       false},
      {R"({"ev":"round_open","round":0,"slots":1,"value":"2305843009214"})",
       false},
      {R"({"ev":"round_open","round":0,"slots":1,"value":"-3"})", true},
      {R"({"ev":"task_arrived","round":0,"slot":1,"task":0})", true},
      {R"({"ev":"task_arrived","round":0,"slot":1,"task":0,"value":"2.5"})",
       true},
      {R"({"ev":"task_arrived","round":0,"slot":1,"task":0,"value":})", false},
      {R"({"ev":"task_arrived","round":0,"slot":1,"task":0,"value":"x"})",
       false},
      {R"({"ev":"task_arrived","round":0,"slot":1,"task":0,"value":""})",
       false},
      {R"({"ev":"slot_tick","round":0,"slot":1} )", true},
      {R"({"ev": "slot_tick","round":0,"slot":1})", true},
      {R"({"ev":"slot_tick","round": 0,"slot":1})", true},
      {R"({"ev":"slot_tick","slot":1,"round":0})", true},
      {R"({"schema":"mcs.serve.v1"} )", true},
      {R"({"schema":"mcs.serve.v2"})", false},
  };
  for (const Edge& edge : edges) {
    const Verdict verdict = expect_decoders_agree(edge.line);
    EXPECT_EQ(verdict.accepted, edge.accepted) << edge.line;
  }
}

TEST(JsonlDecode, ReorderedKeysDecodeLikeTheCanonicalLine) {
  for (const ServeEvent& event : every_kind()) {
    // Canonical values hold no commas, so the members split on them.
    const std::string canonical = encode_serve_event(event);
    std::vector<std::string> members;
    std::stringstream body(canonical.substr(1, canonical.size() - 2));
    for (std::string member; std::getline(body, member, ',');) {
      members.push_back(member);
    }
    std::string reversed = "{";
    for (auto it = members.rbegin(); it != members.rend(); ++it) {
      reversed += (it == members.rbegin() ? "" : ",") + *it;
    }
    reversed += "}";
    ASSERT_NE(reversed, canonical);
    EXPECT_EQ(expect_decoders_agree(reversed).event, event) << reversed;
    EXPECT_EQ(decode_serve_line(canonical), event) << canonical;
  }
}

TEST(JsonlDecode, AnOverlongLineFailsAtTheCapWithoutBuffering) {
  // A 32 MB line with no '\n', fed in 64 KiB chunks (the replay's read
  // size) and in 1000-byte chunks (so the line is carried across chunks).
  constexpr std::size_t kLineBytes = std::size_t{32} << 20;
  const std::string chunk(std::size_t{1} << 16, 'x');
  const auto sink = [](const ServeEvent&) { ADD_FAILURE() << "no event"; };
  for (const std::size_t piece : {chunk.size(), std::size_t{1000}}) {
    SCOPED_TRACE(piece);
    StreamDecoder decoder;
    std::size_t fed = 0;
    std::uint64_t heap = 0;
    std::string error;
    const std::uint64_t before = test::heap_bytes();
    try {
      for (; fed < kLineBytes; fed += piece) {
        decoder.feed(std::string_view(chunk).substr(0, piece), sink);
      }
    } catch (const InvalidArgumentError& e) {
      heap = test::heap_bytes() - before;
      error = e.what();
    }
    EXPECT_EQ(error, "line 1: longer than 4096 bytes");
    // Refused by the chunk that crosses the cap, holding at most the cap.
    EXPECT_LE(fed, kMaxJsonlLineBytes);
    EXPECT_GT(fed + piece, kMaxJsonlLineBytes);
    EXPECT_LT(heap, 3 * kMaxJsonlLineBytes);
    EXPECT_THROW(decoder.finish(sink), InvalidArgumentError);
  }
}

/// Fragments the JSONL mutation fuzz splices into canonical lines: JSON
/// punctuation, escapes, literals, number tokens on both sides of the
/// canonical reader's integer rule, and whole unknown, duplicated or
/// damaged members.
const std::vector<std::string>& jsonl_fragments() {
  static const std::vector<std::string> fragments = {
      "{", "}", "[", "]", "\"", ":", ",", "\\", " ", "\t", "\x01", "\x7f",
      "\xc3\xa9", "-", "+", ".", "e", "E", "0", "7", "true", "false", "null",
      "1e2", "1.0", "-0", "12e", "0x1", "1E400", "007", "123456789012345",
      "1234567890123456", "9007199254740993", "\\u0041", "\\\"", "\\t",
      R"("x":12e)", R"("x":[1,{"a":2,"a":3}])", R"("x":{"y":[]})",
      R"("round":1)", R"("round":1,)", R"("ev":"slot_tick",)",
      R"("schema":"mcs.serve.v1",)", R"("value":"1.5",)", R"("x":"a	b")",
      R"("value":)", R"("value":"")", R"("value":"x")",
  };
  return fragments;
}

std::string mutate_line(std::string line, std::mt19937_64& rng) {
  const std::vector<std::string>& fragments = jsonl_fragments();
  const auto at = [&rng](const std::string& text) {
    return static_cast<std::size_t>(rng() % (text.size() + 1));
  };
  const std::string& fragment = fragments[rng() % fragments.size()];
  switch (rng() % 8) {
    case 0:
      if (!line.empty()) {
        line[rng() % line.size()] ^= static_cast<char>(1 << (rng() % 8));
      }
      break;
    case 1:
      line.insert(at(line), fragment);
      break;
    case 2: {
      const std::size_t from = at(line);
      line.erase(from, 1 + rng() % 4);
      break;
    }
    case 3: {
      const std::size_t from = at(line);
      line.replace(from, 1 + rng() % 6, fragment);
      break;
    }
    case 4:
      line.resize(at(line));
      break;
    case 5: {
      const std::size_t from = at(line);
      const std::string copy = line.substr(from, 1 + rng() % 12);
      line.insert(at(line), copy);
      break;
    }
    case 6: {
      // The last member's value damaged in place, closing brace kept
      // (`"value":}`, `"value":"0.}` on a task line, whose optional value
      // the canonical reader reads last): missing, unterminated, empty,
      // not a number, a point without fraction digits.
      static const std::vector<std::string> damaged = {"", "\"", R"("")",
                                                       R"("x")", "\"0."};
      const std::size_t colon = line.rfind(':');
      const std::size_t close = line.rfind('}');
      if (colon == std::string::npos || close == std::string::npos ||
          close < colon) {
        break;
      }
      line.replace(colon + 1, close - colon - 1,
                   damaged[rng() % damaged.size()]);
      break;
    }
    default: {
      // One or two extra members just before the closing brace. The few
      // names make duplicates (among unknown and known members) common.
      static const std::vector<std::string> names = {"m", "n", "round"};
      static const std::vector<std::string> values = {
          "1",   "-0",  "007", R"("s")", R"("\u0041")", "12e",
          "1e2", "[1]", "true", "1234567890123456"};
      const std::size_t close = line.rfind('}');
      if (close == std::string::npos) break;
      std::string members;
      for (int k = 1 + static_cast<int>(rng() % 2); k > 0; --k) {
        members += ",\"" + names[rng() % names.size()] +
                   "\":" + values[rng() % values.size()];
      }
      line.insert(close, members);
      break;
    }
  }
  return line;
}

TEST(WireFuzz, JsonlLineDecoderMatchesTheTreeOracle) {
  std::vector<std::string> canonical = {R"({"schema":"mcs.serve.v1"})"};
  for (const ServeEvent& event : every_kind()) {
    canonical.push_back(encode_serve_event(event));
  }
  std::mt19937_64 rng(20261017);
  const std::int64_t iters = fuzz_iters(4000);
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  for (std::int64_t i = 0; i < iters; ++i) {
    // Half the bases are fixed canonical lines, half adversarially drawn
    // events (edge ids, rounds and Money) in canonical form.
    std::string line = rng() % 2 == 0 ? canonical[rng() % canonical.size()]
                                      : draw_event(rng).jsonl;
    const int mutations = static_cast<int>(rng() % 5);
    for (int m = 0; m < mutations; ++m) line = mutate_line(line, rng);
    const Verdict verdict = expect_decoders_agree(line);
    if (::testing::Test::HasFailure()) return;
    ++(verdict.accepted ? accepted : rejected);
  }
  EXPECT_GT(accepted, iters / 10);
  EXPECT_GT(rejected, iters / 10);
}

/// `bytes` cut at random points, pieces of 1-8 bytes mixed with pieces of
/// up to 8 KiB.
std::vector<std::string_view> random_pieces(std::string_view bytes,
                                            std::mt19937_64& rng) {
  std::vector<std::string_view> pieces;
  while (!bytes.empty()) {
    const std::size_t size =
        rng() % 2 == 0 ? 1 + rng() % 8 : 1 + rng() % 8192;
    pieces.push_back(bytes.substr(0, size));
    bytes.remove_prefix(std::min(size, bytes.size()));
  }
  return pieces;
}

/// What the tree oracle makes of a JSONL stream by StreamDecoder's line
/// rules: the events before the first line it refuses, and that line's
/// 1-based number (0 when it takes the whole stream).
struct TreeReading {
  std::vector<ServeEvent> events;
  std::int64_t failed_line{0};
};

TreeReading read_by_tree(std::string_view stream) {
  TreeReading reading;
  for (std::int64_t number = 1; !stream.empty(); ++number) {
    const std::size_t end = std::min(stream.find('\n'), stream.size());
    const std::string_view line = stream.substr(0, end);
    stream.remove_prefix(std::min(end + 1, stream.size()));
    if (line.empty()) continue;
    try {
      if (line.size() > kMaxJsonlLineBytes) {
        throw InvalidArgumentError("longer than the cap");
      }
      const std::optional<ServeEvent> event =
          test_support::decode_serve_line_by_tree(line);
      if (event) reading.events.push_back(*event);
    } catch (const InvalidArgumentError&) {
      reading.failed_line = number;
      break;
    }
  }
  return reading;
}

/// The 1-based line a StreamDecoder error names ("line N: ..."), or -1.
std::int64_t line_of(const std::string& error) {
  return error.rfind("line ", 0) == 0 ? std::atoll(error.c_str() + 5) : -1;
}

TEST(WireFuzz, JsonlStreamDecoderMatchesTheTreeOracle) {
  // Canonical stream lines are read in place and never reach
  // decode_serve_line, so the stream gets the oracle too: after the
  // header, one fuzzed line or a run of them (some with junk after the
  // closing brace), with or without the last '\n', fed at random cuts. The
  // decoder must deliver the oracle's events and fail at the line the
  // oracle refuses.
  std::vector<std::string> canonical;
  for (const ServeEvent& event : every_kind()) {
    canonical.push_back(encode_serve_event(event));
  }
  const std::vector<std::string>& fragments = jsonl_fragments();
  std::mt19937_64 rng(20261020);
  const std::int64_t iters = fuzz_iters(4000);
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  for (std::int64_t i = 0; i < iters; ++i) {
    std::string stream = std::string(kServeStreamHeader) + "\n";
    for (int lines = 1 + static_cast<int>(rng() % 6); lines > 0; --lines) {
      std::string line = rng() % 2 == 0 ? canonical[rng() % canonical.size()]
                                        : draw_event(rng).jsonl;
      if (rng() % 4 == 0) {
        for (int m = 1 + static_cast<int>(rng() % 3); m > 0; --m) {
          line = mutate_line(line, rng);
        }
      }
      if (rng() % 8 == 0) line += fragments[rng() % fragments.size()];
      stream += line + "\n";
    }
    if (rng() % 2 == 0) stream.pop_back();
    const TreeReading oracle = read_by_tree(stream);
    std::vector<ServeEvent> events;
    std::int64_t failed_line = 0;
    const auto sink = [&events](const ServeEvent& e) { events.push_back(e); };
    StreamDecoder decoder;
    try {
      for (const std::string_view piece : random_pieces(stream, rng)) {
        decoder.feed(piece, sink);
      }
      decoder.finish(sink);
    } catch (const InvalidArgumentError& e) {
      failed_line = line_of(e.what());
    }
    ASSERT_EQ(failed_line, oracle.failed_line) << stream;
    ASSERT_EQ(events, oracle.events) << stream;
    ++(failed_line == 0 ? accepted : rejected);
  }
  EXPECT_GT(accepted, iters / 10);
  EXPECT_GT(rejected, iters / 10);
}

// ---------------------------------------------------------- transport parity

/// What one transport made of a byte stream: the events it delivered and
/// whether it took the whole stream.
struct Reading {
  std::vector<ServeEvent> events;
  bool accepted{false};
  std::string error;  ///< what the refusal said
};

Reading by_decoder(std::string_view bytes, std::mt19937_64& rng) {
  Reading reading;
  StreamDecoder decoder;
  const auto sink = [&](const ServeEvent& e) { reading.events.push_back(e); };
  try {
    for (const std::string_view piece : random_pieces(bytes, rng)) {
      decoder.feed(piece, sink);
    }
    decoder.finish(sink);
    reading.accepted = true;
  } catch (const InvalidArgumentError& e) {
    reading.error = e.what();
  }
  return reading;
}

Reading by_read_serve_stream(const std::string& bytes) {
  Reading reading;
  std::istringstream is(bytes);
  try {
    read_serve_stream(
        is, [&](const ServeEvent& e) { reading.events.push_back(e); });
    reading.accepted = true;
  } catch (const InvalidArgumentError& e) {
    reading.error = e.what();
  }
  return reading;
}

Reading by_socket(std::string_view bytes, std::mt19937_64& rng) {
  Reading reading;
  std::mutex mutex;
  SocketServer server({}, [&](const ServeEvent& event) {
    const std::lock_guard<std::mutex> lock(mutex);
    reading.events.push_back(event);
  });
  server.start();
  SocketClient client = SocketClient::connect("127.0.0.1", server.port());
  try {
    for (const std::string_view piece : random_pieces(bytes, rng)) {
      client.send(piece);
    }
  } catch (const IoError&) {
    // The server dropped the connection mid-stream; its stats say why.
  }
  client.close();
  server.drain();  // joins the reader: `reading` is complete
  reading.accepted = server.stats().decode_errors == 0;
  return reading;
}

/// The replay's verdict, and what the engine got: events handed off and
/// rounds completed.
struct ReplayReading {
  bool accepted{false};
  std::int64_t submitted{0};
  std::int64_t rounds_completed{0};
};

ReplayReading by_replay(const std::string& bytes, std::size_t batch_size) {
  ServeConfig config;
  config.shards = 2;
  config.batch_size = batch_size;
  ReplayReading reading;
  ServeEngine engine(config);
  std::istringstream is(bytes);
  try {
    replay_event_stream(is, engine);
    reading.accepted = true;
  } catch (const InvalidArgumentError&) {
  }
  engine.drain();
  reading.submitted = engine.stats().submitted;
  reading.rounds_completed = engine.stats().rounds_completed;
  return reading;
}

/// `jsonl` with its line `index` (0 is the header) widened to `bytes`
/// bytes by blanks after its '{', which JSON ignores.
std::string padded_line(const std::string& jsonl, std::size_t index,
                        std::size_t bytes) {
  std::size_t begin = 0;
  for (std::size_t i = 0; i < index; ++i) begin = jsonl.find('\n', begin) + 1;
  const std::size_t end = jsonl.find('\n', begin);
  std::string padded = jsonl;
  padded.insert(begin + 1, bytes - (end - begin), ' ');
  return padded;
}

std::string without_final_newline(std::string bytes) {
  bytes.pop_back();
  return bytes;
}

/// A one-slot round whose slot_tick, line 2, is exactly `bytes` bytes, its
/// round widened by leading zeros, then all of `jsonl`.
std::string with_wide_tick(const std::string& jsonl, std::size_t bytes) {
  constexpr std::int64_t kRound = 1000000;
  const std::string head = R"({"ev":"slot_tick","round":)";
  const std::string tail = std::to_string(kRound) + R"(,"slot":1})";
  return encode_serve_event(round_open(kRound, 1, Money::from_units(10))) +
         "\n" + head +
         std::string(bytes - head.size() - tail.size(), '0') + tail + "\n" +
         encode_serve_event(round_close(kRound)) + "\n" + jsonl;
}

/// `jsonl` up to line `index`'s closing '}' (0 is the header).
std::string cut_after_line(const std::string& jsonl, std::size_t index) {
  std::size_t end = jsonl.find('\n');
  for (std::size_t i = 0; i < index; ++i) end = jsonl.find('\n', end + 1);
  return jsonl.substr(0, end);
}

/// One served round whose first task carries its own value and whose
/// second does not.
std::string weighted_round() {
  std::string bytes;
  StreamWriter writer(WireFormat::kJsonl,
                      [&bytes](std::string_view out) { bytes += out; });
  for (const ServeEvent& event :
       {round_open(0, 2, Money::from_units(10)),
        task_arrived(0, Slot{1}, TaskId{0}, Money::from_double(2.5)),
        task_arrived(0, Slot{1}, TaskId{1}),
        bid_submitted(0, PhoneId{0}, bid(1, 2, 1.0)), slot_tick(0, Slot{1}),
        task_arrived(0, Slot{2}, TaskId{2}), slot_tick(0, Slot{2}),
        round_close(0)}) {
    writer.write(event);
  }
  writer.flush();
  return bytes;
}

TEST(TransportParity, EveryTransportReadsEveryStreamAlike) {
  LoadGenConfig load;
  load.rounds = 40;  // both formats span more than one 64 KiB read
  load.seed = 11;
  std::ostringstream jsonl_out;
  std::ostringstream binary_out;
  const auto n = static_cast<std::size_t>(write_event_stream(jsonl_out, load));
  write_wire_stream(binary_out, load);
  const std::string jsonl = jsonl_out.str();
  const std::string binary = binary_out.str();
  ASSERT_GT(binary.size(), std::size_t{1} << 16);

  struct Row {
    const char* name;
    std::string bytes;
    bool accepted;
    std::size_t events;
    const char* error = nullptr;  ///< the refusal's text, when pinned
  };
  const std::vector<Row> table = {
      {"jsonl", jsonl, true, n},
      {"binary", binary, true, n},
      {"jsonl without its final newline", jsonl.substr(0, jsonl.size() - 1),
       true, n},
      {"jsonl cut mid-object", jsonl.substr(0, jsonl.size() - 6), false,
       n - 1},
      {"binary cut mid-frame", binary.substr(0, binary.size() - 3), false,
       n - 1},
      {"jsonl header only", std::string(kServeStreamHeader) + "\n", true, 0},
      {"binary header only", header_bytes(), true, 0},
      {"empty", "", true, 0},
      {"MCSB then junk", "MCSB junk, not a version", false, 0},
      {"jsonl with a line of exactly the cap",
       padded_line(jsonl, 5, kMaxJsonlLineBytes), true, n},
      {"jsonl with a line over the cap",
       padded_line(jsonl, 5, kMaxJsonlLineBytes + 1), false, 4},
      {"jsonl ending in a line over the cap without its newline",
       without_final_newline(padded_line(jsonl, n, kMaxJsonlLineBytes + 1)),
       false, n - 1},
      // Leading zeros are canonical: the in-place reader keeps the cap.
      {"jsonl with a canonical line of exactly the cap",
       with_wide_tick(jsonl, kMaxJsonlLineBytes), true, n + 3},
      {"jsonl with a canonical line over the cap",
       with_wide_tick(jsonl, kMaxJsonlLineBytes + 1), false, 1,
       "line 2: longer than 4096 bytes"},
      {"jsonl cut right after a canonical line's closing brace",
       cut_after_line(jsonl, 6), true, 6},
      {"jsonl with a weighted task", weighted_round(), true, 8},
  };
  std::mt19937_64 rng(20261019);
  for (const Row& row : table) {
    SCOPED_TRACE(row.name);
    const Reading read = by_read_serve_stream(row.bytes);
    EXPECT_EQ(read.accepted, row.accepted);
    ASSERT_EQ(read.events.size(), row.events);
    std::int64_t closes = 0;
    for (const ServeEvent& event : read.events) {
      closes += event.kind == ServeEventKind::kRoundClose ? 1 : 0;
    }
    if (row.error != nullptr) {
      EXPECT_EQ(read.error, row.error);
    }
    if (row.bytes.empty() || row.bytes.front() != kWireMagic[0]) {
      // A JSONL stream delivers what the tree oracle reads line by line.
      EXPECT_EQ(read.events, read_by_tree(row.bytes).events);
    }
    for (int draw = 0; draw < 3; ++draw) {
      const Reading decoded = by_decoder(row.bytes, rng);
      EXPECT_EQ(decoded.accepted, read.accepted);
      EXPECT_EQ(decoded.events, read.events);
      if (row.error != nullptr) {
        EXPECT_EQ(decoded.error, row.error);
      }
    }
    const Reading socket = by_socket(row.bytes, rng);
    EXPECT_EQ(socket.accepted, read.accepted);
    EXPECT_EQ(socket.events, read.events);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
      const ReplayReading replay = by_replay(row.bytes, batch);
      EXPECT_EQ(replay.accepted, read.accepted) << "batch " << batch;
      EXPECT_EQ(replay.submitted, static_cast<std::int64_t>(row.events))
          << "batch " << batch;
      EXPECT_EQ(replay.rounds_completed, closes) << "batch " << batch;
    }
  }
}

}  // namespace
}  // namespace mcs::serve
