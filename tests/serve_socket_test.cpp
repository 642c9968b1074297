// Socket front-end smoke tests: an engine fed over the loopback TCP
// listener must produce byte-identical outcomes to one fed in-process, in
// both wire formats and across multiple concurrent connections; malformed
// input must poison exactly its own connection; a truncated stream must
// be reported, not silently absorbed; and per-connection batchers keep
// outcomes, shedding and end-of-connection handoff exact.
#include "serve/socket.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "serve/telemetry.hpp"
#include "serve/wire.hpp"
#include "support/engine_feed.hpp"

namespace mcs::serve {
namespace {

LoadGenConfig small_load() {
  LoadGenConfig config;
  config.rounds = 8;
  config.seed = 7;
  return config;
}

std::vector<ServeEvent> load_events(const LoadGenConfig& config) {
  std::vector<ServeEvent> events;
  generate_events(config, [&](const ServeEvent& event) {
    events.push_back(event);
    return true;
  });
  return events;
}

std::string binary_stream(const std::vector<ServeEvent>& events) {
  std::string bytes;
  append_wire_header(bytes);
  for (const ServeEvent& event : events) append_wire_frame(bytes, event);
  return bytes;
}

std::string jsonl_stream(const std::vector<ServeEvent>& events) {
  std::ostringstream os;
  StreamWriter writer(WireFormat::kJsonl, os);
  for (const ServeEvent& event : events) writer.write(event);
  writer.flush();
  return os.str();
}

void expect_same_outcomes(const std::vector<RoundOutcome>& a,
                          const std::vector<RoundOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].round, b[i].round);
    EXPECT_EQ(a[i].total_paid, b[i].total_paid);
    EXPECT_EQ(a[i].tasks_announced, b[i].tasks_announced);
    EXPECT_EQ(a[i].bids_admitted, b[i].bids_admitted);
    EXPECT_EQ(a[i].outcome.payments, b[i].outcome.payments);
  }
}

/// Runs an engine fed in-process over `events` (the reference run).
std::vector<RoundOutcome> reference_outcomes(
    const std::vector<ServeEvent>& events, int shards) {
  ServeConfig config;
  config.shards = shards;
  ServeEngine engine(config);
  test_support::feed(engine, events);
  engine.drain();
  return engine.take_outcomes();
}

/// Runs an engine fed the given raw bytes through the socket front-end.
struct SocketRun {
  std::vector<RoundOutcome> outcomes;
  SocketServerStats stats;
};

SocketRun socket_outcomes(const std::vector<std::string>& connections,
                          int shards) {
  ServeConfig config;
  config.shards = shards;
  ServeEngine engine(config);
  HandoffTotals handoff;
  SocketServer server({}, [&] {
    return std::make_unique<EngineConnection>(engine, handoff);
  });
  server.start();
  for (const std::string& bytes : connections) {
    SocketClient client = SocketClient::connect("127.0.0.1", server.port());
    client.send(bytes);
    client.close();
  }
  // drain() accepts the pending backlog and joins the reader threads, so
  // every sent event is submitted before the engine drains.
  server.drain();
  engine.drain();
  SocketRun run;
  run.outcomes = engine.take_outcomes();
  run.stats = server.stats();
  return run;
}

TEST(ServeSocket, BinaryFeedMatchesInProcessFeed) {
  const std::vector<ServeEvent> events = load_events(small_load());
  ServeConfig config;
  config.shards = 2;
  ServeEngine reference(config);
  test_support::feed(reference, events);
  reference.drain();

  const SocketRun run = socket_outcomes({binary_stream(events)}, 2);
  EXPECT_EQ(run.stats.connections, 1);
  EXPECT_EQ(run.stats.decode_errors, 0);
  EXPECT_EQ(run.stats.events, static_cast<std::int64_t>(events.size()));
  expect_same_outcomes(run.outcomes, reference.take_outcomes());
}

TEST(ServeSocket, JsonlFeedMatchesBinaryFeed) {
  const std::vector<ServeEvent> events = load_events(small_load());
  const SocketRun binary = socket_outcomes({binary_stream(events)}, 1);
  const SocketRun jsonl = socket_outcomes({jsonl_stream(events)}, 1);
  EXPECT_EQ(jsonl.stats.decode_errors, 0);
  EXPECT_EQ(jsonl.stats.events, binary.stats.events);
  expect_same_outcomes(binary.outcomes, jsonl.outcomes);
}

TEST(ServeSocket, ConcurrentConnectionsPartitionTheRounds) {
  // Distinct rounds over distinct connections: arrival interleaving is
  // nondeterministic, but rounds are independent, so the merged outcomes
  // still match the single-feed reference.
  LoadGenConfig config = small_load();
  std::vector<ServeEvent> all;
  std::vector<std::string> streams;
  generate_events(config, [&](const ServeEvent& event) {
    all.push_back(event);
    return true;
  });
  std::vector<std::vector<ServeEvent>> per_round(
      static_cast<std::size_t>(config.rounds));
  for (const ServeEvent& event : all) {
    per_round[static_cast<std::size_t>(event.round)].push_back(event);
  }
  streams.reserve(per_round.size());
  for (const std::vector<ServeEvent>& round : per_round) {
    streams.push_back(binary_stream(round));
  }

  ServeConfig reference_config;
  reference_config.shards = 4;
  ServeEngine reference(reference_config);
  test_support::feed(reference, all);
  reference.drain();

  const SocketRun run = socket_outcomes(streams, 4);
  EXPECT_EQ(run.stats.connections, config.rounds);
  EXPECT_EQ(run.stats.decode_errors, 0);
  expect_same_outcomes(run.outcomes, reference.take_outcomes());
}

TEST(ServeSocket, MalformedConnectionIsContained) {
  const std::vector<ServeEvent> events = load_events(small_load());
  // One garbage connection alongside one good one. The garbage is binary
  // magic then junk, or a well-formed JSONL event padded past
  // kMaxJsonlLineBytes (JSON ignores the blanks), refused at the cap.
  std::string junk = "MCSB";
  junk += std::string(16, '\xff');
  const std::string overlong = std::string(kServeStreamHeader) + "\n{" +
                               std::string(kMaxJsonlLineBytes, ' ') +
                               R"("ev":"round_close","round":0})" + "\n";
  const std::vector<RoundOutcome> reference = reference_outcomes(events, 1);
  for (const std::string& garbage : {junk, overlong}) {
    const SocketRun run = socket_outcomes({garbage, binary_stream(events)}, 1);
    EXPECT_EQ(run.stats.connections, 2);
    EXPECT_EQ(run.stats.decode_errors, 1);
    EXPECT_EQ(run.stats.events, static_cast<std::int64_t>(events.size()));
    expect_same_outcomes(run.outcomes, reference);
  }
}

TEST(ServeSocket, TruncatedStreamCountsAsDecodeError) {
  const std::vector<ServeEvent> events = load_events(small_load());
  std::string bytes = binary_stream(events);
  bytes.pop_back();  // the final frame now ends mid-field
  const SocketRun run = socket_outcomes({bytes}, 1);
  EXPECT_EQ(run.stats.decode_errors, 1);
  // All complete frames were still delivered.
  EXPECT_EQ(run.stats.events, static_cast<std::int64_t>(events.size()) - 1);
}

/// Splits the small load's rounds over two streams by round parity: even
/// rounds binary, odd rounds JSONL.
std::pair<std::string, std::string> split_by_parity(
    const std::vector<ServeEvent>& events) {
  std::vector<ServeEvent> even;
  std::vector<ServeEvent> odd;
  for (const ServeEvent& event : events) {
    (event.round % 2 == 0 ? even : odd).push_back(event);
  }
  return {binary_stream(even), jsonl_stream(odd)};
}

/// Sends each stream over its own connection, all at once from their own
/// threads, then drains the server.
void send_concurrently(SocketServer& server,
                       const std::vector<std::string>& streams) {
  std::vector<std::thread> senders;
  senders.reserve(streams.size());
  for (const std::string& bytes : streams) {
    senders.emplace_back([&server, &bytes] {
      SocketClient client = SocketClient::connect("127.0.0.1", server.port());
      client.send(bytes);
      client.close();
    });
  }
  for (std::thread& sender : senders) sender.join();
  server.drain();
}

TEST(ServeSocket, PerConnectionBatchersMatchTheSingleFeedReference) {
  const std::vector<ServeEvent> events = load_events(small_load());
  const auto [binary, jsonl] = split_by_parity(events);
  ServeConfig config;
  config.shards = 2;
  config.batch_size = 16;
  ServeEngine engine(config);
  HandoffTotals handoff;
  SocketServer server({}, [&] {
    return std::make_unique<EngineConnection>(engine, handoff);
  });
  server.start();
  send_concurrently(server, {binary, jsonl});
  engine.drain();

  const SocketServerStats stats = server.stats();
  EXPECT_EQ(stats.connections, 2);
  EXPECT_EQ(stats.decode_errors, 0);
  EXPECT_EQ(stats.events, static_cast<std::int64_t>(events.size()));
  EXPECT_EQ(handoff.accepted.load(), stats.events);
  EXPECT_EQ(handoff.shed.load(), 0);
  expect_same_outcomes(engine.take_outcomes(), reference_outcomes(events, 2));
}

TEST(ServeSocket, PerConnectionShedAddsUpUnderRejectAdmission) {
  LoadGenConfig load = small_load();
  load.rounds = 64;
  const std::vector<ServeEvent> events = load_events(load);
  const auto [binary, jsonl] = split_by_parity(events);
  ServeConfig config;
  config.shards = 2;
  config.batch_size = 16;
  config.queue_capacity = 64;
  config.admission = ServeConfig::Admission::kReject;
  ServeEngine engine(config);
  HandoffTotals handoff;
  SocketServer server({}, [&] {
    return std::make_unique<EngineConnection>(engine, handoff);
  });
  server.start();
  send_concurrently(server, {binary, jsonl});
  engine.drain();

  const SocketServerStats stats = server.stats();
  EXPECT_EQ(stats.decode_errors, 0);
  EXPECT_EQ(stats.events, static_cast<std::int64_t>(events.size()));
  EXPECT_EQ(handoff.accepted.load() + handoff.shed.load(), stats.events);
  EXPECT_EQ(handoff.shed.load(), engine.stats().rejected_backpressure);
  EXPECT_EQ(handoff.accepted.load(), engine.stats().submitted);
  std::cout << "[ shed ] " << handoff.shed.load() << " of " << stats.events
            << " events\n";
}

TEST(ServeSocket, ClosingConnectionHandsOverItsPartialBatchAtItsOwnEof) {
  // One round of fewer events than a batch: nothing reaches the engine
  // until the connection's batcher flushes at its EOF, while a second
  // connection stays open (so the server is nowhere near its drain).
  LoadGenConfig load = small_load();
  load.rounds = 1;
  load.workload.num_slots = 2;
  load.workload.phone_arrival_rate = 2.0;
  const std::vector<ServeEvent> events = load_events(load);
  ServeConfig config;
  config.shards = 1;
  config.batch_size = 64;
  ASSERT_LT(events.size(), config.batch_size);
  LiveTelemetry live;
  config.live = &live;
  ServeEngine engine(config);
  HandoffTotals handoff;
  SocketServer server({}, [&] {
    return std::make_unique<EngineConnection>(engine, handoff);
  });
  server.start();

  SocketClient idle = SocketClient::connect("127.0.0.1", server.port());
  SocketClient closing = SocketClient::connect("127.0.0.1", server.port());
  closing.send(jsonl_stream(events));
  closing.close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (live.summary().processed < static_cast<std::int64_t>(events.size()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(live.summary().processed,
            static_cast<std::int64_t>(events.size()));
  // Both connections were accepted, and only the closing one handed off.
  EXPECT_EQ(server.stats().connections, 2);
  idle.close();
  server.drain();
  engine.drain();
  EXPECT_EQ(server.stats().connections, 2);
  EXPECT_EQ(server.stats().decode_errors, 0);
  EXPECT_EQ(engine.stats().rounds_completed, 1);
}

TEST(ServeSocket, StopIsIdempotentAndRestartForbidden) {
  SocketServer server({}, [](const ServeEvent&) {});
  server.start();
  const int port = server.port();
  EXPECT_GT(port, 0);
  server.stop();
  server.stop();  // idempotent
  EXPECT_THROW(SocketClient::connect("127.0.0.1", port), IoError);
}

}  // namespace
}  // namespace mcs::serve
