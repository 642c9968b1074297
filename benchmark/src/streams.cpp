// Workload table, input generation, and the socket load client.
#include <algorithm>
#include <sstream>

#include "auction/online_greedy.hpp"
#include "bench.hpp"
#include "model/scenario.hpp"
#include "serve/loadgen.hpp"
#include "serve/wire.hpp"

namespace mcs_bench {

namespace serve = mcs::serve;

// ---------------------------------------------------------------- workloads

namespace {

std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> specs;

  // Table I: m=50, lambda=6, lambda_t=3, c-bar=25, L-bar=5, nu=50 (the
  // WorkloadConfig defaults).
  WorkloadSpec table1;
  table1.name = "table1-replay";
  table1.rounds_per_pass = 1500;
  table1.traced_rounds = 300;
  table1.shards = 3;
  specs.push_back(table1);

  // The largest m of the paper's Figs. 6/9 sweep (30..80) and the largest
  // lambda of its Figs. 7/10 sweep (4..8), Table I otherwise. The paper
  // sweeps one knob at a time, so this is the corner of its evaluated
  // range: the biggest rounds and phone pools it reports on.
  WorkloadSpec large;
  large.name = "large-rounds";
  large.workload.num_slots = 80;
  large.workload.phone_arrival_rate = 8.0;
  large.rounds_per_pass = 600;
  large.traced_rounds = 120;
  large.shards = 3;
  specs.push_back(large);

  // Not traffic from the paper: a synthetic front-end probe. Five-slot
  // rounds with one phone and one task per slot leave the mechanism almost
  // nothing to do, so socket, decode, handoff and round bookkeeping are
  // what the run measures.
  WorkloadSpec tiny;
  tiny.name = "tiny-rounds-socket";
  tiny.workload.num_slots = 5;
  tiny.workload.phone_arrival_rate = 1.0;
  tiny.workload.task_arrival_rate = 1.0;
  tiny.rounds_per_pass = 80000;
  tiny.traced_rounds = 10000;
  tiny.shards = 2;
  tiny.connections = 2;
  specs.push_back(tiny);
  return specs;
}

}  // namespace

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> specs = make_workloads();
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : all_workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

WorkloadSpec scaled(const WorkloadSpec& spec, bool smoke) {
  if (!smoke) return spec;
  WorkloadSpec small = spec;
  const auto tenth = [](std::int64_t n) {
    return n == 0 ? 0 : std::max<std::int64_t>(n / 10, 2);
  };
  small.rounds_per_pass = tenth(spec.rounds_per_pass);
  small.traced_rounds = tenth(spec.traced_rounds);
  return small;
}

// ------------------------------------------------------------------ streams

std::vector<ServeEvent> events_of(const WorkloadSpec& spec, std::uint64_t seed,
                                  std::int64_t round) {
  const mcs::model::Scenario scenario =
      mcs::model::round_scenario(spec.workload, seed, round);
  return serve::round_events(round, scenario, scenario.truthful_bids());
}

std::vector<std::int64_t> round_ids(const WorkloadSpec& spec,
                                    std::int64_t rounds) {
  std::vector<std::int64_t> ids;
  ids.reserve(static_cast<std::size_t>(rounds));
  const int connections = std::max(spec.connections, 1);
  const std::int64_t per_connection = rounds / connections;
  for (int c = 0; c < connections; ++c) {
    const std::int64_t first =
        spec.connections > 0 ? c * kConnectionIdStride : 0;
    for (std::int64_t k = 0; k < per_connection; ++k) ids.push_back(first + k);
  }
  return ids;
}

namespace {

void append_binary(std::string& out, const std::vector<ServeEvent>& events) {
  for (const ServeEvent& event : events) serve::append_wire_frame(out, event);
}

void append_jsonl(std::string& out, const std::vector<ServeEvent>& events) {
  for (const ServeEvent& event : events) {
    out += serve::encode_serve_event(event);
    out += '\n';
  }
}

std::string jsonl_header() {
  std::ostringstream header;
  serve::write_stream_header(header);
  return header.str();
}

template <typename Append>
Stream encode_rounds(const WorkloadSpec& spec, std::uint64_t seed,
                     const std::vector<std::int64_t>& rounds, Stream stream,
                     Append append) {
  for (const std::int64_t round : rounds) {
    const std::vector<ServeEvent> events = events_of(spec, seed, round);
    append(stream.bytes, events);
    stream.events += static_cast<std::int64_t>(events.size());
  }
  return stream;
}

}  // namespace

Stream binary_stream(const WorkloadSpec& spec, std::uint64_t seed,
                     const std::vector<std::int64_t>& rounds) {
  Stream stream;
  serve::append_wire_header(stream.bytes);
  return encode_rounds(spec, seed, rounds, std::move(stream), append_binary);
}

Stream jsonl_stream(const WorkloadSpec& spec, std::uint64_t seed,
                    const std::vector<std::int64_t>& rounds) {
  return encode_rounds(spec, seed, rounds, Stream{jsonl_header(), 0},
                       append_jsonl);
}

Stream binary_stream(const std::vector<ServeEvent>& events) {
  Stream stream;
  serve::append_wire_header(stream.bytes);
  append_binary(stream.bytes, events);
  stream.events = static_cast<std::int64_t>(events.size());
  return stream;
}

Stream jsonl_stream(const std::vector<ServeEvent>& events) {
  Stream stream{jsonl_header(), static_cast<std::int64_t>(events.size())};
  append_jsonl(stream.bytes, events);
  return stream;
}

std::uint64_t outcome_digest(const mcs::auction::Outcome& outcome) {
  // FNV-1a over the task->phone map and every exact payment.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::int64_t value) {
    auto bits = static_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
      hash ^= bits & 0xFFU;
      hash *= 0x100000001b3ULL;
      bits >>= 8;
    }
  };
  const int tasks = outcome.allocation.task_count();
  mix(tasks);
  mix(outcome.allocation.phone_count());
  for (int t = 0; t < tasks; ++t) {
    const auto phone = outcome.allocation.phone_for(mcs::TaskId{t});
    mix(phone ? phone->value() : -1);
  }
  for (const mcs::Money& payment : outcome.payments) mix(payment.micros());
  return hash;
}

std::int64_t batch_payments_micros(const WorkloadSpec& spec,
                                   std::uint64_t seed,
                                   const std::vector<std::int64_t>& rounds) {
  const mcs::auction::OnlineGreedyMechanism mechanism;
  std::int64_t total = 0;
  for (const std::int64_t round : rounds) {
    const mcs::model::Scenario scenario =
        mcs::model::round_scenario(spec.workload, seed, round);
    total += mechanism.run(scenario, scenario.truthful_bids())
                 .total_payment()
                 .micros();
  }
  return total;
}

std::vector<ServeEvent> traced_events(const WorkloadSpec& spec,
                                      std::uint64_t seed) {
  std::vector<ServeEvent> events;
  for (const std::int64_t round : round_ids(spec, spec.traced_rounds)) {
    const std::vector<ServeEvent> round_events = events_of(spec, seed, round);
    events.insert(events.end(), round_events.begin(), round_events.end());
  }
  return events;
}

// ------------------------------------------------------------------ sockets

void send_interleaved(std::vector<serve::SocketClient>& clients,
                      const std::vector<std::string_view>& streams) {
  constexpr std::size_t kChunk = std::size_t{64} * 1024;
  std::size_t largest = 0;
  for (const std::string_view stream : streams) {
    largest = std::max(largest, stream.size());
  }
  const std::size_t steps =
      std::max<std::size_t>((largest + kChunk - 1) / kChunk, 1);
  for (std::size_t step = 0; step < steps; ++step) {
    for (std::size_t c = 0; c < streams.size(); ++c) {
      const std::size_t size = streams[c].size();
      const std::size_t begin = size * step / steps;
      const std::size_t end = size * (step + 1) / steps;
      clients[c].send(streams[c].substr(begin, end - begin));
    }
  }
  for (serve::SocketClient& client : clients) client.close();
}

}  // namespace mcs_bench
