// The sharded, event-driven streaming auction engine.
//
// Rounds are independent auctions, so the engine scales horizontally: a
// producer's ShardBatcher places each round on the least-loaded of N
// shards; every shard owns a bounded MPSC queue and one worker thread whose
// round table holds each open round's RoundMachine and trace (the trace
// plane keeps no table) and ends every round -- closed, corrupted or
// abandoned -- through one path, end_round. Determinism: a round's events
// are consumed in submission order by exactly one worker, so the merged
// outcomes (and merged work counters) are identical for any placement.
//
// What a finished round leaves behind: its totals are added to the
// shard's ServeStats when it closes. With ServeConfig::retain_outcomes on
// (the default) the worker also builds its dense RoundOutcome
// (RoundMachine::take_outcome) and keeps it until take_outcomes(); with it
// off the round leaves nothing else, so a long-running server's memory
// does not grow with the rounds it has served. The econ plane, when on,
// audits the dense outcome of a fully captured round either way, then it
// is dropped; it skips any other round without one being built.
//
// Rounds recycle: each worker keeps the machines of its retired rounds
// (completed, corrupted or abandoned) as spares, each still in its round
// table node, and a round_open reuses one through RoundMachine::reset, so
// a non-retaining shard with the econ plane off allocates nothing per
// round at steady state (a retaining one allocates only the outcomes it
// keeps). Retention bound: at most kMaxSpareRounds spares per shard, each
// holding at most kMaxSpareBytes of buffers; a retired machine holding
// more (one that served a hostile 100k-bid round, say) is freed instead,
// so no later round resets its buffers. Spares are freed when the worker
// exits.
//
// Backpressure is an explicit admission-control policy, chosen at
// construction:
//   * kBlock  -- a handoff waits for queue space (lossless ingestion; the
//                producer absorbs the backpressure),
//   * kReject -- a handoff returns kRejectedQueueFull immediately and its
//                events are dropped (the caller absorbs it; load shedding).
//
// Telemetry: when a MetricsRegistry is installed on the constructing
// thread, each worker records into its own shard registry and drain()
// folds them into the installed one via the deterministic registry merge.
// That is the deterministic plane. The optional live, econ and trace
// planes in the config are the wall-clock side (serve/telemetry.hpp,
// serve/econ_telemetry.hpp, serve/trace_plane.hpp). The engine is their
// one clock: with a live or trace plane attached it stamps each handoff
// batch on the steady clock, and each batch a worker acquires from its
// ring once at pickup -- that stamp is every event's pickup time and gives
// its queue wait. Events whose time is a span edge read their own stamp:
// round_open (open pickup) and round_close (close pickup), whose
// difference is the round latency, and each slot_tick's begin and end
// when the trace plane is on. Each wait and latency goes once into the
// shard's system lane (serve/system_lane.hpp), which both timed planes
// read; with every plane off the clock is never read. No plane writes a
// registry counter (econ's deliberate `econ.violations` aside), so the
// deterministic merge stays bit-identical whether they are on or off.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "auction/online_greedy.hpp"
#include "obs/metrics.hpp"
#include "obs/round_trace.hpp"
#include "serve/event.hpp"
#include "serve/queue.hpp"
#include "serve/round_machine.hpp"
#include "serve/system_lane.hpp"

namespace mcs::serve {

class LiveTelemetry;
class EconTelemetry;
class TracePlane;

struct ServeConfig {
  /// Worker shards; a round goes to the least-loaded one (ShardBatcher).
  int shards = 1;
  /// Bounded depth of each shard's event queue. Room for several of the
  /// largest rounds the paper evaluates (m=80, lambda=8: ~960 events): a
  /// round is placed by the load it sees at its open, so a ring that holds
  /// only one round leaves the next round no room to go to. At most
  /// kMaxQueueCapacity: each shard allocates its ring up front.
  std::size_t queue_capacity = 4096;
  /// Upper bound of queue_capacity: 2^20 events, 96 MiB of ring per shard.
  static constexpr std::size_t kMaxQueueCapacity = std::size_t{1} << 20;
  /// Producer-side batch size used by ShardBatcher (and the flush
  /// threshold of each of its per-shard buffers). 1 keeps the historical
  /// event-at-a-time handoff; larger values amortize the queue lock over
  /// the batch. Must stay <= queue_capacity (an oversized batch could
  /// never fit). Batching changes only handoff granularity -- event order
  /// per round, outcomes, and deterministic counters are unaffected.
  std::size_t batch_size = 1;

  /// The admission policy also fixes how workers treat broken round
  /// streams: under kBlock nothing is ever shed, so a hole in a round's
  /// event sequence is a malformed stream and fails the run; under kReject
  /// holes are the expected cost of shedding, so orphaned events are
  /// dropped and the affected round is abandoned, both counted in stats.
  enum class Admission {
    kBlock,   ///< a handoff blocks until the shard queue has space
    kReject,  ///< a handoff fails fast with kRejectedQueueFull
  };
  Admission admission = Admission::kBlock;

  /// Mechanism knobs applied to every round (reserve, profitability, ...).
  auction::OnlineGreedyConfig greedy;

  /// Keep every completed round's dense RoundOutcome for take_outcomes().
  /// Off, a completed round feeds ServeStats (and the econ plane) and is
  /// dropped: set it off when nothing will take the outcomes, as a
  /// long-running server.
  bool retain_outcomes = true;

  /// Optional wall-clock plane (non-owning; must outlive the engine). The
  /// engine attaches it at construction and feeds it while serving.
  LiveTelemetry* live = nullptr;

  /// Optional economic plane (non-owning; must outlive the engine). When
  /// set, round machines run in capture mode and every closed round is
  /// handed to the plane's sentinel (serve/econ_telemetry.hpp). Apart from
  /// the deliberate `econ.violations` counter this leaves the
  /// deterministic plane untouched.
  EconTelemetry* econ = nullptr;

  /// Optional causal tracing plane (non-owning; must outlive the engine).
  /// When set, every round gets a bounded span timeline and the
  /// tail-based sampler decides at round_close what to retain
  /// (serve/trace_plane.hpp). Its hooks take the engine's stamps, and it
  /// reads the system lanes `live` reads. Same quarantine discipline as
  /// `live`: no registry counter is ever written, so the deterministic
  /// merge is bit-identical trace-on vs trace-off.
  TracePlane* trace = nullptr;

  /// Throws InvalidArgumentError when out of domain (before the engine
  /// allocates anything).
  void validate() const;
};

/// Admission verdict of one handoff.
enum class SubmitStatus {
  kAccepted,          ///< enqueued on its shard
  kRejectedQueueFull, ///< kReject policy and the shard queue was full
  kRejectedStopped,   ///< engine already draining / shut down
};

[[nodiscard]] std::string_view to_string(SubmitStatus status);

/// Aggregated across all shards; available after drain().
struct ServeStats {
  std::int64_t submitted{0};             ///< events the handoffs accepted
  std::int64_t rejected_backpressure{0}; ///< kRejectedQueueFull verdicts
  std::int64_t processed{0};             ///< events consumed by workers
  std::int64_t rounds_completed{0};
  std::int64_t rounds_abandoned{0};  ///< open at shutdown, never closed
  /// kReject only: events whose round was never opened (its round_open was
  /// shed) -- dropped, not fatal.
  std::int64_t orphaned_events{0};
  /// kReject only: rounds dropped mid-flight because shedding punched a
  /// hole in their event sequence (e.g. a lost slot_tick).
  std::int64_t rounds_corrupted{0};
  std::int64_t tasks_announced{0};
  std::int64_t bids_admitted{0};
  std::int64_t bids_rejected_reserve{0};
  /// Highest queue depth any shard reached (max-merged at drain). The
  /// value itself is scheduling-dependent; only the merge is deterministic.
  std::int64_t queue_high_watermark{0};
  Money total_paid;
};

/// The shard of a round its producer never opened: splitmix64 of the id,
/// independent of std::hash, so every producer routes it to one shard.
[[nodiscard]] int shard_of_round(std::int64_t round, int shards);

class ServeEngine {
 public:
  explicit ServeEngine(ServeConfig config);
  /// Joins the workers; pending events are still drained, but outcomes and
  /// stats of an un-drained engine are discarded.
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Retention bound of each shard's spare round machines (see the file
  /// comment), by RoundMachine::retained_bytes. A machine recycled over the
  /// paper's largest rounds (m = 80, lambda = 8) holds ~83 KB.
  static constexpr std::size_t kMaxSpareRounds = 8;
  static constexpr std::size_t kMaxSpareBytes = std::size_t{1} << 20;

  [[nodiscard]] const ServeConfig& config() const { return config_; }

  /// Hands a batch of events to ONE shard under a single queue-lock
  /// acquisition, all-or-nothing: under kReject a full queue sheds the
  /// entire batch (counted per event), under kBlock the call waits until
  /// the whole batch fits. A round split over two shards is never opened
  /// on the second. Thread-safe. Use ShardBatcher, which places rounds.
  SubmitStatus submit_batch(int shard_index, const ServeEvent* events,
                            std::size_t count);

  /// Events queued on `shard` plus those its worker holds (lock-free).
  [[nodiscard]] std::size_t shard_load(int shard) const {
    return shards_[static_cast<std::size_t>(shard)]->queue.occupied();
  }

  /// Graceful shutdown: closes the queues, waits for every queued event to
  /// be processed, joins the workers, merges shard telemetry into the
  /// registry installed at construction, and aggregates stats. Idempotent.
  /// Throws InvalidArgumentError when any shard hit a stream error (first
  /// error by shard index).
  void drain();

  /// Completed rounds, sorted by round id; rounds that reuse an id come
  /// in the order they completed. Requires drain() and
  /// config().retain_outcomes; moves out.
  [[nodiscard]] std::vector<RoundOutcome> take_outcomes();

  /// Aggregated stats. Requires drain().
  [[nodiscard]] const ServeStats& stats() const;

 private:
  static constexpr std::size_t kEventKinds =
      static_cast<std::size_t>(ServeEventKind::kRoundClose) + 1;

  struct Shard {
    Shard(int shard_index, std::size_t queue_capacity)
        : index(shard_index), queue(queue_capacity) {}

    int index;
    EventRing queue;  ///< preallocated bounded ring; see serve/queue.hpp
    SystemLane* lane{nullptr};  ///< in lanes_; null with no timed plane
    std::thread worker;
    obs::MetricsRegistry registry;  ///< used only when telemetry is on
    /// Only with retain_outcomes: (completion ticket, outcome) per round.
    std::vector<std::pair<std::uint64_t, RoundOutcome>> outcomes;
    ServeStats stats;    ///< worker-local; folded into totals at drain
    /// Worker-local serve.events.* counts by ServeEventKind, published to
    /// `registry` when the worker exits.
    std::array<std::int64_t, kEventKinds> event_counts{};
    /// Worker-local auction.settlement.slots_walked of the shard's rounds
    /// (closed, corrupted or abandoned), published at exit.
    std::int64_t slots_walked{0};
    std::string error;   ///< first stream error, empty = clean
  };

  /// One in-flight round of a worker. trace.open_ns stamps its round_open
  /// pickup (0 with no timed plane); the trace plane fills the rest.
  struct OpenRound {
    RoundMachine machine;
    obs::RoundTrace trace;
  };
  using RoundTable = std::unordered_map<std::int64_t, OpenRound>;
  /// A worker's rounds: the open ones by id, and the table nodes of retired
  /// ones kept for the next round_open (within the retention bound).
  /// Rounds enter and leave `open` only through insert/emplace and extract,
  /// which keep the remembered lookup valid.
  struct Rounds {
    RoundTable open;
    std::vector<RoundTable::node_type> spares;

    /// The open round `round`, or open.end(). The round last looked up or
    /// inserted is remembered, so a run of one round's events is hashed
    /// once.
    RoundTable::iterator find(std::int64_t round) {
      if (!last_ || (*last_)->first != round) {
        const RoundTable::iterator it = open.find(round);
        if (it == open.end()) return it;
        last_ = it;
      }
      return *last_;
    }
    /// Adds an open round; an insert may rehash, so it becomes the one
    /// remembered.
    RoundTable::iterator insert(RoundTable::node_type&& node) {
      return *(last_ = open.insert(std::move(node)).position);
    }
    RoundTable::iterator emplace(std::int64_t round, RoundMachine&& machine) {
      return *(last_ = open.emplace(round, std::move(machine)).first);
    }
    /// Takes an open round out; the remembered lookup is dropped with it.
    RoundTable::node_type extract(RoundTable::iterator it) {
      last_.reset();
      return open.extract(it);
    }

   private:
    std::optional<RoundTable::iterator> last_;
  };

  void worker_main(Shard& shard);
  void process_event(Shard& shard, Rounds& rounds, const ServeEvent& event,
                     std::uint64_t enqueue_ns);
  /// Removes a round that ended at `end_ns` (kCompleted: its close pickup,
  /// with its settle stamp and econ verdict; or kCorrupted, kAbandoned):
  /// adds its slots_walked, records a completed round's latency in the
  /// system lane, seals its trace, and keeps its machine as a spare.
  void end_round(Shard& shard, Rounds& rounds, RoundTable::iterator it,
                 obs::TraceStatus status, std::uint64_t end_ns,
                 std::uint64_t settled_ns = 0, std::int64_t violations = 0);
  /// Nanoseconds since construction on the steady clock when a live or
  /// trace plane is attached; 0 (and no clock read) otherwise.
  [[nodiscard]] std::uint64_t stamp_ns() const;

  ServeConfig config_;
  std::uint64_t epoch_ns_{0};   ///< steady-clock reading at construction
  /// One per shard when a timed plane is attached, shared with its attach.
  std::shared_ptr<SystemLanes> lanes_;
  obs::MetricsRegistry* parent_registry_;  ///< merge target; may be null
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::int64_t> submitted_{0};
  std::atomic<std::int64_t> rejected_{0};
  std::atomic<std::uint64_t> completions_{0};  ///< next completion ticket
  std::atomic<bool> stopping_{false};
  bool drained_{false};
  ServeStats totals_;
};

/// The engine's one producer front: one ShardBatcher per producer thread
/// (NOT thread-safe itself; the engine handoff underneath is). A round_open
/// places its round on the least-loaded shard (shard_load() plus this
/// batcher's unflushed events; ties go to the shard after the last chosen)
/// and records it in the batcher's own table, which round_close erases; a
/// reused open id keeps its shard, and a round never opened here goes to
/// shard_of_round. So a round's events must all come through one batcher.
///
/// Events accumulate in a per-shard buffer and are flushed to their
/// shard's queue when the buffer reaches the engine's configured
/// batch_size -- so the queue lock is taken once per batch instead of once
/// per event. Events of one round keep their submission order (they share
/// a shard and a buffer), which preserves the engine's determinism
/// guarantee. At batch_size 1 each add() is one single-event submit_batch.
///
/// Under kReject admission the shed granularity becomes the batch: a full
/// queue drops the whole flushed buffer (every event counted rejected).
/// flush() pushes out every partial buffer; the destructor flushes too,
/// swallowing the verdict -- call flush() explicitly when you need it.
class ShardBatcher {
 public:
  explicit ShardBatcher(ServeEngine& engine);
  ~ShardBatcher();

  ShardBatcher(const ShardBatcher&) = delete;
  ShardBatcher& operator=(const ShardBatcher&) = delete;

  /// Buffers one event; flushes its shard's buffer when full. Returns
  /// kAccepted when merely buffered, otherwise the flush verdict.
  SubmitStatus add(const ServeEvent& event);

  /// Flushes every non-empty buffer (in shard order). Returns kAccepted
  /// only if every flush was accepted, else the first failure's verdict.
  SubmitStatus flush();

  /// Exact per-event accounting across all flushes so far: events the
  /// engine admitted, and events lost to non-accepted flushes (shed or
  /// stopped -- whole batches under the all-or-nothing handoff).
  [[nodiscard]] std::int64_t accepted_events() const { return accepted_; }
  [[nodiscard]] std::int64_t rejected_events() const { return rejected_; }

 private:
  SubmitStatus flush_shard(std::size_t shard);
  int route(const ServeEvent& event);  ///< see the class comment

  ServeEngine& engine_;
  std::size_t batch_size_;
  std::vector<std::vector<ServeEvent>> buffers_;  ///< one per shard
  std::unordered_map<std::int64_t, int> open_;  ///< its open rounds' shards
  decltype(open_)::node_type spare_;  ///< a closed round's node, for reuse
  int last_placed_{-1};               ///< the shard last chosen
  std::int64_t last_round_{0};  ///< round of the previous add()
  int last_shard_{-1};          ///< its shard; -1 before the first add()
  std::int64_t accepted_{0};
  std::int64_t rejected_{0};
};

}  // namespace mcs::serve
