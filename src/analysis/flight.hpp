// Flight-recorder run capture, deterministic replay, and per-bidder
// explanation (the tooling side of obs/event_log.hpp).
//
// record_run() executes a mechanism with an event log installed and
// brackets the decision trail with two bookkeeping records:
//
//   run_started   -- the full inputs (scenario text, encoded bid profile)
//                    and the mechanism configuration, enough to re-execute
//                    the run from the log alone;
//   run_finished  -- the outcome in a canonical one-line encoding.
//
// replay_run() closes the loop: it re-executes the recorded scenario/bid
// profile through the recorded mechanism configuration and byte-compares
// the reproduced outcome encoding against the recorded one. A clean replay
// certifies the log is a faithful record of a deterministic run -- the CI
// determinism oracle behind `mcs_cli replay`. explain_phone() renders one
// bidder's view of the trail (admission, pools, wins, payment and its
// certificate) as a plain-text narrative -- `mcs_cli explain`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "auction/mechanism.hpp"
#include "auction/online_greedy.hpp"
#include "io/json_parse.hpp"
#include "model/scenario.hpp"
#include "obs/event_log.hpp"

namespace mcs::analysis {

/// Mechanism selection as the CLI exposes it. The string form (rather than
/// a Mechanism*) is what travels inside run_started records, so a replay
/// can reconstruct the exact configuration.
struct RunSpec {
  std::string mechanism = "online";  ///< online|offline|second-price
  double reserve = 0.0;              ///< online reserve price (0 = none)
  bool profitable_only = false;      ///< skip bids above the task value
};

/// Builds the named mechanism -- online, offline or second-price, the
/// greedy ones under `config` -- for the CLI, replays and the arena. Throws
/// InvalidArgumentError on any other name (a recording whose run_started
/// names one, too).
[[nodiscard]] std::unique_ptr<auction::Mechanism> make_mechanism(
    std::string_view name, const auction::OnlineGreedyConfig& config);

/// The mechanism a RunSpec names.
[[nodiscard]] std::unique_ptr<auction::Mechanism> make_mechanism(
    const RunSpec& spec);

/// Canonical one-line encodings used inside run_started / run_finished
/// records. Deterministic and exact (Money via to_string), so equality of
/// encodings is equality of the encoded values.
[[nodiscard]] std::string encode_bids(const model::BidProfile& bids);
[[nodiscard]] model::BidProfile decode_bids(const std::string& text);
[[nodiscard]] std::string encode_outcome(const auction::Outcome& outcome);

/// Runs `spec`'s mechanism on (scenario, bids) with `log` installed for the
/// calling thread, recording the full decision trail bracketed by
/// run_started / run_finished. An online run also certifies every winner's
/// payment (auction::audit_winner_payment), so the log carries one
/// payment_certificate record per winner.
auction::Outcome record_run(obs::EventLog& log, const RunSpec& spec,
                            const model::Scenario& scenario,
                            const model::BidProfile& bids);

struct ReplayReport {
  bool clean = false;         ///< reproduced encoding == recorded encoding
  std::string mechanism;      ///< mechanism named by the recorded run
  std::uint64_t events = 0;   ///< records read from the log
  std::string recorded;       ///< outcome encoding stored in run_finished
  std::string reproduced;     ///< outcome encoding of the re-executed run
  std::string diff;           ///< empty when clean, else first-divergence note
};

/// Reads a JSONL event log, re-executes the recorded run, and compares
/// outcomes. Throws InvalidArgumentError when the stream is not a
/// mcs.events.v1 log containing exactly one run_started / run_finished
/// pair. Replay itself records no events.
[[nodiscard]] ReplayReport replay_run(std::istream& events_jsonl);

/// Narrates one phone's round from a JSONL event log: admission or
/// rejection, candidate-pool standing per slot, wins with runner-up
/// context, the payment derivation and its certificate. Records of kinds
/// no longer written (an older log's bisection probes) are skipped.
[[nodiscard]] std::string explain_phone(std::istream& events_jsonl,
                                        int phone);

/// One line for a payment_certificate record: verdict, forks, outcomes.
void narrate_payment_certificate(std::ostream& out,
                                 const io::JsonValue& record);

}  // namespace mcs::analysis
