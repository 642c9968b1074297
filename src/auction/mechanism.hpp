// The mechanism interface: allocation rule + payment rule as one unit.
//
// Definition 8 splits a mechanism into the winning-bids determination rule
// pi and the payment rule p; implementations bundle both behind run(),
// which consumes the scenario (public task arrivals, private profiles used
// only for validation) and the submitted bid profile, and returns the full
// outcome. Every implementation validates its own outcome before returning
// (losers paid zero, allocations inside reported windows).
#pragma once

#include <memory>
#include <string>

#include "auction/outcome.hpp"
#include "model/scenario.hpp"

namespace mcs::auction {

class Mechanism {
 public:
  virtual ~Mechanism() = default;

  /// Runs allocation + payments on the submitted bids. Implementations must
  /// be deterministic functions of (scenario, bids).
  [[nodiscard]] virtual Outcome run(const model::Scenario& scenario,
                                    const model::BidProfile& bids) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Convenience: run on the truthful bid profile.
  [[nodiscard]] Outcome run_truthful(const model::Scenario& scenario) const;
};

}  // namespace mcs::auction
