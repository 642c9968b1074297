// Plain-text scenario persistence.
//
// Lets users run the mechanisms on their own traces and archive generated
// workloads next to experiment results. The format is line-oriented and
// diff-friendly:
//
//   mcs-scenario v1
//   # comments and blank lines are ignored
//   slots 5
//   value 20            # scenario-wide nu
//   phone 2 5 3         # begin end cost      (one line per smartphone)
//   task 1              # arrival slot
//   task 3 value 30     # weighted task (per-task value override)
//
// Money fields use the Money::to_string decimal format. Reading validates
// the result (Scenario::validate), so a loaded scenario carries the same
// guarantees as a built one; parse errors report the offending line. A line
// longer than kMaxScenarioLineBytes is refused before more of it is buffered.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "model/scenario.hpp"

namespace mcs::model {

/// Longest scenario line read_scenario accepts, without its '\n'. The
/// writer's longest line is under 100 bytes.
inline constexpr std::size_t kMaxScenarioLineBytes = 4096;

/// Writes the scenario in the format above (deterministic output:
/// phones in id order, then tasks in id order).
void write_scenario(std::ostream& os, const Scenario& scenario);

/// Parses a scenario; throws InvalidScenarioError with a line reference on
/// malformed input, and validates the result.
[[nodiscard]] Scenario read_scenario(std::istream& is);

/// File convenience wrappers; throw IoError on filesystem problems.
void save_scenario(const std::string& path, const Scenario& scenario);
[[nodiscard]] Scenario load_scenario(const std::string& path);

}  // namespace mcs::model
