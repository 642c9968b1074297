// Auction outcomes: allocation + payments.
//
// An Allocation maps tasks to winning smartphones (the paper's allocation
// rule pi); an Outcome adds the payment vector p. Welfare and utilities are
// *derived* quantities with two flavors the library keeps rigorously apart:
//
//  * true welfare / utility: evaluated against the Scenario's private costs
//    (what Definitions 1-3 mean) -- used by all audits and metrics;
//  * claimed welfare: evaluated against the submitted bids -- what the
//    winning-bids determination algorithms actually optimize (Section IV-C
//    remarks on exactly this distinction).
#pragma once

#include <optional>
#include <vector>

#include "common/money.hpp"
#include "common/types.hpp"
#include "model/scenario.hpp"

namespace mcs::auction {

/// The allocation rule's output: which phone serves each task.
class Allocation {
 public:
  Allocation() = default;

  /// Creates an empty allocation for the given scenario shape.
  Allocation(int task_count, int phone_count);

  /// Records that `task` is served by `phone`; each side may be assigned at
  /// most once (constraint (5) of the winning-bids determination problem).
  /// The task is served in its arrival slot (the paper's model).
  void assign(TaskId task, PhoneId phone);

  [[nodiscard]] std::optional<PhoneId> phone_for(TaskId task) const;
  [[nodiscard]] std::optional<TaskId> task_for(PhoneId phone) const;
  [[nodiscard]] bool is_winner(PhoneId phone) const;

  [[nodiscard]] int task_count() const {
    return static_cast<int>(task_to_phone_.size());
  }
  [[nodiscard]] int phone_count() const {
    return static_cast<int>(phone_to_task_.size());
  }

  /// Number of allocated tasks.
  [[nodiscard]] int allocated_count() const;

  /// All winners in PhoneId order.
  [[nodiscard]] std::vector<PhoneId> winners() const;

  /// Checks structural validity against a scenario and bid profile: every
  /// task's slot within the reported window of its phone (constraint (6)).
  /// Throws ContractViolation on failure.
  void validate(const model::Scenario& scenario,
                const model::BidProfile& bids) const;

 private:
  std::vector<std::optional<PhoneId>> task_to_phone_;
  std::vector<std::optional<TaskId>> phone_to_task_;
};

/// Allocation plus the payment rule's output.
struct Outcome {
  Allocation allocation;
  std::vector<Money> payments;  ///< per phone; losers must be paid 0

  /// Sum of nu - c_i over allocated tasks (Definition 3, true costs).
  [[nodiscard]] Money social_welfare(const model::Scenario& scenario) const;

  /// Sum of nu - b_i over allocated tasks (what the solvers maximize).
  [[nodiscard]] Money claimed_welfare(const model::Scenario& scenario,
                                      const model::BidProfile& bids) const;

  /// Total money paid out by the platform.
  [[nodiscard]] Money total_payment() const;

  /// Sum of true costs of the winners (the overpayment-ratio denominator).
  [[nodiscard]] Money total_true_cost(const model::Scenario& scenario) const;

  /// Utility of one phone: payment minus true cost if it serves a task,
  /// otherwise just its payment (which a sane mechanism keeps at 0).
  [[nodiscard]] Money utility(const model::Scenario& scenario,
                              PhoneId phone) const;

  /// Structural checks: payment vector sized to phones, losers paid 0,
  /// allocation valid. Throws ContractViolation on failure.
  void validate(const model::Scenario& scenario,
                const model::BidProfile& bids) const;
};

}  // namespace mcs::auction
