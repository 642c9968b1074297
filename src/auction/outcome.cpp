#include "auction/outcome.hpp"

#include "common/assert.hpp"

namespace mcs::auction {

Allocation::Allocation(int task_count, int phone_count) {
  MCS_EXPECTS(task_count >= 0 && phone_count >= 0,
              "allocation shape must be nonnegative");
  task_to_phone_.assign(static_cast<std::size_t>(task_count), std::nullopt);
  phone_to_task_.assign(static_cast<std::size_t>(phone_count), std::nullopt);
}

void Allocation::assign(TaskId task, PhoneId phone) {
  MCS_EXPECTS(task.value() >= 0 && task.value() < task_count(),
              "task id out of range");
  MCS_EXPECTS(phone.value() >= 0 && phone.value() < phone_count(),
              "phone id out of range");
  auto& t_slot = task_to_phone_[static_cast<std::size_t>(task.value())];
  auto& p_slot = phone_to_task_[static_cast<std::size_t>(phone.value())];
  MCS_EXPECTS(!t_slot.has_value(), "task already allocated");
  MCS_EXPECTS(!p_slot.has_value(), "phone already has a task");
  t_slot = phone;
  p_slot = task;
}

std::optional<PhoneId> Allocation::phone_for(TaskId task) const {
  MCS_EXPECTS(task.value() >= 0 && task.value() < task_count(),
              "task id out of range");
  return task_to_phone_[static_cast<std::size_t>(task.value())];
}

std::optional<TaskId> Allocation::task_for(PhoneId phone) const {
  MCS_EXPECTS(phone.value() >= 0 && phone.value() < phone_count(),
              "phone id out of range");
  return phone_to_task_[static_cast<std::size_t>(phone.value())];
}

bool Allocation::is_winner(PhoneId phone) const {
  return task_for(phone).has_value();
}

int Allocation::allocated_count() const {
  int count = 0;
  for (const auto& phone : task_to_phone_) {
    if (phone) ++count;
  }
  return count;
}

std::vector<PhoneId> Allocation::winners() const {
  std::vector<PhoneId> result;
  for (int i = 0; i < phone_count(); ++i) {
    if (phone_to_task_[static_cast<std::size_t>(i)]) {
      result.push_back(PhoneId{i});
    }
  }
  return result;
}

void Allocation::validate(const model::Scenario& scenario,
                          const model::BidProfile& bids) const {
  MCS_ASSERT(task_count() == scenario.task_count(),
             "allocation task count mismatch");
  MCS_ASSERT(phone_count() == scenario.phone_count(),
             "allocation phone count mismatch");
  MCS_ASSERT(bids.size() == scenario.phones.size(), "bid profile mismatch");
  for (int t = 0; t < task_count(); ++t) {
    const auto& phone = task_to_phone_[static_cast<std::size_t>(t)];
    if (!phone) continue;
    // Cross-link consistency.
    const auto& back = phone_to_task_[static_cast<std::size_t>(phone->value())];
    MCS_ASSERT(back && back->value() == t, "allocation cross-links broken");
    // Constraint (6): service, in the task's slot, within the reported
    // active window.
    const Slot service = scenario.tasks[static_cast<std::size_t>(t)].slot;
    const model::Bid& bid = bids[static_cast<std::size_t>(phone->value())];
    MCS_ASSERT(bid.window.contains(service),
               "task served outside the phone's reported window");
  }
}

Money Outcome::social_welfare(const model::Scenario& scenario) const {
  Money welfare;
  for (int t = 0; t < allocation.task_count(); ++t) {
    if (const auto phone = allocation.phone_for(TaskId{t})) {
      welfare += scenario.value_of(TaskId{t}) - scenario.phone(*phone).cost;
    }
  }
  return welfare;
}

Money Outcome::claimed_welfare(const model::Scenario& scenario,
                               const model::BidProfile& bids) const {
  Money welfare;
  for (int t = 0; t < allocation.task_count(); ++t) {
    if (const auto phone = allocation.phone_for(TaskId{t})) {
      welfare += scenario.value_of(TaskId{t}) -
                 bids[static_cast<std::size_t>(phone->value())].claimed_cost;
    }
  }
  return welfare;
}

Money Outcome::total_payment() const {
  Money total;
  for (const Money p : payments) total += p;
  return total;
}

Money Outcome::total_true_cost(const model::Scenario& scenario) const {
  Money total;
  for (const PhoneId winner : allocation.winners()) {
    total += scenario.phone(winner).cost;
  }
  return total;
}

Money Outcome::utility(const model::Scenario& scenario, PhoneId phone) const {
  MCS_EXPECTS(phone.value() >= 0 &&
                  static_cast<std::size_t>(phone.value()) < payments.size(),
              "phone id out of range");
  const Money payment = payments[static_cast<std::size_t>(phone.value())];
  if (allocation.is_winner(phone)) {
    return payment - scenario.phone(phone).cost;
  }
  return payment;
}

void Outcome::validate(const model::Scenario& scenario,
                       const model::BidProfile& bids) const {
  allocation.validate(scenario, bids);
  MCS_ASSERT(payments.size() == scenario.phones.size(),
             "payment vector size mismatch");
  for (int i = 0; i < scenario.phone_count(); ++i) {
    if (!allocation.is_winner(PhoneId{i})) {
      MCS_ASSERT(payments[static_cast<std::size_t>(i)].is_zero(),
                 "loser received a nonzero payment");
    }
  }
}

}  // namespace mcs::auction
