#include "model/scenario_io.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "io/line_reader.hpp"

namespace mcs::model {

namespace {

constexpr const char* kHeader = "mcs-scenario v1";

[[noreturn]] void parse_error(int line_number, const std::string& message) {
  std::ostringstream os;
  os << "scenario parse error at line " << line_number << ": " << message;
  throw InvalidScenarioError(os.str());
}

/// Splits on whitespace, dropping everything after a '#'.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line.substr(0, line.find('#')));
  std::string token;
  while (is >> token) tokens.push_back(token);
  return tokens;
}

/// Parses a slot-typed field. A value outside Slot::rep_type is an error,
/// not a silent narrowing (4294967297 must not load as slot 1).
Slot::rep_type parse_slot(const std::string& token, int line_number,
                          const char* what) {
  std::int64_t value = 0;
  try {
    std::size_t pos = 0;
    value = std::stoll(token, &pos);
    if (pos != token.size()) throw std::invalid_argument(token);
  } catch (const std::exception&) {
    parse_error(line_number, std::string("expected integer for ") + what +
                                 ", got '" + token + "'");
  }
  using Limits = std::numeric_limits<Slot::rep_type>;
  if (value < Limits::min() || value > Limits::max()) {
    parse_error(line_number, std::string(what) + " out of range, got '" +
                                 token + "'");
  }
  return static_cast<Slot::rep_type>(value);
}

Money parse_money(const std::string& token, int line_number, const char* what) {
  try {
    return Money::parse(token);
  } catch (const InvalidArgumentError&) {
    parse_error(line_number, std::string("expected amount for ") + what +
                                 ", got '" + token + "'");
  }
}

}  // namespace

void write_scenario(std::ostream& os, const Scenario& scenario) {
  scenario.validate();
  os << kHeader << '\n';
  os << "slots " << scenario.num_slots << '\n';
  os << "value " << scenario.task_value << '\n';
  for (const TrueProfile& phone : scenario.phones) {
    os << "phone " << phone.active.begin() << ' ' << phone.active.end() << ' '
       << phone.cost << '\n';
  }
  for (const Task& task : scenario.tasks) {
    os << "task " << task.slot;
    if (task.value) os << " value " << *task.value;
    os << '\n';
  }
}

Scenario read_scenario(std::istream& is) {
  Scenario scenario;
  bool saw_header = false;
  bool saw_slots = false;
  std::string line;
  int line_number = 0;

  for (;;) {
    const io::LineRead read = io::read_line(is, line, kMaxScenarioLineBytes);
    if (read == io::LineRead::kEnd) break;
    ++line_number;
    if (read == io::LineRead::kTooLong) {
      parse_error(line_number, "longer than " +
                                   std::to_string(kMaxScenarioLineBytes) +
                                   " bytes");
    }
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) continue;

    if (!saw_header) {
      // The header is matched on the raw (comment-stripped) tokens.
      if (tokens.size() == 2 && tokens[0] == "mcs-scenario" &&
          tokens[1] == "v1") {
        saw_header = true;
        continue;
      }
      parse_error(line_number, "missing 'mcs-scenario v1' header");
    }

    const std::string& keyword = tokens[0];
    if (keyword == "slots") {
      if (tokens.size() != 2) parse_error(line_number, "slots takes one value");
      scenario.num_slots = parse_slot(tokens[1], line_number, "slots");
      saw_slots = true;
    } else if (keyword == "value") {
      if (tokens.size() != 2) parse_error(line_number, "value takes one amount");
      scenario.task_value = parse_money(tokens[1], line_number, "value");
    } else if (keyword == "phone") {
      if (tokens.size() != 4) {
        parse_error(line_number, "phone takes: begin end cost");
      }
      const Slot::rep_type begin =
          parse_slot(tokens[1], line_number, "phone begin");
      const Slot::rep_type end = parse_slot(tokens[2], line_number, "phone end");
      if (begin > end) parse_error(line_number, "phone window inverted");
      scenario.phones.push_back(
          TrueProfile{SlotInterval::of(begin, end),
                      parse_money(tokens[3], line_number, "phone cost")});
    } else if (keyword == "task") {
      if (tokens.size() != 2 && !(tokens.size() == 4 && tokens[2] == "value")) {
        parse_error(line_number, "task takes: slot [value <amount>]");
      }
      Task task{TaskId{static_cast<int>(scenario.tasks.size())},
                Slot{parse_slot(tokens[1], line_number, "task slot")},
                {}};
      if (tokens.size() == 4) {
        task.value = parse_money(tokens[3], line_number, "task value");
      }
      scenario.tasks.push_back(task);
    } else {
      parse_error(line_number, "unknown keyword '" + keyword + "'");
    }
  }

  if (!saw_header) parse_error(line_number + 1, "empty input (no header)");
  if (!saw_slots) parse_error(line_number + 1, "missing 'slots' line");

  // Tasks may appear in any order in the file; restore the dense-id,
  // sorted-by-slot invariant.
  std::stable_sort(scenario.tasks.begin(), scenario.tasks.end(),
                   [](const Task& a, const Task& b) { return a.slot < b.slot; });
  for (std::size_t k = 0; k < scenario.tasks.size(); ++k) {
    scenario.tasks[k].id = TaskId{static_cast<int>(k)};
  }
  scenario.validate();
  return scenario;
}

void save_scenario(const std::string& path, const Scenario& scenario) {
  std::ofstream file(path);
  if (!file) throw IoError("cannot open scenario file for writing: " + path);
  write_scenario(file, scenario);
  if (!file) throw IoError("error while writing scenario file: " + path);
}

Scenario load_scenario(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw IoError("cannot open scenario file: " + path);
  return read_scenario(file);
}

}  // namespace mcs::model
