#include "io/cli.hpp"

#include <charconv>
#include <iostream>
#include <sstream>

#include "common/assert.hpp"
#include "common/error.hpp"

namespace mcs::io {

namespace {

std::int64_t parse_int(const std::string& name, const std::string& text) {
  std::int64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw InvalidArgumentError("flag --" + name + " expects an integer, got '" +
                               text + "'");
  }
  return out;
}

double parse_double(const std::string& name, const std::string& text) {
  try {
    std::size_t pos = 0;
    const double out = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return out;
  } catch (const std::exception&) {
    throw InvalidArgumentError("flag --" + name + " expects a number, got '" +
                               text + "'");
  }
}

}  // namespace

CliParser::CliParser(std::string program_summary)
    : summary_(std::move(program_summary)) {
  add_switch("help", "print this usage text and exit");
}

void CliParser::add_string(const std::string& name, std::string default_value,
                           std::string description) {
  MCS_EXPECTS(!flags_.contains(name), "duplicate flag registration");
  flags_[name] = Flag{Kind::kString, default_value, std::move(default_value),
                      std::move(description), false};
}

void CliParser::add_int(const std::string& name, std::int64_t default_value,
                        std::string description) {
  MCS_EXPECTS(!flags_.contains(name), "duplicate flag registration");
  const std::string text = std::to_string(default_value);
  flags_[name] = Flag{Kind::kInt, text, text, std::move(description), false};
}

void CliParser::add_double(const std::string& name, double default_value,
                           std::string description) {
  MCS_EXPECTS(!flags_.contains(name), "duplicate flag registration");
  std::ostringstream os;
  os << default_value;
  flags_[name] = Flag{Kind::kDouble, os.str(), os.str(), std::move(description),
                      false};
}

void CliParser::add_switch(const std::string& name, std::string description) {
  MCS_EXPECTS(!flags_.contains(name), "duplicate flag registration");
  flags_[name] = Flag{Kind::kSwitch, "0", "0", std::move(description), false};
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw InvalidArgumentError("unexpected positional argument '" + arg +
                                 "'");
    }
    std::string name = arg.substr(2);
    std::string inline_value;
    bool has_inline_value = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name.resize(eq);
      has_inline_value = true;
    }
    const auto it = flags_.find(name);
    if (it == flags_.end()) {
      throw InvalidArgumentError("unknown flag --" + name + "\n" +
                                 usage(argv[0]));
    }
    Flag& flag = it->second;
    flag.seen = true;
    if (flag.kind == Kind::kSwitch) {
      if (has_inline_value) {
        throw InvalidArgumentError("switch --" + name + " takes no value");
      }
      flag.value = "1";
      continue;
    }
    if (!has_inline_value) {
      if (i + 1 >= argc) {
        throw InvalidArgumentError("flag --" + name + " requires a value");
      }
      inline_value = argv[++i];
    }
    // Validate eagerly so errors point at the offending flag.
    if (flag.kind == Kind::kInt) parse_int(name, inline_value);
    if (flag.kind == Kind::kDouble) parse_double(name, inline_value);
    flag.value = inline_value;
  }
  if (get_switch("help")) {
    std::cout << usage(argv[0]);
    return false;
  }
  return true;
}

const CliParser::Flag& CliParser::find(const std::string& name,
                                       Kind kind) const {
  const auto it = flags_.find(name);
  MCS_EXPECTS(it != flags_.end(), "flag was never registered: " + name);
  MCS_EXPECTS(it->second.kind == kind, "flag accessed with wrong type: " + name);
  return it->second;
}

std::string CliParser::get_string(const std::string& name) const {
  return find(name, Kind::kString).value;
}

std::int64_t CliParser::get_int(const std::string& name) const {
  return parse_int(name, find(name, Kind::kInt).value);
}

void CliParser::throw_out_of_range(const std::string& name,
                                   std::int64_t value, const std::string& min,
                                   const std::string& max) {
  throw InvalidArgumentError("flag --" + name + " must be in [" + min + ", " +
                             max + "], got " + std::to_string(value));
}

double CliParser::get_double(const std::string& name) const {
  return parse_double(name, find(name, Kind::kDouble).value);
}

bool CliParser::get_switch(const std::string& name) const {
  return find(name, Kind::kSwitch).value == "1";
}

std::string CliParser::usage(const std::string& argv0) const {
  std::ostringstream os;
  os << summary_ << "\n\nUsage: " << argv0 << " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name;
    if (flag.kind != Kind::kSwitch) os << " <value>";
    os << "  " << flag.description;
    if (flag.kind != Kind::kSwitch) os << " (default: " << flag.default_value << ')';
    os << '\n';
  }
  return os.str();
}

}  // namespace mcs::io
