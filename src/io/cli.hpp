// Tiny command-line flag parser for the bench/example binaries.
//
// Every figure harness accepts the same small vocabulary:
//   --reps N     repetitions per sweep point
//   --seed S     base RNG seed
//   --csv PATH   also dump the series as CSV
//   --help       print usage
// plus harness-specific flags registered by the binary. The parser is
// strict: unknown flags are an error (catches typos in scripted runs).
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mcs::io {

class CliParser {
 public:
  /// `program_summary` is printed by --help.
  explicit CliParser(std::string program_summary);

  /// Registers a flag taking a value; `description` is for --help.
  void add_string(const std::string& name, std::string default_value,
                  std::string description);
  void add_int(const std::string& name, std::int64_t default_value,
               std::string description);
  void add_double(const std::string& name, double default_value,
                  std::string description);
  /// Registers a boolean switch (present => true).
  void add_switch(const std::string& name, std::string description);

  /// Parses argv. Returns false if --help was requested (usage already
  /// printed); throws InvalidArgumentError on malformed input.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get_string(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  /// get_int narrowed to T. A value outside [min, max] throws
  /// InvalidArgumentError naming the flag instead of wrapping.
  template <std::integral T>
  [[nodiscard]] T get_int_in(const std::string& name, T min,
                             T max = std::numeric_limits<T>::max()) const {
    const std::int64_t value = get_int(name);
    if (std::cmp_less(value, min) || std::cmp_greater(value, max)) {
      throw_out_of_range(name, value, std::to_string(min),
                         std::to_string(max));
    }
    return static_cast<T>(value);
  }
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_switch(const std::string& name) const;

  /// Usage text (also printed on --help).
  [[nodiscard]] std::string usage(const std::string& argv0) const;

 private:
  enum class Kind { kString, kInt, kDouble, kSwitch };

  struct Flag {
    Kind kind;
    std::string value;      // canonical textual value
    std::string default_value;
    std::string description;
    bool seen{false};
  };

  const Flag& find(const std::string& name, Kind kind) const;
  [[noreturn]] static void throw_out_of_range(const std::string& name,
                                              std::int64_t value,
                                              const std::string& min,
                                              const std::string& max);

  std::string summary_;
  std::map<std::string, Flag> flags_;
};

}  // namespace mcs::io
