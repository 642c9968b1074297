// Capped line reading for untrusted text: a line longer than the cap is
// refused the moment the cap is crossed, not after std::getline has
// buffered all of it.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

namespace mcs::io {

enum class LineRead { kLine, kEnd, kTooLong };

/// Reads the next line of `is` into `line`, without its '\n' (a last line
/// without one is a line too); `line` is reserved to `max_bytes` once.
/// kEnd: input ended before another line began. kTooLong: the line runs
/// past `max_bytes`, and the stream stops mid-line.
[[nodiscard]] LineRead read_line(std::istream& is, std::string& line,
                                 std::size_t max_bytes);

}  // namespace mcs::io
