#include "io/line_reader.hpp"

#include <istream>

namespace mcs::io {

LineRead read_line(std::istream& is, std::string& line,
                   std::size_t max_bytes) {
  line.clear();
  line.reserve(max_bytes);
  for (std::streambuf* buffer = is.rdbuf();;) {
    const int c = buffer->sbumpc();
    if (c == std::char_traits<char>::eof()) {
      is.setstate(std::ios::eofbit);
      return line.empty() ? LineRead::kEnd : LineRead::kLine;
    }
    if (c == '\n') return LineRead::kLine;
    if (line.size() == max_bytes) return LineRead::kTooLong;
    line.push_back(static_cast<char>(c));
  }
}

}  // namespace mcs::io
