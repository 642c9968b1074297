#include "serve/wire.hpp"

#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace mcs::serve {

namespace {

// Every rejection leaves the decoder through one of these out-of-line cold
// calls, so the decoder's own body is a straight run of loads and compares.
[[noreturn, gnu::cold, gnu::noinline]] void bad_frame(std::string_view what) {
  throw InvalidArgumentError(std::string(kWireSchema) + " frame: " +
                             std::string(what));
}

[[noreturn, gnu::cold, gnu::noinline]] void bad_length(std::uint32_t length) {
  bad_frame("implausible frame length " + std::to_string(length));
}

[[noreturn, gnu::cold, gnu::noinline]] void bad_layout(std::uint32_t length) {
  bad_frame("frame length " + std::to_string(length) +
            " does not match its kind's layout");
}

[[noreturn, gnu::cold, gnu::noinline]] void bad_kind(std::uint8_t kind) {
  bad_frame("unknown event kind " + std::to_string(kind));
}

[[noreturn, gnu::cold, gnu::noinline]] void bad_money(const char* field) {
  bad_frame("field '" + std::string(field) + "' outside the Money envelope");
}

// ---------------------------------------------------- little-endian fields
// Explicit byte shifts instead of memcpy: identical bytes on every host
// endianness, and the compiler folds them to single moves on LE targets.

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_i64(std::string& out, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((u >> (8 * i)) & 0xFF));
  }
}

std::uint16_t get_u16(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
}

std::uint32_t get_u32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

std::int32_t get_i32(const char* p) {
  return static_cast<std::int32_t>(get_u32(p));
}

std::int64_t get_i64(const char* p) {
  return static_cast<std::int64_t>(
      get_u32(p) | (static_cast<std::uint64_t>(get_u32(p + 4)) << 32));
}

// -------------------------------------------------------------- frame ABI

enum : std::uint8_t {
  kKindRoundOpen = 0,
  kKindTaskArrived = 1,
  kKindBidSubmitted = 2,
  kKindSlotTick = 3,
  kKindRoundClose = 4,
};

// Exact payload sizes (u8 kind + fields); the decoder requires equality.
constexpr std::size_t kRoundOpenBytes = 1 + 8 + 4 + 8;
constexpr std::size_t kTaskArrivedBytes = 1 + 8 + 4 + 4 + 1;
constexpr std::size_t kTaskArrivedValueBytes = kTaskArrivedBytes + 8;
constexpr std::size_t kBidSubmittedBytes = 1 + 8 + 4 + 4 + 4 + 8;
constexpr std::size_t kSlotTickBytes = 1 + 8 + 4;
constexpr std::size_t kRoundCloseBytes = 1 + 8;

/// Exact payload size of each kind; a task_arrived frame with a value is
/// kTaskArrivedValueBytes.
constexpr std::size_t kLayoutBytes[] = {kRoundOpenBytes, kTaskArrivedBytes,
                                        kBidSubmittedBytes, kSlotTickBytes,
                                        kRoundCloseBytes};

/// Shared Money envelope check (the JSONL side enforces the same bound
/// through Money::parse).
Money money_field(std::int64_t micros, const char* field) {
  if (micros > Money::max().micros() || micros < (-Money::max()).micros())
      [[unlikely]] {
    bad_money(field);
  }
  return Money::from_micros(micros);
}

/// The one frame decoder. Decodes the frame at the front of `bytes`
/// straight into `event`, writing every field, so no field of an earlier
/// event survives. Returns the frame's size (length prefix included), or 0
/// when `bytes` is a proper prefix of a well-formed frame (feed more).
/// Checks run in one fixed order -- the length, the kind, the frame's size
/// for its kind, the round, then each field in layout order -- so a frame
/// with several faults always reports the same one.
std::size_t decode_frame_into(std::string_view bytes, ServeEvent& event) {
  if (bytes.size() < 4) return 0;
  const std::uint32_t length = get_u32(bytes.data());
  if (length < 1 || length > kMaxWireFrameBytes) [[unlikely]] {
    bad_length(length);
  }
  if (bytes.size() < 4 + static_cast<std::size_t>(length)) return 0;
  const char* p = bytes.data() + 4;
  const auto kind = static_cast<std::uint8_t>(p[0]);
  if (kind > kKindRoundClose) [[unlikely]] bad_kind(kind);
  if (length != kLayoutBytes[kind] &&
      (kind != kKindTaskArrived || length != kTaskArrivedValueBytes))
      [[unlikely]] {
    bad_layout(length);
  }
  const std::int64_t round = get_i64(p + 1);
  if (round < 0 || round > kMaxServeRound) [[unlikely]] {
    bad_frame("round out of domain");
  }
  // Every field is written, the kind's own below: nothing of the previous
  // event survives.
  reset_fields(event);
  event.round = round;
  switch (kind) {
    case kKindRoundOpen: {
      const std::int32_t slots = get_i32(p + 9);
      if (slots < 1) [[unlikely]] bad_frame("slots out of domain");
      event.kind = ServeEventKind::kRoundOpen;
      event.num_slots = slots;
      event.round_value = money_field(get_i64(p + 13), "value");
      break;
    }
    case kKindTaskArrived: {
      const std::int32_t slot = get_i32(p + 9);
      const std::int32_t task = get_i32(p + 13);
      const char has_value = p[17];
      if (slot < 1) [[unlikely]] bad_frame("slot out of domain");
      if (task < 0) [[unlikely]] bad_frame("task out of domain");
      if (has_value != '\0' && has_value != '\1') [[unlikely]] {
        bad_frame("invalid has_value flag");
      }
      if ((has_value == '\1') != (length == kTaskArrivedValueBytes))
          [[unlikely]] {
        bad_frame("has_value flag contradicts the frame length");
      }
      event.kind = ServeEventKind::kTaskArrived;
      event.slot = Slot{slot};
      event.task = TaskId{task};
      if (has_value == '\1') {
        event.task_value = money_field(get_i64(p + 18), "value");
      }
      break;
    }
    case kKindBidSubmitted: {
      const std::int32_t agent = get_i32(p + 9);
      const std::int32_t from = get_i32(p + 13);
      const std::int32_t to = get_i32(p + 17);
      if (agent < 0) [[unlikely]] bad_frame("agent out of domain");
      if (from < 1) [[unlikely]] bad_frame("bid window begins before slot 1");
      if (to < from) [[unlikely]] bad_frame("bid window end precedes begin");
      const Money cost = money_field(get_i64(p + 21), "cost");
      if (cost.is_negative()) [[unlikely]] bad_frame("negative claimed cost");
      event.kind = ServeEventKind::kBidSubmitted;
      event.slot = Slot{from};  // phones bid when they join
      event.agent = PhoneId{agent};
      event.window = SlotInterval::of(from, to);
      event.claimed_cost = cost;
      break;
    }
    case kKindSlotTick: {
      const std::int32_t slot = get_i32(p + 9);
      if (slot < 1) [[unlikely]] bad_frame("slot out of domain");
      event.kind = ServeEventKind::kSlotTick;
      event.slot = Slot{slot};
      break;
    }
    default:  // kKindRoundClose
      event.kind = ServeEventKind::kRoundClose;
      break;
  }
  return 4 + static_cast<std::size_t>(length);
}

}  // namespace

void append_wire_header(std::string& out) {
  out.append(kWireMagic, sizeof kWireMagic);
  put_u16(out, kWireVersion);
  put_u16(out, 0);  // flags, must be zero in v1
}

void append_wire_frame(std::string& out, const ServeEvent& event) {
  std::size_t payload = 0;
  std::uint8_t kind = 0;
  switch (event.kind) {
    case ServeEventKind::kRoundOpen:
      payload = kRoundOpenBytes;
      kind = kKindRoundOpen;
      break;
    case ServeEventKind::kTaskArrived:
      payload = event.task_value ? kTaskArrivedValueBytes : kTaskArrivedBytes;
      kind = kKindTaskArrived;
      break;
    case ServeEventKind::kBidSubmitted:
      payload = kBidSubmittedBytes;
      kind = kKindBidSubmitted;
      break;
    case ServeEventKind::kSlotTick:
      payload = kSlotTickBytes;
      kind = kKindSlotTick;
      break;
    case ServeEventKind::kRoundClose:
      payload = kRoundCloseBytes;
      kind = kKindRoundClose;
      break;
  }
  out.reserve(out.size() + 4 + payload);
  put_u32(out, static_cast<std::uint32_t>(payload));
  out.push_back(static_cast<char>(kind));
  put_i64(out, event.round);
  switch (event.kind) {
    case ServeEventKind::kRoundOpen:
      put_i32(out, event.num_slots);
      put_i64(out, event.round_value.micros());
      break;
    case ServeEventKind::kTaskArrived:
      put_i32(out, event.slot.value());
      put_i32(out, event.task.value());
      out.push_back(event.task_value ? '\1' : '\0');
      if (event.task_value) put_i64(out, event.task_value->micros());
      break;
    case ServeEventKind::kBidSubmitted:
      put_i32(out, event.agent.value());
      put_i32(out, event.window.begin().value());
      put_i32(out, event.window.end().value());
      put_i64(out, event.claimed_cost.micros());
      break;
    case ServeEventKind::kSlotTick:
      put_i32(out, event.slot.value());
      break;
    case ServeEventKind::kRoundClose:
      break;
  }
}

std::optional<std::size_t> decode_wire_header(std::string_view bytes) {
  const std::size_t check = std::min(bytes.size(), sizeof kWireMagic);
  if (bytes.compare(0, check, kWireMagic, check) != 0) {
    bad_frame("bad stream magic (not an mcs.serve.b1 stream)");
  }
  if (bytes.size() < kWireHeaderBytes) return std::nullopt;
  const std::uint16_t version = get_u16(bytes.data() + 4);
  if (version != kWireVersion) {
    bad_frame("unsupported wire version " + std::to_string(version));
  }
  if (get_u16(bytes.data() + 6) != 0) bad_frame("nonzero header flags");
  return kWireHeaderBytes;
}

std::optional<DecodedFrame> decode_wire_frame(std::string_view bytes) {
  std::optional<DecodedFrame> decoded(std::in_place);
  decoded->consumed = decode_frame_into(bytes, decoded->event);
  if (decoded->consumed == 0) decoded.reset();
  return decoded;
}

std::int64_t WireDecoder::feed(
    std::string_view bytes,
    const std::function<void(const ServeEvent&)>& sink) {
  if (poisoned_) bad_frame("decoder already failed on this stream");
  // The largest thing a decode step reads: a length prefix and the largest
  // frame it may announce (more than the 8-byte header).
  constexpr std::size_t kMaxStep = 4 + kMaxWireFrameBytes;
  std::int64_t events = 0;
  ServeEvent event;  // every frame is decoded into it in place
  // Decodes the header or one frame at the front of `rest`; returns the
  // bytes it took, 0 when `rest` is a proper prefix of one (feed more).
  const auto step = [&](std::string_view rest) -> std::size_t {
    if (!header_done_) {
      const std::optional<std::size_t> header = decode_wire_header(rest);
      if (!header) return 0;
      header_done_ = true;
      return *header;
    }
    const std::size_t frame = decode_frame_into(rest, event);
    if (frame != 0) {
      ++events;
      sink(event);
    }
    return frame;
  };
  try {
    if (!carry_.empty()) {
      // A header or frame cut by the last chunk's end is completed from the
      // front of this one; the rest of the chunk is decoded where it sits.
      const std::size_t held = carry_.size();
      carry_.append(bytes.substr(0, kMaxStep - held));
      const std::size_t taken = step(carry_);
      if (taken == 0) return events;  // all of `bytes` is carried
      bytes.remove_prefix(taken - held);
      carry_.clear();
    }
    for (std::size_t taken = 0; !bytes.empty(); bytes.remove_prefix(taken)) {
      taken = step(bytes);
      if (taken == 0) break;
    }
  } catch (...) {
    poisoned_ = true;
    carry_.clear();
    throw;
  }
  if (!bytes.empty()) {
    carry_.reserve(kMaxStep);  // sized once: a carry never holds more
    carry_.assign(bytes);
  }
  return events;
}

// ------------------------------------------------------------ serve streams

std::string_view to_string(WireFormat format) {
  switch (format) {
    case WireFormat::kJsonl:
      return "jsonl";
    case WireFormat::kBinary:
      return "binary";
  }
  return "unknown";
}

WireFormat detect_stream_format(std::istream& is) {
  return is.peek() == kWireMagic[0] ? WireFormat::kBinary : WireFormat::kJsonl;
}

void StreamDecoder::feed(std::string_view bytes, const Sink& sink) {
  if (bytes.empty()) return;
  if (format_ == Format::kUnknown) {
    format_ = bytes.front() == kWireMagic[0] ? Format::kBinary : Format::kJsonl;
  }
  switch (format_) {
    case Format::kJsonl:
      feed_lines(bytes, sink);
      break;
    case Format::kBinary:
      try {
        events_ += wire_.feed(bytes, sink);
      } catch (const Error& e) {
        format_ = Format::kFailed;
        throw InvalidArgumentError(
            std::string(kWireSchema) + " stream, chunk at bytes " +
            std::to_string(offset_) + "-" +
            std::to_string(offset_ + bytes.size()) + ": " + e.what());
      }
      break;
    default:
      throw InvalidArgumentError("serve stream: fed after it failed");
  }
  offset_ += bytes.size();
}

void StreamDecoder::finish(const Sink& sink) {
  if (format_ == Format::kFailed) {
    throw InvalidArgumentError("serve stream: finished after it failed");
  }
  if (format_ == Format::kBinary && (!wire_.idle() || !wire_.header_seen())) {
    format_ = Format::kFailed;
    throw InvalidArgumentError(
        std::string(kWireSchema) + " stream: truncated at byte " +
        std::to_string(offset_) + " (ends mid-frame or inside its header)");
  }
  if (carry_.empty()) return;
  decode_line(carry_, sink, /*unterminated=*/true);
  carry_.clear();
}

void StreamDecoder::feed_lines(std::string_view bytes, const Sink& sink) {
  if (!carry_.empty()) {
    const std::size_t nl = bytes.find('\n');
    const std::size_t rest = nl == std::string_view::npos ? bytes.size() : nl;
    if (rest > kMaxJsonlLineBytes - carry_.size()) line_too_long();
    if (nl == std::string_view::npos) {
      carry_.append(bytes);
      return;
    }
    carry_.append(bytes.substr(0, nl));
    decode_line(carry_, sink, false);
    carry_.clear();
    bytes.remove_prefix(nl + 1);
  }
  while (!bytes.empty()) {
    // A canonical line is read where it sits. The view is clipped past the
    // cap, so a line the reader takes is never longer than the cap.
    const std::string_view view = bytes.substr(0, kMaxJsonlLineBytes + 1);
    const std::size_t end = read_canonical_line(view, event_);
    if (end != 0 && end < view.size() && view[end] == '\n') {
      ++line_;
      sink(event_);
      ++events_;
      bytes.remove_prefix(end + 1);
      continue;
    }
    const std::size_t nl = bytes.find('\n');
    if (nl == std::string_view::npos) break;
    if (nl > kMaxJsonlLineBytes) line_too_long();
    decode_line(bytes.substr(0, nl), sink, false);
    bytes.remove_prefix(nl + 1);
  }
  if (bytes.size() > kMaxJsonlLineBytes) line_too_long();
  if (!bytes.empty()) {
    carry_.reserve(kMaxJsonlLineBytes);  // sized once: a carry never holds more
    carry_.assign(bytes);
  }
}

void StreamDecoder::line_too_long() {
  format_ = Format::kFailed;
  throw InvalidArgumentError("line " + std::to_string(line_ + 1) +
                             ": longer than " +
                             std::to_string(kMaxJsonlLineBytes) + " bytes");
}

void StreamDecoder::decode_line(std::string_view line, const Sink& sink,
                                bool unterminated) {
  ++line_;
  if (line.empty()) return;
  // Decoded straight into `event`; only the decoder's errors are named.
  const std::optional<ServeEvent> event = [&] {
    try {
      return decode_serve_line(line);
    } catch (const Error& e) {
      format_ = Format::kFailed;
      // A last line without its '\n' that does not decode is a cut one.
      throw InvalidArgumentError(
          "line " + std::to_string(line_) + ": " + e.what() +
          (unterminated ? " (truncated: the stream ends inside this line)"
                        : ""));
    }
  }();
  if (!event) return;  // header line
  sink(*event);
  ++events_;
}

std::int64_t read_serve_stream(std::istream& is,
                               const StreamDecoder::Sink& sink) {
  StreamDecoder decoder;
  char chunk[1 << 16];
  while (is.read(chunk, sizeof chunk) || is.gcount() > 0) {
    decoder.feed(std::string_view(chunk, static_cast<std::size_t>(
                                             is.gcount())),
                 sink);
  }
  decoder.finish(sink);
  return decoder.events();
}

StreamWriter::StreamWriter(WireFormat format, Out out)
    : format_(format), out_(std::move(out)) {
  if (format_ == WireFormat::kBinary) {
    append_wire_header(buffer_);
  } else {
    buffer_.append(kServeStreamHeader);
    buffer_ += '\n';
  }
}

StreamWriter::StreamWriter(WireFormat format, std::ostream& os)
    : StreamWriter(format, [&os](std::string_view bytes) {
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      }) {}

void StreamWriter::write(const ServeEvent& event) {
  if (format_ == WireFormat::kBinary) {
    append_wire_frame(buffer_, event);
  } else {
    append_serve_line(buffer_, event);
  }
  if (buffer_.size() >= std::size_t{64} * 1024) flush();
}

void StreamWriter::flush() {
  if (buffer_.empty()) return;
  out_(buffer_);
  buffer_.clear();
}

std::int64_t transcode_serve_stream(std::istream& is, std::ostream& os,
                                    WireFormat to) {
  StreamWriter writer(to, os);
  const std::int64_t events = read_serve_stream(
      is, [&writer](const ServeEvent& event) { writer.write(event); });
  writer.flush();
  return events;
}

}  // namespace mcs::serve
