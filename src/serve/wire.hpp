// Compact binary wire codec for mcs.serve.v1 events ("mcs.serve.b1").
//
// JSONL is the right interchange format -- human-readable, greppable,
// diffable -- and the costlier hot path: even the reader for the
// encoder's own layout (serve/event.hpp) compares every key byte and
// converts decimal integers and Money strings. The binary codec does
// none of that. Events travel as length-prefixed frames of fixed-width
// little-endian fields with Money as its exact int64 micro count.
//
// Decoding: one frame decoder behind decode_wire_frame and
// WireDecoder::feed (and so behind StreamDecoder, the one stream reader of
// replay, transcode and the socket front-end) reads each field straight out of the byte span into the event,
// touching no allocator. Its rejections leave through out-of-line cold
// calls, so the accepting path is a short run of loads and compares; it
// writes every field of the event, so a decoder that reuses one event per
// stream carries nothing over from the previous frame.
//
// Stream layout:
//
//   header (8 bytes):  'M' 'C' 'S' 'B'  u16 version (=1, LE)  u16 flags (=0)
//   frame:             u32 payload length (LE), then the payload:
//                      u8 kind, fixed fields per kind (all LE)
//
//   kind 0 round_open     i64 round  i32 slots  i64 value_micros      (21)
//   kind 1 task_arrived   i64 round  i32 slot   i32 task  u8 has_value
//                         [i64 value_micros when has_value=1]    (18 | 26)
//   kind 2 bid_submitted  i64 round  i32 agent  i32 from  i32 to
//                         i64 cost_micros                            (29)
//   kind 3 slot_tick      i64 round  i32 slot                        (13)
//   kind 4 round_close    i64 round                                   (9)
//
// Versioning / compatibility rules (strict by design -- the stream is
// untrusted input on the serving hot path):
//   * the magic and version are mandatory; an unknown version is rejected,
//     never "best-effort" decoded, and v1 requires flags == 0;
//   * a frame's length must equal its kind's exact layout size -- trailing
//     bytes inside a frame, unknown kinds, and lengths beyond
//     kMaxWireFrameBytes are all rejected (no silent skipping: a payment
//     pipeline must not guess);
//   * any format evolution (new kinds, new fields) bumps the version; old
//     decoders then reject the whole stream up front instead of failing
//     midway.
//
// Both codecs enforce identical domain rules (round in [0, 2^53-1], slots
// and slot >= 1, dense non-negative ids, from <= to, non-negative cost,
// Money inside the +/-max() envelope), so for every event stream the
// binary and JSONL decoders accept or reject in lockstep -- the
// differential fuzz in serve_wire_test pins zero divergence. JSONL stays
// the debug/interop format; `mcs_cli transcode` converts losslessly in
// both directions.
//
// Streams: StreamDecoder reads a serve stream of either format from
// chunks of any size, and StreamWriter writes one; every reader and
// writer of serve streams goes through these two.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "serve/event.hpp"

namespace mcs::serve {

/// Schema tag of the binary format (reported in errors and docs; the wire
/// itself carries the 4-byte magic + version below).
inline constexpr std::string_view kWireSchema = "mcs.serve.b1";

inline constexpr char kWireMagic[4] = {'M', 'C', 'S', 'B'};
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::size_t kWireHeaderBytes = 8;

/// Hard cap on one frame's payload length. The largest v1 frame is 29
/// bytes; anything claiming more is garbage (or a hostile length) and is
/// rejected before any buffering happens.
inline constexpr std::size_t kMaxWireFrameBytes = 64;

/// Appends the 8-byte stream header.
void append_wire_header(std::string& out);

/// Appends one event as a length-prefixed frame.
void append_wire_frame(std::string& out, const ServeEvent& event);

/// Checks a stream header prefix. Returns the bytes consumed
/// (kWireHeaderBytes) or nullopt when `bytes` is a proper prefix of a
/// valid header (feed more). Throws InvalidArgumentError on a wrong magic,
/// unsupported version, or nonzero flags.
[[nodiscard]] std::optional<std::size_t> decode_wire_header(
    std::string_view bytes);

struct DecodedFrame {
  ServeEvent event;
  std::size_t consumed{0};  ///< frame bytes, length prefix included
};

/// Decodes the first frame of `bytes`. Returns nullopt when the bytes are
/// a proper prefix of a well-formed frame (feed more). Throws
/// InvalidArgumentError on malformed or out-of-domain frames -- same
/// domain rules as decode_serve_line, never UB, never zero-filled.
[[nodiscard]] std::optional<DecodedFrame> decode_wire_frame(
    std::string_view bytes);

/// Incremental decoder for chunked transports (sockets deliver frames
/// split at arbitrary byte boundaries). Frames are decoded where they sit
/// in the chunk; only a header or frame cut by the chunk's end is copied,
/// into a carry buffer sized once for the largest frame and completed from
/// the next chunk, so after its first carry a connection allocates
/// nothing. Each frame is decoded in place into one event per feed, which
/// the sink sees until it returns (copy it to keep it).
class WireDecoder {
 public:
  /// Consumes `bytes`, invoking `sink` once per completed event frame (the
  /// stream header is consumed silently). Returns the number of events
  /// decoded by this call. Throws InvalidArgumentError on malformed input
  /// (the connection is then poisoned: further feeds keep throwing).
  std::int64_t feed(std::string_view bytes,
                    const std::function<void(const ServeEvent&)>& sink);

  /// True when no partial frame is buffered -- i.e. EOF here is a clean
  /// end of stream rather than a truncated frame.
  [[nodiscard]] bool idle() const { return carry_.empty() && !poisoned_; }

  [[nodiscard]] bool header_seen() const { return header_done_; }

 private:
  std::string carry_;  ///< a header or frame cut by a chunk end
  bool header_done_{false};
  bool poisoned_{false};
};

// ------------------------------------------------------------ serve streams

enum class WireFormat {
  kJsonl,   ///< mcs.serve.v1 JSON lines (debug / interop)
  kBinary,  ///< mcs.serve.b1 frames (hot path)
};

[[nodiscard]] std::string_view to_string(WireFormat format);

/// Hard cap on one JSONL line, '\n' not counted. The encoder's longest
/// line is under 256 bytes, so a longer line is garbage (or hostile).
inline constexpr std::size_t kMaxJsonlLineBytes = 4096;

/// A stream's format by the rule StreamDecoder applies: a first byte of
/// 'M' (the binary magic's) is kBinary, anything else kJsonl. Peeks
/// without consuming.
[[nodiscard]] WireFormat detect_stream_format(std::istream& is);

/// The one serve-stream reader, for every transport: replay and transcode
/// feed it 64 KiB reads, the socket front-end each read() chunk. A chunk
/// may end anywhere. The stream's first byte picks the format (see
/// detect_stream_format): binary frames go through a WireDecoder. JSONL
/// lines are read in place from the chunk: at each line start the
/// canonical reader (read_canonical_line, serve/event.hpp) runs on the
/// next kMaxJsonlLineBytes + 1 bytes and takes the line when its '}' is
/// followed by '\n' inside them, decoding into one event the decoder
/// reuses. Any other line -- the header, other layouts, a line cut by the
/// chunk end -- is split on '\n' and goes to decode_serve_line, which
/// gives every verdict and error text for it; only a line cut by a chunk
/// end is carried, blank lines are skipped, header lines consumed. The
/// sink sees each event only until it returns (copy it to keep it).
///
/// End-of-stream rule (finish()), the same on every transport: a last
/// JSONL line without its '\n' is decoded like any other line; anything
/// else left over -- a partial frame, a binary stream without a complete
/// header -- is truncation. A JSONL line cut mid-object still fails, since
/// no proper prefix of a JSON object parses. An empty stream holds no
/// events and is not an error.
///
/// A JSONL line longer than kMaxJsonlLineBytes, whether it ends in this
/// chunk or would be carried, fails the stream the moment its length
/// crosses the cap, so a line never holds more than the cap in memory.
///
/// Errors are InvalidArgumentError naming the 1-based line (JSONL) or the
/// byte range of the failing chunk (binary); truncation says "truncated".
/// After a decode error the stream is over: further calls throw.
class StreamDecoder {
 public:
  using Sink = std::function<void(const ServeEvent&)>;

  /// Decodes the next chunk of the stream, calling `sink` per event.
  void feed(std::string_view bytes, const Sink& sink);

  /// Ends the stream by the end-of-stream rule above.
  void finish(const Sink& sink);

  /// Events handed to the sink so far.
  [[nodiscard]] std::int64_t events() const { return events_; }

 private:
  enum class Format : std::uint8_t { kUnknown, kJsonl, kBinary, kFailed };

  void feed_lines(std::string_view bytes, const Sink& sink);
  [[noreturn, gnu::cold, gnu::noinline]] void line_too_long();
  void decode_line(std::string_view line, const Sink& sink,
                   bool unterminated);

  Format format_{Format::kUnknown};
  WireDecoder wire_;
  ServeEvent event_;          ///< each canonical JSONL line is read into it
  std::string carry_;         ///< a JSONL line cut by a chunk end (<= cap)
  std::int64_t line_{0};      ///< JSONL lines read so far
  std::uint64_t offset_{0};   ///< stream bytes fed before this chunk
  std::int64_t events_{0};
};

/// Reads a whole serve stream in either format through one StreamDecoder,
/// invoking `sink` per event, and ends it by the end-of-stream rule.
/// Returns the number of events; throws as StreamDecoder does.
std::int64_t read_serve_stream(std::istream& is,
                               const StreamDecoder::Sink& sink);

/// The one serve-stream writer, for every destination: loadgen's
/// write_*_stream, transcode, `serve --events-out` and `serve --connect`.
/// The stream header goes first, then one line or frame per event; bytes
/// are buffered and handed to `out` whenever 64 KiB have collected, and
/// the rest at flush(). A writer destroyed unflushed drops its tail.
class StreamWriter {
 public:
  using Out = std::function<void(std::string_view)>;

  StreamWriter(WireFormat format, Out out);
  /// Writes to `os` (its error state is the caller's to check).
  StreamWriter(WireFormat format, std::ostream& os);

  void write(const ServeEvent& event);

  /// Hands every buffered byte to `out`.
  void flush();

 private:
  WireFormat format_;
  Out out_;
  std::string buffer_;
};

/// Losslessly transcodes a serve stream (autodetected input format) into
/// `to`. Event-preserving and, for canonical streams, byte-exact on a
/// round trip: jsonl -> binary -> jsonl reproduces the input bytes.
/// Returns the number of events transcoded.
std::int64_t transcode_serve_stream(std::istream& is, std::ostream& os,
                                    WireFormat to);

}  // namespace mcs::serve
