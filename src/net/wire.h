#ifndef ICEWAFL_NET_WIRE_H_
#define ICEWAFL_NET_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "stream/batch.h"
#include "stream/schema.h"
#include "stream/tuple.h"
#include "util/result.h"

namespace icewafl {
namespace net {

/// \file
/// Length-prefixed binary wire format of the serving subsystem
/// (DESIGN.md section 9). A connection carries a sequence of frames:
///
///   frame   := type:u8  payload_len:varint  payload:u8[payload_len]
///   varint  := LEB128 (7 bits per byte, LSB group first, high bit =
///              continuation; at most 10 bytes)
///
/// Numerics are explicit little-endian regardless of host order: int64
/// as 8-byte two's complement, double as the 8-byte IEEE-754 bit
/// pattern — NaN payloads and signed zeros round-trip bit-exactly.
/// Decoding is total: truncated input reports "need more bytes",
/// corrupt input (bad tags, overlong varints, oversized or
/// under-consumed payloads) returns a Status — never UB, never a
/// crash.

/// \brief Frame type tags. Values are part of the wire contract.
enum FrameType : uint8_t {
  kFrameSchema = 0x01,     ///< handshake: the stream's schema
  kFrameTuple = 0x02,      ///< one stream element
  kFrameEnd = 0x03,        ///< graceful end of stream (payload: total count)
  kFrameError = 0x04,      ///< server-side failure (payload: UTF-8 message)
  kFrameSubscribe = 0x05,  ///< client hello: wire version + session id
  kFrameBatch = 0x06,      ///< columnar micro-batch (capability-gated)
  /// Admin-channel request (payload: one UTF-8 JSON object with "id",
  /// "method", "params"). Only spoken on the separate admin port —
  /// the streaming port rejects it like any non-Subscribe hello.
  kFrameAdminRequest = 0x07,
  /// Admin-channel response (payload: one UTF-8 JSON object with "id"
  /// and either "result" or "error").
  kFrameAdminResponse = 0x08,
};

/// \brief Capability bits a client advertises in its Subscribe hello.
/// The server only sends a gated frame type to subscribers that set the
/// matching bit; everyone else keeps receiving per-tuple frames, so a
/// capability-oblivious client never sees a frame it cannot parse.
constexpr uint64_t kCapBatchFrames = 1;  ///< client decodes Batch frames

/// \brief Wire protocol version. Bumped to 2 when the client-side
/// Subscribe hello frame became mandatory (a v1 client that waits
/// silently for a Schema frame is answered with an Error frame, which
/// its FrameDecoder already understands — the failure mode is a clean
/// error message, not a hang or a parse crash).
constexpr uint64_t kWireVersion = 2;

/// \brief Upper bound on a frame payload; decode rejects larger length
/// prefixes before allocating (a corrupt length must not OOM the peer).
constexpr uint64_t kMaxFramePayload = 16ull << 20;  // 16 MiB

/// \brief Upper bound on a session id on the wire (also enforced by
/// lint as IW607 before a config ever reaches the server).
constexpr uint64_t kMaxSessionIdBytes = 256;

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

/// \brief Appends `v` as a LEB128 varint.
void AppendVarint(uint64_t v, std::string* out);

/// \brief Appends `v` as 8 bytes little-endian.
void AppendFixed64(uint64_t v, std::string* out);

/// \brief Zigzag mapping for signed varints (small magnitudes of either
/// sign stay short).
inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// \brief Bounds-checked sequential reader over one frame payload.
///
/// Every accessor returns a Status instead of reading past the end, so
/// decoding a hostile buffer degrades to an error, never UB. The
/// per-value accessors are inline: the tuple decoder calls them once
/// per field, and their error paths stay out of line.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}
  explicit ByteReader(std::string_view buf)
      : ByteReader(buf.data(), buf.size()) {}

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }

  Result<uint8_t> U8() {
    if (pos_ >= size_) return Truncated("byte");
    return data_[pos_++];
  }
  Result<uint64_t> Fixed64() {
    if (size_ - pos_ < 8) return Truncated("fixed64");
    uint64_t v = 0;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    std::memcpy(&v, data_ + pos_, 8);
#else
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)])
           << (8 * i);
    }
#endif
    pos_ += 8;
    return v;
  }
  Result<uint64_t> Varint() {
    // One-byte values (lengths, counts, small sub-stream ids) are the
    // common case; longer ones take the checked loop.
    if (pos_ < size_ && data_[pos_] < 0x80) return data_[pos_++];
    return VarintSlow();
  }
  /// \brief A view of the next `n` raw bytes; valid as long as the
  /// buffer the reader was built over.
  Result<std::string_view> Bytes(size_t n) {
    if (size_ - pos_ < n) return Truncated("bytes");
    std::string_view out(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return out;
  }
  /// \brief Copies `n` raw bytes into `dst` (bulk fixed-width arrays).
  Status ReadRaw(void* dst, size_t n);
  /// \brief Splits off a bounds-checked reader over the next `n` bytes
  /// and advances past them (length-prefixed sub-blobs).
  Result<ByteReader> SubReader(size_t n);
  /// \brief Error unless the payload was consumed exactly.
  Status ExpectEnd() const {
    if (pos_ != size_) return Trailing(size_ - pos_);
    return Status::OK();
  }

 private:
  Result<uint64_t> VarintSlow();
  /// "wire: truncated <what>".
  static Status Truncated(const char* what);
  static Status Trailing(size_t n);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Frame encoding
// ---------------------------------------------------------------------

/// \brief Appends one complete frame (type + length prefix + payload).
void AppendFrame(uint8_t type, std::string_view payload, std::string* out);

/// \brief Schema payload: attr_count:varint, then per attribute
/// name_len:varint name:bytes type:u8, then timestamp_index:varint.
std::string EncodeSchemaPayload(const Schema& schema);

/// \brief Tuple payload: id:fixed64, event_time:fixed64,
/// arrival_time:fixed64, substream:zigzag-varint, value_count:varint,
/// then per value type:u8 + type-specific payload (bool u8, int64
/// fixed64, double IEEE bits fixed64, string varint-length + bytes;
/// null has no payload).
std::string EncodeTuplePayload(const Tuple& tuple);

/// \brief Appends one complete Tuple frame to `*out` in one pass: the
/// payload size is computed first, so the length prefix and payload are
/// written once into one resized region (the bytes of
/// AppendFrame(kFrameTuple, EncodeTuplePayload(tuple))). The fan-out
/// encodes a batch's frames into one buffer.
void AppendTupleFrame(const Tuple& tuple, std::string* out);

/// \brief End payload: total tuples sent in this stream, as a varint.
std::string EncodeEndPayload(uint64_t total_tuples);

/// \brief Batch payload (DESIGN.md section 13): row_count:varint, then
/// the per-row metadata arrays column-major (ids, event_times,
/// arrival_times each row_count × fixed64; substreams as row_count
/// zigzag-varints), then column_count:varint and per attribute one
/// length-prefixed column blob:
///
///   blob     := blob_len:varint  declared_type:u8  validity  values
///               divergent_count:varint  divergent*
///   validity := ceil(row_count/8) bytes, LSB-first (bit set = typed
///               slot holds the value; trailing bits must be zero)
///   values   := bool: row_count bytes · int64/double: row_count ×
///               fixed64 (invalid slots all-zero) · string: one
///               varint-length + bytes per *valid* row, ascending ·
///               null-typed column: nothing
///   divergent:= row:varint + self-describing value (as in the tuple
///               frame) for each non-null value whose runtime type
///               differs from the declared column type, rows strictly
///               ascending
///
/// Encoding serializes straight from the column buffers — one memcpy
/// per fixed-width column, no per-tuple framing.
std::string EncodeBatchPayload(const Batch& batch);

/// \brief Subscribe payload: version:varint, id_len:varint, id:bytes,
/// then optionally capabilities:varint (absent on the wire when zero,
/// so a capability-less hello is byte-identical to the v2 form).
/// An empty id means "the server's sole session" (convenience for
/// single-session deployments; a multi-session server rejects it).
std::string EncodeSubscribePayload(uint64_t version,
                                   const std::string& session_id,
                                   uint64_t capabilities = 0);

/// Convenience: full frames, ready to write to a socket.
std::string EncodeSchemaFrame(const Schema& schema);
std::string EncodeTupleFrame(const Tuple& tuple);
std::string EncodeBatchFrame(const Batch& batch);
std::string EncodeEndFrame(uint64_t total_tuples);
std::string EncodeErrorFrame(const std::string& message);
std::string EncodeSubscribeFrame(uint64_t version,
                                 const std::string& session_id,
                                 uint64_t capabilities = 0);

// ---------------------------------------------------------------------
// Frame decoding
// ---------------------------------------------------------------------

/// \brief Validates and decodes a schema payload.
Result<SchemaPtr> DecodeSchemaPayload(std::string_view payload);

/// \brief Validates and decodes a tuple payload against `schema` into
/// `*out`, in place: its value slots, id, times and sub-stream are
/// overwritten, and a slot that already holds a string keeps its
/// buffer. `*out` is rebuilt (reallocated) only when its schema pointer
/// or arity differs from `schema`'s, as for a default or moved-from
/// Tuple. The value count must match the schema arity; value types are
/// self-describing, since polluters may NULL any attribute. On an error
/// `*out` holds an unspecified mix of old and new values, and the next
/// successful decode into it is complete.
Status DecodeTupleInto(std::string_view payload, const SchemaPtr& schema,
                       Tuple* out);

/// \brief DecodeTupleInto a fresh Tuple.
Result<Tuple> DecodeTuplePayload(std::string_view payload,
                                 const SchemaPtr& schema);

/// \brief Validates and decodes a batch payload against `schema`. The
/// column count and declared column types must match the schema, and
/// the decode is strict: zero padding in invalid fixed-width slots,
/// zero trailing validity bits, strictly ascending divergent rows whose
/// validity bit is clear and whose value type actually diverges —
/// anything else is a ParseError, so served batch bytes have exactly
/// one accepted spelling.
Result<Batch> DecodeBatchPayload(std::string_view payload,
                                 const SchemaPtr& schema);

/// \brief Decodes the total-count payload of an End frame.
Result<uint64_t> DecodeEndPayload(std::string_view payload);

/// \brief Decoded Subscribe hello.
struct SubscribeRequest {
  uint64_t version = 0;
  std::string session_id;
  uint64_t capabilities = 0;  ///< kCap* bits; unknown bits are ignored
};

/// \brief Decodes a Subscribe payload. Rejects ids longer than
/// kMaxSessionIdBytes; version compatibility is the server's call.
Result<SubscribeRequest> DecodeSubscribePayload(std::string_view payload);

/// \brief Incremental frame splitter over a byte stream.
///
/// Feed() appends raw received bytes; Next() extracts the next complete
/// frame as a view into the decoder's buffer, so no payload is copied.
/// A partial frame is not an error — Next() returns false until the
/// rest arrives — but a malformed header (overlong varint, payload
/// length above kMaxFramePayload) is a Status, because no amount of
/// further input can repair it.
class FrameDecoder {
 public:
  void Feed(const void* data, size_t n);

  /// \return true and fills `*type` / `*payload` when a complete frame
  /// was extracted; false when more bytes are needed. `*payload` views
  /// the decoder's buffer and stays valid only until the next Feed() or
  /// Next(); a caller that keeps the bytes copies them.
  Result<bool> Next(uint8_t* type, std::string_view* payload);

  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  size_t consumed_ = 0;
};

}  // namespace net
}  // namespace icewafl

#endif  // ICEWAFL_NET_WIRE_H_
