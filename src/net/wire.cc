#include "net/wire.h"

#include <cstring>

namespace icewafl {
namespace net {

namespace {

constexpr int kMaxVarintBytes = 10;

// Every encoder writes through a raw cursor into a region already
// resized to fit: the tuple encoder sizes a whole frame first, so it is
// written in one pass.

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

char* PutVarint(uint64_t v, char* p) {
  while (v >= 0x80) {
    *p++ = static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

char* PutFixed64(uint64_t v, char* p) {
  for (int i = 0; i < 8; ++i) {
    *p++ = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  return p;
}

/// Grows `*out` by `n` bytes and returns a cursor to the new region.
char* Extend(std::string* out, size_t n) {
  const size_t at = out->size();
  out->resize(at + n);
  return out->data() + at;
}

}  // namespace

void AppendVarint(uint64_t v, std::string* out) {
  if (v < 0x80) {  // the common one-byte case (per-row batch sub-streams)
    out->push_back(static_cast<char>(v));
    return;
  }
  char bytes[kMaxVarintBytes];
  out->append(bytes, static_cast<size_t>(PutVarint(v, bytes) - bytes));
}

void AppendFixed64(uint64_t v, std::string* out) {
  char bytes[8];
  out->append(bytes, static_cast<size_t>(PutFixed64(v, bytes) - bytes));
}

Result<uint64_t> ByteReader::VarintSlow() {
  uint64_t v = 0;
  for (int i = 0; i < kMaxVarintBytes; ++i) {
    if (pos_ >= size_) return Truncated("varint");
    const uint8_t byte = data_[pos_++];
    // The 10th byte may only carry the final bit of a 64-bit value.
    if (i == kMaxVarintBytes - 1 && (byte & 0xFE) != 0) {
      return Status::ParseError("wire: varint overflows 64 bits");
    }
    v |= static_cast<uint64_t>(byte & 0x7F) << (7 * i);
    if ((byte & 0x80) == 0) {
      // A terminating byte of 0x00 after at least one continuation byte
      // is an overlong (non-minimal) encoding — e.g. 0x80 0x00 for 0 —
      // and must be rejected, or the same value has many wire spellings.
      if (i > 0 && byte == 0) {
        return Status::ParseError("wire: non-canonical varint");
      }
      return v;
    }
  }
  return Status::ParseError("wire: varint too long");
}

Status ByteReader::Truncated(const char* what) {
  return Status::ParseError(std::string("wire: truncated ") + what);
}

Status ByteReader::Trailing(size_t n) {
  return Status::ParseError("wire: " + std::to_string(n) +
                            " trailing payload byte(s)");
}

Status ByteReader::ReadRaw(void* dst, size_t n) {
  if (size_ - pos_ < n) return Truncated("bytes");
  if (n == 0) return Status::OK();  // dst may be null for an empty span
  std::memcpy(dst, data_ + pos_, n);
  pos_ += n;
  return Status::OK();
}

Result<ByteReader> ByteReader::SubReader(size_t n) {
  if (size_ - pos_ < n) {
    return Status::ParseError("wire: sub-blob length exceeds payload");
  }
  ByteReader sub(data_ + pos_, n);
  pos_ += n;
  return sub;
}

void AppendFrame(uint8_t type, std::string_view payload, std::string* out) {
  out->push_back(static_cast<char>(type));
  AppendVarint(payload.size(), out);
  out->append(payload);
}

std::string EncodeSchemaPayload(const Schema& schema) {
  std::string out;
  AppendVarint(schema.num_attributes(), &out);
  for (const Attribute& attr : schema.attributes()) {
    AppendVarint(attr.name.size(), &out);
    out.append(attr.name);
    out.push_back(static_cast<char>(attr.type));
  }
  AppendVarint(schema.timestamp_index(), &out);
  return out;
}

namespace {

/// Bytes PutValue writes for `v`: its tag plus the type's payload.
size_t ValueSize(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kBool:
      return 2;
    case ValueType::kInt64:
    case ValueType::kDouble:
      return 9;
    case ValueType::kString: {
      const size_t len = v.AsString().size();
      return 1 + VarintSize(len) + len;
    }
  }
  return 1;
}

char* PutValue(const Value& v, char* p) {
  *p++ = static_cast<char>(v.type());
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      *p++ = v.AsBool() ? 1 : 0;
      break;
    case ValueType::kInt64:
      p = PutFixed64(static_cast<uint64_t>(v.AsInt64()), p);
      break;
    case ValueType::kDouble: {
      uint64_t bits = 0;
      const double d = v.AsDouble();
      std::memcpy(&bits, &d, sizeof(bits));
      p = PutFixed64(bits, p);
      break;
    }
    case ValueType::kString: {
      const std::string& str = v.AsString();
      p = PutVarint(str.size(), p);
      if (!str.empty()) std::memcpy(p, str.data(), str.size());
      p += str.size();
      break;
    }
  }
  return p;
}

void AppendValue(const Value& v, std::string* out) {
  PutValue(v, Extend(out, ValueSize(v)));
}

/// Decodes one self-describing value into `*slot`, in place when the
/// slot already holds the value's type (a string keeps its buffer).
Status ReadValueInto(ByteReader* reader, Value* slot) {
  ICEWAFL_ASSIGN_OR_RETURN(uint8_t tag, reader->U8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      if (!slot->is_null()) *slot = Value::Null();
      return Status::OK();
    case ValueType::kBool: {
      ICEWAFL_ASSIGN_OR_RETURN(uint8_t b, reader->U8());
      if (b > 1) return Status::ParseError("wire: bool byte not 0/1");
      slot->Assign(b == 1);
      return Status::OK();
    }
    case ValueType::kInt64: {
      ICEWAFL_ASSIGN_OR_RETURN(uint64_t bits, reader->Fixed64());
      slot->Assign(static_cast<int64_t>(bits));
      return Status::OK();
    }
    case ValueType::kDouble: {
      ICEWAFL_ASSIGN_OR_RETURN(uint64_t bits, reader->Fixed64());
      double d = 0;
      std::memcpy(&d, &bits, sizeof(d));
      slot->Assign(d);
      return Status::OK();
    }
    case ValueType::kString: {
      ICEWAFL_ASSIGN_OR_RETURN(uint64_t len, reader->Varint());
      if (len > reader->remaining()) {
        return Status::ParseError("wire: string length exceeds payload");
      }
      ICEWAFL_ASSIGN_OR_RETURN(std::string_view bytes,
                               reader->Bytes(static_cast<size_t>(len)));
      slot->Assign(bytes);
      return Status::OK();
    }
  }
  return Status::ParseError("wire: unknown value tag " + std::to_string(tag));
}

/// Appends `n` 64-bit words as little-endian fixed64s — a single blit
/// on little-endian hosts, which is what "serialize straight from the
/// column buffers" buys on the wire bench.
void AppendFixed64Span(const void* data, size_t n, std::string* out) {
  if (n == 0) return;  // data may be null for an empty span
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  out->append(static_cast<const char*>(data), n * 8);
#else
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = 0;
    std::memcpy(&v, p + i * 8, 8);
    AppendFixed64(v, out);
  }
#endif
}

/// Inverse of AppendFixed64Span.
Status ReadFixed64Span(ByteReader* reader, void* dst, size_t n) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  return reader->ReadRaw(dst, n * 8);
#else
  uint8_t* p = static_cast<uint8_t*>(dst);
  for (size_t i = 0; i < n; ++i) {
    ICEWAFL_ASSIGN_OR_RETURN(uint64_t v, reader->Fixed64());
    std::memcpy(p + i * 8, &v, 8);
  }
  return Status::OK();
#endif
}

/// Bytes of the tuple payload (EncodeTuplePayload's layout).
size_t TuplePayloadSize(const Tuple& tuple) {
  size_t n = 3 * 8 + VarintSize(ZigzagEncode(tuple.substream())) +
             VarintSize(tuple.num_values());
  for (const Value& v : tuple.values()) n += ValueSize(v);
  return n;
}

char* PutTuplePayload(const Tuple& tuple, char* p) {
  p = PutFixed64(tuple.id(), p);
  p = PutFixed64(static_cast<uint64_t>(tuple.event_time()), p);
  p = PutFixed64(static_cast<uint64_t>(tuple.arrival_time()), p);
  p = PutVarint(ZigzagEncode(tuple.substream()), p);
  p = PutVarint(tuple.num_values(), p);
  for (const Value& v : tuple.values()) p = PutValue(v, p);
  return p;
}

}  // namespace

std::string EncodeTuplePayload(const Tuple& tuple) {
  std::string out;
  PutTuplePayload(tuple, Extend(&out, TuplePayloadSize(tuple)));
  return out;
}

void AppendTupleFrame(const Tuple& tuple, std::string* out) {
  const size_t size = TuplePayloadSize(tuple);
  char* p = Extend(out, 1 + VarintSize(size) + size);
  *p++ = static_cast<char>(kFrameTuple);
  PutTuplePayload(tuple, PutVarint(size, p));
}

std::string EncodeBatchPayload(const Batch& batch) {
  std::string out;
  const size_t rows = batch.rows();
  AppendVarint(rows, &out);
  AppendFixed64Span(batch.ids(), rows, &out);
  AppendFixed64Span(batch.event_times(), rows, &out);
  AppendFixed64Span(batch.arrival_times(), rows, &out);
  const int32_t* subs = batch.substreams();
  for (size_t r = 0; r < rows; ++r) AppendVarint(ZigzagEncode(subs[r]), &out);
  AppendVarint(batch.num_columns(), &out);
  const size_t vbytes = (rows + 7) / 8;
  std::string blob;
  for (size_t i = 0; i < batch.num_columns(); ++i) {
    const Column& col = batch.column(i);
    blob.clear();
    blob.push_back(static_cast<char>(col.declared_type()));
    const uint64_t* words = col.validity();
    for (size_t b = 0; b < vbytes; ++b) {
      blob.push_back(
          static_cast<char>((words[b >> 3] >> ((b & 7) * 8)) & 0xFF));
    }
    switch (col.declared_type()) {
      case ValueType::kBool:
        if (rows > 0) {
          blob.append(reinterpret_cast<const char*>(col.bools()), rows);
        }
        break;
      case ValueType::kInt64:
        AppendFixed64Span(col.int64s(), rows, &blob);
        break;
      case ValueType::kDouble:
        AppendFixed64Span(col.doubles(), rows, &blob);
        break;
      case ValueType::kString: {
        const std::string* strs = col.strings();
        for (size_t r = 0; r < rows; ++r) {
          if (!col.IsValid(r)) continue;
          AppendVarint(strs[r].size(), &blob);
          blob.append(strs[r]);
        }
        break;
      }
      case ValueType::kNull:
        break;
    }
    AppendVarint(col.divergent().size(), &blob);
    for (const std::pair<uint32_t, Value>& entry : col.divergent()) {
      AppendVarint(entry.first, &blob);
      AppendValue(entry.second, &blob);
    }
    AppendVarint(blob.size(), &out);
    out.append(blob);
  }
  return out;
}

std::string EncodeEndPayload(uint64_t total_tuples) {
  std::string out;
  AppendVarint(total_tuples, &out);
  return out;
}

std::string EncodeSubscribePayload(uint64_t version,
                                   const std::string& session_id,
                                   uint64_t capabilities) {
  std::string out;
  AppendVarint(version, &out);
  AppendVarint(session_id.size(), &out);
  out.append(session_id);
  // Appended only when set, so a capability-less hello is byte-identical
  // to the pre-capability wire form (old servers keep accepting it).
  if (capabilities != 0) AppendVarint(capabilities, &out);
  return out;
}

std::string EncodeSchemaFrame(const Schema& schema) {
  std::string out;
  AppendFrame(kFrameSchema, EncodeSchemaPayload(schema), &out);
  return out;
}

std::string EncodeTupleFrame(const Tuple& tuple) {
  std::string out;
  AppendTupleFrame(tuple, &out);
  return out;
}

std::string EncodeEndFrame(uint64_t total_tuples) {
  std::string out;
  AppendFrame(kFrameEnd, EncodeEndPayload(total_tuples), &out);
  return out;
}

std::string EncodeErrorFrame(const std::string& message) {
  std::string out;
  AppendFrame(kFrameError, message, &out);
  return out;
}

std::string EncodeSubscribeFrame(uint64_t version,
                                 const std::string& session_id,
                                 uint64_t capabilities) {
  std::string out;
  AppendFrame(kFrameSubscribe,
              EncodeSubscribePayload(version, session_id, capabilities),
              &out);
  return out;
}

std::string EncodeBatchFrame(const Batch& batch) {
  std::string out;
  AppendFrame(kFrameBatch, EncodeBatchPayload(batch), &out);
  return out;
}

Result<SchemaPtr> DecodeSchemaPayload(std::string_view payload) {
  ByteReader reader(payload);
  ICEWAFL_ASSIGN_OR_RETURN(uint64_t count, reader.Varint());
  // Each attribute takes at least 2 bytes, so `count` is bounded by the
  // payload size — reject before reserving a hostile capacity.
  if (count > payload.size()) {
    return Status::ParseError("wire: schema attribute count exceeds payload");
  }
  std::vector<Attribute> attributes;
  attributes.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    ICEWAFL_ASSIGN_OR_RETURN(uint64_t name_len, reader.Varint());
    if (name_len > reader.remaining()) {
      return Status::ParseError("wire: attribute name length exceeds payload");
    }
    ICEWAFL_ASSIGN_OR_RETURN(std::string_view name,
                             reader.Bytes(static_cast<size_t>(name_len)));
    ICEWAFL_ASSIGN_OR_RETURN(uint8_t type, reader.U8());
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return Status::ParseError("wire: unknown attribute type tag " +
                                std::to_string(type));
    }
    attributes.push_back({std::string(name), static_cast<ValueType>(type)});
  }
  ICEWAFL_ASSIGN_OR_RETURN(uint64_t ts_index, reader.Varint());
  ICEWAFL_RETURN_NOT_OK(reader.ExpectEnd());
  if (ts_index >= attributes.size()) {
    return Status::ParseError("wire: timestamp index out of range");
  }
  // Schema::Make re-validates (int64 timestamp type, name collisions),
  // so a hostile schema frame fails with its error instead of crashing.
  const std::string ts_name = attributes[static_cast<size_t>(ts_index)].name;
  return Schema::Make(std::move(attributes), ts_name);
}

Status DecodeTupleInto(std::string_view payload, const SchemaPtr& schema,
                       Tuple* out) {
  if (schema == nullptr) {
    return Status::InvalidArgument("wire: tuple decode requires a schema");
  }
  ByteReader reader(payload);
  ICEWAFL_ASSIGN_OR_RETURN(uint64_t id, reader.Fixed64());
  ICEWAFL_ASSIGN_OR_RETURN(uint64_t event_time, reader.Fixed64());
  ICEWAFL_ASSIGN_OR_RETURN(uint64_t arrival_time, reader.Fixed64());
  ICEWAFL_ASSIGN_OR_RETURN(uint64_t substream_zz, reader.Varint());
  ICEWAFL_ASSIGN_OR_RETURN(uint64_t count, reader.Varint());
  if (count != schema->num_attributes()) {
    return Status::ParseError(
        "wire: tuple has " + std::to_string(count) +
        " values, schema expects " +
        std::to_string(schema->num_attributes()));
  }
  const size_t arity = static_cast<size_t>(count);
  if (out->schema() != schema || out->num_values() != arity) {
    *out = Tuple(schema, std::vector<Value>(arity));
  }
  std::vector<Value>& values = out->mutable_values();
  for (size_t i = 0; i < arity; ++i) {
    ICEWAFL_RETURN_NOT_OK(ReadValueInto(&reader, &values[i]));
  }
  ICEWAFL_RETURN_NOT_OK(reader.ExpectEnd());
  const int64_t substream = ZigzagDecode(substream_zz);
  if (substream < INT32_MIN || substream > INT32_MAX) {
    return Status::ParseError("wire: substream id out of range");
  }
  out->set_id(id);
  out->set_event_time(static_cast<Timestamp>(event_time));
  out->set_arrival_time(static_cast<Timestamp>(arrival_time));
  out->set_substream(static_cast<int>(substream));
  return Status::OK();
}

Result<Tuple> DecodeTuplePayload(std::string_view payload,
                                 const SchemaPtr& schema) {
  Tuple tuple;
  ICEWAFL_RETURN_NOT_OK(DecodeTupleInto(payload, schema, &tuple));
  return tuple;
}

Result<Batch> DecodeBatchPayload(std::string_view payload,
                                 const SchemaPtr& schema) {
  if (schema == nullptr) {
    return Status::InvalidArgument("wire: batch decode requires a schema");
  }
  ByteReader reader(payload);
  ICEWAFL_ASSIGN_OR_RETURN(uint64_t row_count, reader.Varint());
  // The id array alone costs 8 bytes per row, so `row_count` is bounded
  // by the payload size — reject before allocating a hostile capacity.
  if (row_count > payload.size() / 8) {
    return Status::ParseError("wire: batch row count exceeds payload");
  }
  const size_t rows = static_cast<size_t>(row_count);
  Batch batch = Batch::Empty(schema);
  batch.ResizeDefault(rows);
  ICEWAFL_RETURN_NOT_OK(ReadFixed64Span(&reader, batch.mutable_ids(), rows));
  ICEWAFL_RETURN_NOT_OK(
      ReadFixed64Span(&reader, batch.mutable_event_times(), rows));
  ICEWAFL_RETURN_NOT_OK(
      ReadFixed64Span(&reader, batch.mutable_arrival_times(), rows));
  int32_t* subs = batch.mutable_substreams();
  for (size_t r = 0; r < rows; ++r) {
    ICEWAFL_ASSIGN_OR_RETURN(uint64_t zz, reader.Varint());
    const int64_t substream = ZigzagDecode(zz);
    if (substream < INT32_MIN || substream > INT32_MAX) {
      return Status::ParseError("wire: substream id out of range");
    }
    subs[r] = static_cast<int32_t>(substream);
  }
  ICEWAFL_ASSIGN_OR_RETURN(uint64_t col_count, reader.Varint());
  if (col_count != schema->num_attributes()) {
    return Status::ParseError(
        "wire: batch has " + std::to_string(col_count) +
        " columns, schema expects " +
        std::to_string(schema->num_attributes()));
  }
  const size_t vbytes = (rows + 7) / 8;
  for (size_t i = 0; i < schema->num_attributes(); ++i) {
    ICEWAFL_ASSIGN_OR_RETURN(uint64_t blob_len, reader.Varint());
    if (blob_len > reader.remaining()) {
      return Status::ParseError("wire: column blob length exceeds payload");
    }
    ICEWAFL_ASSIGN_OR_RETURN(ByteReader cr,
                             reader.SubReader(static_cast<size_t>(blob_len)));
    ICEWAFL_ASSIGN_OR_RETURN(uint8_t type_tag, cr.U8());
    const ValueType declared = schema->attribute(i).type;
    if (type_tag != static_cast<uint8_t>(declared)) {
      return Status::ParseError(
          "wire: column " + std::to_string(i) + " type tag " +
          std::to_string(type_tag) + " does not match the schema");
    }
    Column& col = batch.column(i);
    ICEWAFL_ASSIGN_OR_RETURN(std::string_view vbits, cr.Bytes(vbytes));
    if (rows % 8 != 0 &&
        (static_cast<uint8_t>(vbits[vbytes - 1]) >> (rows % 8)) != 0) {
      return Status::ParseError("wire: non-zero trailing validity bits");
    }
    uint64_t* words = col.mutable_validity();
    for (size_t b = 0; b < vbytes; ++b) {
      words[b >> 3] |= static_cast<uint64_t>(static_cast<uint8_t>(vbits[b]))
                       << ((b & 7) * 8);
    }
    switch (declared) {
      case ValueType::kBool: {
        ICEWAFL_RETURN_NOT_OK(cr.ReadRaw(col.bools(), rows));
        const uint8_t* bools = col.bools();
        for (size_t r = 0; r < rows; ++r) {
          if (bools[r] > 1) {
            return Status::ParseError("wire: bool byte not 0/1");
          }
          if (bools[r] != 0 && !col.IsValid(r)) {
            return Status::ParseError("wire: non-zero slot for invalid row");
          }
        }
        break;
      }
      case ValueType::kInt64: {
        ICEWAFL_RETURN_NOT_OK(ReadFixed64Span(&cr, col.int64s(), rows));
        const int64_t* ints = col.int64s();
        for (size_t r = 0; r < rows; ++r) {
          if (ints[r] != 0 && !col.IsValid(r)) {
            return Status::ParseError("wire: non-zero slot for invalid row");
          }
        }
        break;
      }
      case ValueType::kDouble: {
        ICEWAFL_RETURN_NOT_OK(ReadFixed64Span(&cr, col.doubles(), rows));
        const double* ds = col.doubles();
        for (size_t r = 0; r < rows; ++r) {
          uint64_t bits = 0;
          std::memcpy(&bits, &ds[r], sizeof(bits));
          if (bits != 0 && !col.IsValid(r)) {
            return Status::ParseError("wire: non-zero slot for invalid row");
          }
        }
        break;
      }
      case ValueType::kString: {
        std::string* strs = col.strings();
        for (size_t r = 0; r < rows; ++r) {
          if (!col.IsValid(r)) continue;
          ICEWAFL_ASSIGN_OR_RETURN(uint64_t len, cr.Varint());
          if (len > cr.remaining()) {
            return Status::ParseError("wire: string length exceeds payload");
          }
          ICEWAFL_ASSIGN_OR_RETURN(std::string_view bytes,
                                   cr.Bytes(static_cast<size_t>(len)));
          strs[r].assign(bytes);
        }
        break;
      }
      case ValueType::kNull: {
        // A null-typed column has no typed storage, so no row may claim
        // a valid typed slot.
        for (size_t b = 0; b < vbytes; ++b) {
          if (vbits[b] != 0) {
            return Status::ParseError("wire: valid row in null-typed column");
          }
        }
        break;
      }
    }
    ICEWAFL_ASSIGN_OR_RETURN(uint64_t divergent_count, cr.Varint());
    // Each divergent entry takes at least two bytes (row + value tag).
    if (divergent_count > cr.remaining()) {
      return Status::ParseError("wire: divergent count exceeds column blob");
    }
    std::vector<std::pair<uint32_t, Value>>& divergent =
        col.mutable_divergent();
    divergent.reserve(static_cast<size_t>(divergent_count));
    uint64_t prev = 0;
    for (uint64_t d = 0; d < divergent_count; ++d) {
      ICEWAFL_ASSIGN_OR_RETURN(uint64_t row, cr.Varint());
      if (row >= rows) {
        return Status::ParseError("wire: divergent row out of range");
      }
      if (d > 0 && row <= prev) {
        return Status::ParseError("wire: divergent rows not ascending");
      }
      prev = row;
      if (col.IsValid(static_cast<size_t>(row))) {
        return Status::ParseError("wire: divergent entry for valid row");
      }
      Value v;
      ICEWAFL_RETURN_NOT_OK(ReadValueInto(&cr, &v));
      if (v.is_null() || v.type() == declared) {
        return Status::ParseError("wire: divergent value does not diverge");
      }
      divergent.emplace_back(static_cast<uint32_t>(row), std::move(v));
    }
    ICEWAFL_RETURN_NOT_OK(cr.ExpectEnd());
  }
  ICEWAFL_RETURN_NOT_OK(reader.ExpectEnd());
  return batch;
}

Result<uint64_t> DecodeEndPayload(std::string_view payload) {
  ByteReader reader(payload);
  ICEWAFL_ASSIGN_OR_RETURN(uint64_t total, reader.Varint());
  ICEWAFL_RETURN_NOT_OK(reader.ExpectEnd());
  return total;
}

Result<SubscribeRequest> DecodeSubscribePayload(std::string_view payload) {
  ByteReader reader(payload);
  SubscribeRequest request;
  ICEWAFL_ASSIGN_OR_RETURN(request.version, reader.Varint());
  ICEWAFL_ASSIGN_OR_RETURN(uint64_t id_len, reader.Varint());
  if (id_len > kMaxSessionIdBytes) {
    return Status::ParseError("wire: session id of " + std::to_string(id_len) +
                              " bytes exceeds limit");
  }
  if (id_len > reader.remaining()) {
    return Status::ParseError("wire: session id length exceeds payload");
  }
  ICEWAFL_ASSIGN_OR_RETURN(std::string_view id,
                           reader.Bytes(static_cast<size_t>(id_len)));
  request.session_id.assign(id);
  // Optional capabilities varint (absent in capability-less hellos).
  if (reader.remaining() > 0) {
    ICEWAFL_ASSIGN_OR_RETURN(request.capabilities, reader.Varint());
  }
  ICEWAFL_RETURN_NOT_OK(reader.ExpectEnd());
  return request;
}

void FrameDecoder::Feed(const void* data, size_t n) {
  // Compact lazily: drop consumed prefix once it dominates the buffer.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(static_cast<const char*>(data), n);
}

Result<bool> FrameDecoder::Next(uint8_t* type, std::string_view* payload) {
  const size_t avail = buffer_.size() - consumed_;
  if (avail < 2) return false;  // type byte + at least one length byte
  const uint8_t frame_type = static_cast<uint8_t>(buffer_[consumed_]);
  // Decode the length varint by hand: a *truncated* varint means "wait
  // for more bytes", while an overlong/overflowing one can never become
  // valid and is reported as corruption immediately.
  uint64_t len = 0;
  size_t header = 1;  // bytes consumed after the type byte
  bool complete = false;
  for (int i = 0; i < kMaxVarintBytes; ++i) {
    if (header + 1 > avail) return false;  // truncated header
    const uint8_t byte =
        static_cast<uint8_t>(buffer_[consumed_ + header]);
    ++header;
    if (i == kMaxVarintBytes - 1 && (byte & 0xFE) != 0) {
      return Status::ParseError("wire: frame length varint overflows");
    }
    len |= static_cast<uint64_t>(byte & 0x7F) << (7 * i);
    if ((byte & 0x80) == 0) {
      // Same canonicality rule as ByteReader::Varint: an overlong
      // length encoding is corruption, not a length.
      if (i > 0 && byte == 0) {
        return Status::ParseError("wire: non-canonical varint");
      }
      complete = true;
      break;
    }
  }
  if (!complete) return Status::ParseError("wire: frame length varint too long");
  if (len > kMaxFramePayload) {
    return Status::ParseError("wire: frame payload of " + std::to_string(len) +
                              " bytes exceeds limit");
  }
  if (avail - header < len) return false;  // partial payload
  *payload = std::string_view(buffer_).substr(consumed_ + header,
                                             static_cast<size_t>(len));
  *type = frame_type;
  consumed_ += header + static_cast<size_t>(len);
  return true;
}

}  // namespace net
}  // namespace icewafl
