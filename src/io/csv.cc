#include "io/csv.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "util/strings.h"

namespace icewafl {

namespace {

/// Bytes per read(2) of a scanned file, and the bound on WriteCsvFile's
/// pending output.
constexpr size_t kChunkBytes = 64 * 1024;

void AppendCsvField(std::string_view field, char delimiter, std::string* out) {
  bool needs_quote = false;
  for (char c : field) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') {
      needs_quote = true;
      break;
    }
  }
  if (!needs_quote) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

void AppendCsvHeader(const Schema& schema, char delimiter, std::string* out) {
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (i > 0) out->push_back(delimiter);
    AppendCsvField(schema.attribute(i).name, delimiter, out);
  }
  out->push_back('\n');
}

/// The one record writer behind ToCsvString and WriteCsvFile:
/// appends `tuple` as one '\n'-terminated record, each value rendered
/// into the reused `*field` and quoted only where needed.
void AppendCsvRecord(const Tuple& tuple, const CsvOptions& options,
                     std::string* field, std::string* out) {
  for (size_t i = 0; i < tuple.num_values(); ++i) {
    if (i > 0) out->push_back(options.delimiter);
    tuple.value(i).RenderTo(field, options.null_repr);
    AppendCsvField(*field, options.delimiter, out);
  }
  out->push_back('\n');
}

Result<Value> ConvertField(const std::string& field, ValueType type,
                           const std::string& null_repr) {
  if (field == null_repr) return Value::Null();
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      const std::string lower = ToLower(field);
      if (lower == "true" || lower == "1") return Value(true);
      if (lower == "false" || lower == "0") return Value(false);
      return Status::ParseError("invalid bool field: '" + field + "'");
    }
    case ValueType::kInt64: {
      ICEWAFL_ASSIGN_OR_RETURN(int64_t v, ParseInt64(field));
      return Value(v);
    }
    case ValueType::kDouble: {
      ICEWAFL_ASSIGN_OR_RETURN(double v, ParseDouble(field));
      return Value(v);
    }
    case ValueType::kString:
      return Value(field);
  }
  return Status::Internal("corrupt value type");
}

/// Reads the header record and checks it names the schema's attributes.
Status ReadHeader(CsvScanner* scanner, const Schema& schema,
                  std::vector<std::string>* fields) {
  ICEWAFL_ASSIGN_OR_RETURN(bool has_header, scanner->Next(fields));
  if (!has_header) return Status::ParseError("missing CSV header");
  const auto names = schema.Names();
  if (*fields != names) {
    return Status::ParseError("CSV header does not match schema: got '" +
                              Join(*fields, ",") + "'");
  }
  return Status::OK();
}

/// Converts one record to a typed tuple; `record` (1-based, the header
/// not counted) names it in errors.
Result<Tuple> ToTuple(const SchemaPtr& schema,
                      const std::vector<std::string>& fields, size_t record,
                      const std::string& null_repr) {
  if (fields.size() != schema->num_attributes()) {
    return Status::ParseError(
        "CSV record " + std::to_string(record) + " has " +
        std::to_string(fields.size()) + " fields, schema expects " +
        std::to_string(schema->num_attributes()));
  }
  std::vector<Value> values;
  values.reserve(fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    ICEWAFL_ASSIGN_OR_RETURN(
        Value v, ConvertField(fields[i], schema->attribute(i).type, null_repr));
    values.push_back(std::move(v));
  }
  return Tuple(schema, std::move(values));
}

Result<TupleVector> ReadTuples(CsvScanner* scanner, const SchemaPtr& schema,
                               const CsvOptions& options) {
  std::vector<std::string> fields;
  if (options.header) {
    ICEWAFL_RETURN_NOT_OK(ReadHeader(scanner, *schema, &fields));
  }
  TupleVector tuples;
  while (true) {
    ICEWAFL_ASSIGN_OR_RETURN(bool more, scanner->Next(&fields));
    if (!more) return tuples;
    ICEWAFL_ASSIGN_OR_RETURN(
        Tuple tuple,
        ToTuple(schema, fields, tuples.size() + 1, options.null_repr));
    tuples.push_back(std::move(tuple));
  }
}

}  // namespace

CsvScanner::CsvScanner(std::string_view text, char delimiter)
    : buf_(text), delimiter_(delimiter) {}

CsvScanner::CsvScanner(int fd, std::string path, char delimiter)
    : delimiter_(delimiter),
      fd_(fd),
      path_(std::move(path)),
      chunk_(kChunkBytes, '\0') {}

CsvScanner::~CsvScanner() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<CsvScanner>> CsvScanner::OpenFile(
    const std::string& path, char delimiter) {
  int fd;
  do {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Status::IOError("cannot open for reading: '" + path + "'");
  return std::unique_ptr<CsvScanner>(new CsvScanner(fd, path, delimiter));
}

Result<bool> CsvScanner::Fill() {
  if (pos_ < buf_.size()) return true;
  if (fd_ < 0) return false;
  ssize_t n;
  do {
    n = ::read(fd_, chunk_.data(), chunk_.size());
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    return Status::IOError("cannot read '" + path_ +
                           "': " + std::strerror(errno));
  }
  buf_ = std::string_view(chunk_.data(), static_cast<size_t>(n));
  pos_ = 0;
  return n > 0;
}

Result<bool> CsvScanner::Next(std::vector<std::string>* fields) {
  size_t used = 0;
  auto next_field = [&]() -> std::string* {
    if (used == fields->size()) fields->emplace_back();
    std::string* f = &(*fields)[used++];
    f->clear();
    return f;
  };
  std::string* field = next_field();
  bool in_quotes = false;
  bool any_char = false;
  while (true) {
    if (pos_ == buf_.size()) {
      ICEWAFL_ASSIGN_OR_RETURN(bool more, Fill());
      if (!more) break;
    }
    any_char = true;
    if (in_quotes) {
      const size_t quote = buf_.find('"', pos_);
      if (quote == std::string_view::npos) {
        field->append(buf_.substr(pos_));
        pos_ = buf_.size();
        continue;
      }
      field->append(buf_.substr(pos_, quote - pos_));
      pos_ = quote + 1;
      // A doubled quote is a literal one; a single one closes the field.
      ICEWAFL_ASSIGN_OR_RETURN(bool more, Fill());
      if (more && buf_[pos_] == '"') {
        field->push_back('"');
        ++pos_;
      } else {
        in_quotes = false;
      }
      continue;
    }
    const char c = buf_[pos_];
    if (c == '"' && field->empty()) {
      in_quotes = true;
      ++pos_;
    } else if (c == delimiter_) {
      ++pos_;
      field = next_field();
    } else if (c == '\n') {
      ++pos_;
      fields->resize(used);
      return true;
    } else if (c == '\r') {
      // Swallow the \n of \r\n; a bare \r also ends the record.
      ++pos_;
      ICEWAFL_ASSIGN_OR_RETURN(bool more, Fill());
      if (more && buf_[pos_] == '\n') ++pos_;
      fields->resize(used);
      return true;
    } else {
      // A run of plain characters, up to the next delimiter or line end.
      size_t end = pos_ + 1;
      while (end < buf_.size() && buf_[end] != delimiter_ &&
             buf_[end] != '\n' && buf_[end] != '\r') {
        ++end;
      }
      field->append(buf_.substr(pos_, end - pos_));
      pos_ = end;
    }
  }
  if (in_quotes) {
    return Status::ParseError(
        path_.empty() ? "unterminated quoted CSV field"
                      : "unterminated quoted CSV field in '" + path_ + "'");
  }
  if (!any_char) {
    fields->clear();
    return false;
  }
  // Final record without a trailing newline.
  fields->resize(used);
  return true;
}

Result<std::vector<std::vector<std::string>>> ParseCsvText(
    const std::string& text, const CsvOptions& options) {
  CsvScanner scanner(text, options.delimiter);
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> fields;
  while (true) {
    ICEWAFL_ASSIGN_OR_RETURN(bool more, scanner.Next(&fields));
    if (!more) return records;
    records.push_back(fields);
  }
}

std::string EscapeCsvField(const std::string& field, char delimiter) {
  std::string out;
  AppendCsvField(field, delimiter, &out);
  return out;
}

std::string ToCsvString(const SchemaPtr& schema, const TupleVector& tuples,
                        const CsvOptions& options) {
  std::string out;
  std::string field;
  if (options.header) AppendCsvHeader(*schema, options.delimiter, &out);
  for (const Tuple& t : tuples) AppendCsvRecord(t, options, &field, &out);
  return out;
}

Result<TupleVector> FromCsvString(const SchemaPtr& schema,
                                  const std::string& text,
                                  const CsvOptions& options) {
  CsvScanner scanner(text, options.delimiter);
  return ReadTuples(&scanner, schema, options);
}

Status WriteCsvFile(const SchemaPtr& schema, const TupleVector& tuples,
                    const std::string& path, const CsvOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open for writing: '" + path + "'");
  std::string pending;
  std::string field;
  if (options.header) AppendCsvHeader(*schema, options.delimiter, &pending);
  for (const Tuple& t : tuples) {
    AppendCsvRecord(t, options, &field, &pending);
    if (pending.size() >= kChunkBytes) {
      if (!out.write(pending.data(), pending.size())) break;
      pending.clear();
    }
  }
  out.write(pending.data(), pending.size());
  out.flush();
  if (!out) return Status::IOError("write failed: '" + path + "'");
  return Status::OK();
}

Result<TupleVector> ReadCsvFile(const SchemaPtr& schema,
                                const std::string& path,
                                const CsvOptions& options) {
  ICEWAFL_ASSIGN_OR_RETURN(std::unique_ptr<CsvScanner> scanner,
                           CsvScanner::OpenFile(path, options.delimiter));
  return ReadTuples(scanner.get(), schema, options);
}

}  // namespace icewafl
